package core

import (
	"testing"

	"hic/internal/sim"
)

func quickParams(threads int) Params {
	p := DefaultParams(threads)
	p.Senders = 8
	p.Warmup = 3 * sim.Millisecond
	p.Measure = 5 * sim.Millisecond
	return p
}

func TestParamsValidation(t *testing.T) {
	bad := []func(*Params){
		func(p *Params) { p.Threads = 0 },
		func(p *Params) { p.Senders = 0 },
		func(p *Params) { p.Measure = -1 },
		func(p *Params) { p.CC = "bogus" },
	}
	for i, mutate := range bad {
		p := quickParams(2)
		mutate(&p)
		if _, err := Run(p); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestRunBaseline(t *testing.T) {
	res, err := Run(quickParams(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.AppThroughputGbps <= 0 {
		t.Error("no throughput")
	}
	if res.AppThroughputGbps > MaxAchievable.Gbps()+0.5 {
		t.Errorf("throughput %v exceeds the %v ceiling",
			res.AppThroughputGbps, MaxAchievable.Gbps())
	}
}

func TestCCVariants(t *testing.T) {
	for _, cc := range []CC{CCSwift, CCDCTCP, CCFixed} {
		p := quickParams(2)
		p.CC = cc
		if cc == CCDCTCP {
			p.FabricECNThresholdBytes = 70 << 10
		}
		res, err := Run(p)
		if err != nil {
			t.Fatalf("%s: %v", cc, err)
		}
		if res.Goodput == 0 {
			t.Errorf("%s: no goodput", cc)
		}
	}
}

func TestIOMMUOffMatchesOrBeatsOn(t *testing.T) {
	on := quickParams(12)
	on.Warmup, on.Measure = 8*sim.Millisecond, 10*sim.Millisecond
	on.Senders = 40
	off := on
	off.IOMMU = false
	ron, err := Run(on)
	if err != nil {
		t.Fatal(err)
	}
	roff, err := Run(off)
	if err != nil {
		t.Fatal(err)
	}
	if ron.AppThroughputGbps > roff.AppThroughputGbps+1 {
		t.Errorf("IOMMU ON (%v) beat OFF (%v)", ron.AppThroughputGbps, roff.AppThroughputGbps)
	}
	if ron.IOTLBMissesPerPacket <= 0 {
		t.Error("no IOTLB misses at 12 threads with IOMMU on")
	}
	if roff.IOTLBMissesPerPacket != 0 {
		t.Error("IOTLB misses reported with IOMMU off")
	}
}

func TestOfferedLoadCapsUtilization(t *testing.T) {
	p := quickParams(4)
	p.OfferedGbps = 20
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.AppThroughputGbps > 22 {
		t.Errorf("offered 20 Gbps but delivered %v", res.AppThroughputGbps)
	}
	if res.AppThroughputGbps < 15 {
		t.Errorf("offered 20 Gbps but delivered only %v", res.AppThroughputGbps)
	}
}

func TestBurstDutyLowersUtilization(t *testing.T) {
	p := quickParams(4)
	p.Warmup, p.Measure = 6*sim.Millisecond, 10*sim.Millisecond
	p.BurstDuty = 0.3
	p.BurstPeriod = sim.Millisecond
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Run(quickParams(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.AppThroughputGbps > 0.6*full.AppThroughputGbps {
		t.Errorf("bursty throughput %v not ≪ saturating %v",
			res.AppThroughputGbps, full.AppThroughputGbps)
	}
}

func TestRunManyOrderAndParallel(t *testing.T) {
	ps := []Params{quickParams(2), quickParams(4), quickParams(6)}
	rs, err := RunMany(nil, ps, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 {
		t.Fatalf("got %d results", len(rs))
	}
	// CPU-bound region: throughput ordering must follow thread count.
	if !(rs[0].AppThroughputGbps < rs[1].AppThroughputGbps &&
		rs[1].AppThroughputGbps < rs[2].AppThroughputGbps) {
		t.Errorf("results out of order: %v %v %v",
			rs[0].AppThroughputGbps, rs[1].AppThroughputGbps, rs[2].AppThroughputGbps)
	}
	// And identical to serial runs (parallelism must not change results).
	serial, err := Run(ps[1])
	if err != nil {
		t.Fatal(err)
	}
	if serial != rs[1] {
		t.Error("parallel result differs from serial run")
	}
}

func TestRunManyPropagatesError(t *testing.T) {
	bad := quickParams(2)
	bad.CC = "bogus"
	if _, err := RunMany(nil, []Params{quickParams(2), bad}, nil); err == nil {
		t.Error("sweep error not propagated")
	}
}

func TestModeledThroughputReasonable(t *testing.T) {
	p := quickParams(12)
	noMiss, err := ModeledThroughput(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	// With no misses the bound must sit at or above the wire ceiling.
	if noMiss.Gbps() < 90 {
		t.Errorf("no-miss model = %.1f Gbps, want ≈ ceiling", noMiss.Gbps())
	}
	missy, err := ModeledThroughput(p, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if missy >= noMiss {
		t.Error("model not decreasing in misses")
	}
	if missy.Gbps() < 60 || missy.Gbps() > 90 {
		t.Errorf("2-miss model = %.1f Gbps, want 60..90", missy.Gbps())
	}
}

func TestPaperConstants(t *testing.T) {
	if g := MaxAchievable.Gbps(); g < 91.5 || g > 92.5 {
		t.Errorf("MaxAchievable = %.1f, want ≈92", g)
	}
	if g := BlindThreshold.Gbps(); g < 75 || g > 82 {
		t.Errorf("BlindThreshold = %.1f, want ≈77-81", g)
	}
}

func TestExtensionKnobs(t *testing.T) {
	// Each §4 knob must build and run.
	knobs := []func(*Params){
		func(p *Params) { p.DeviceTLBEntries = 512 },
		func(p *Params) { p.LinkLatencyScale = 0.5 },
		func(p *Params) { p.MemoryIOReservedShare = 0.15 },
		func(p *Params) { p.SubRTTHostECN = true },
		func(p *Params) { p.HostTarget = 50 * sim.Microsecond },
		func(p *Params) { p.NICBufferBytes = 2 << 20 },
		func(p *Params) { p.Hugepages = false },
	}
	for i, k := range knobs {
		p := quickParams(4)
		k(&p)
		if _, err := Run(p); err != nil {
			t.Errorf("knob %d: %v", i, err)
		}
	}
}

// TestModeledTracksSimulated is the Figure-3 "Modeled App Throughput"
// validation: in the credit-limited regime the Little's-law bound
// evaluated at the measured miss rate must track the simulation.
func TestModeledTracksSimulated(t *testing.T) {
	if testing.Short() {
		t.Skip("full-window points are slow")
	}
	for _, threads := range []int{12, 16} {
		p := DefaultParams(threads)
		p.Warmup, p.Measure = 15*sim.Millisecond, 20*sim.Millisecond
		res, err := Run(p)
		if err != nil {
			t.Fatal(err)
		}
		bound, err := ModeledThroughput(p, res.IOTLBMissesPerPacket)
		if err != nil {
			t.Fatal(err)
		}
		ratio := bound.Gbps() / res.AppThroughputGbps
		if ratio < 0.95 || ratio > 1.15 {
			t.Errorf("threads=%d: model %.1f vs simulated %.1f (ratio %.2f)",
				threads, bound.Gbps(), res.AppThroughputGbps, ratio)
		}
	}
}

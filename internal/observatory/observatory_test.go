package observatory_test

import (
	"reflect"
	"strings"
	"testing"

	"hic/internal/core"
	"hic/internal/host"
	"hic/internal/observatory"
	"hic/internal/sim"
	"hic/internal/telemetry"
)

// runObserved runs p with the observatory attached and returns the
// run's results and incident report.
func runObserved(p core.Params, ocfg observatory.Config) (core.Results, *observatory.HostReport, error) {
	s, err := core.Start(p, nil)
	if err != nil {
		return core.Results{}, nil, err
	}
	mon := observatory.Attach(s.Testbed, ocfg)
	res, _ := s.Run(host.StopRule{})
	return res, mon.Report(), nil
}

// fig6Params is the paper's Figure 6 memory-antagonist point with short
// windows (the same scenario the core golden-hash tests pin).
func fig6Params(seed uint64) core.Params {
	p := core.DefaultParams(12)
	p.AntagonistCores = 8
	p.Seed = seed
	p.Warmup, p.Measure = 4*sim.Millisecond, 6*sim.Millisecond
	return p
}

func TestMonitorRingWrap(t *testing.T) {
	p := core.DefaultParams(8)
	p.Warmup, p.Measure = 1*sim.Millisecond, 3*sim.Millisecond
	ocfg := observatory.Config{RingCap: 16}
	_, rep, err := runObserved(p, ocfg)
	if err != nil {
		t.Fatal(err)
	}
	// 4 ms at the default 100 µs cadence is ~40 samples; the ring keeps
	// the newest 16 in time order.
	if rep.Samples <= 16 {
		t.Fatalf("only %d samples — the run never wrapped the 16-slot ring", rep.Samples)
	}
	if len(rep.Timeline) != 16 {
		t.Fatalf("timeline holds %d samples, want 16 (ring capacity)", len(rep.Timeline))
	}
	for i := 1; i < len(rep.Timeline); i++ {
		if !rep.Timeline[i-1].At.Before(rep.Timeline[i].At) {
			t.Fatalf("timeline not in time order at %d: %v then %v", i, rep.Timeline[i-1].At, rep.Timeline[i].At)
		}
	}
}

func TestObservedDeterministic(t *testing.T) {
	run := func() *observatory.HostReport {
		_, rep, err := runObserved(fig6Params(1), observatory.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical seeds produced different observatory reports:\n%+v\nvs\n%+v", a, b)
	}
}

// TestFig6AttributionMatchesLedger cross-checks the observatory's
// sampled root-cause attribution against the drop ledger's ground
// truth on the Figure 6 memory-antagonist point: both must blame the
// memory bus for ≥90%.
func TestFig6AttributionMatchesLedger(t *testing.T) {
	p := fig6Params(1)

	s, err := core.Start(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	run := s.Testbed.EnableSpans(0.01)
	s.Run(host.StopRule{})
	if total := run.Drops.Total(); total == 0 {
		t.Fatal("fig6 point produced no drops — scenario no longer stresses the memory bus")
	}
	ledgerShare := run.Drops.Share(telemetry.CauseMemoryBus)
	if ledgerShare < 0.9 {
		t.Errorf("drop ledger memory-bus share = %.2f, want >= 0.9", ledgerShare)
	}

	_, rep, err := runObserved(p, observatory.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Episodes) == 0 {
		t.Fatal("fig6 point produced no congestion episodes")
	}
	var mem, total sim.Duration
	for _, e := range rep.Episodes {
		mem += e.CauseTime(telemetry.CauseMemoryBus)
		for _, c := range telemetry.Causes() {
			total += e.CauseTime(c)
		}
	}
	if total == 0 {
		t.Fatal("episodes carry no attributed time")
	}
	if share := float64(mem) / float64(total); share < 0.9 {
		t.Errorf("observatory memory-bus share = %.2f, want >= 0.9 (ledger says %.2f)", share, ledgerShare)
	}
}

// TestObservatoryDisabledZeroAlloc gates the disabled path: every
// entry point a fleet run touches per host must be allocation-free on
// a nil receiver.
func TestObservatoryDisabledZeroAlloc(t *testing.T) {
	var m *observatory.Monitor
	var c *observatory.Collector
	allocs := testing.AllocsPerRun(100, func() {
		if m.Report() != nil {
			t.Fatal("nil monitor reported")
		}
		if m.Timeline() != nil {
			t.Fatal("nil monitor has a timeline")
		}
		if err := c.Record(0, "cell", nil); err != nil {
			t.Fatal(err)
		}
		if c.Note() != "" {
			t.Fatal("nil collector has a note")
		}
		if c.Lookup("key") != nil {
			t.Fatal("nil collector memoized")
		}
		c.Memo("key", nil)
		c.SetSink(nil, "")
		c.OnReport(nil)
		_ = c.SamplerConfig()
	})
	if allocs != 0 {
		t.Fatalf("disabled observatory allocates %.0f allocs/op, want 0", allocs)
	}
}

func TestDefaultConfigDefaults(t *testing.T) {
	cfg := observatory.DefaultConfig()
	if cfg.SampleEvery != 100*sim.Microsecond {
		t.Errorf("SampleEvery = %v, want 100µs", cfg.SampleEvery)
	}
	if cfg.OnFraction <= cfg.OffFraction {
		t.Errorf("hysteresis band inverted: on %g <= off %g", cfg.OnFraction, cfg.OffFraction)
	}
	if cfg.BlindHorizon != 90*sim.Microsecond {
		t.Errorf("BlindHorizon = %v, want 90µs (Swift)", cfg.BlindHorizon)
	}
}

func TestWriteTimeline(t *testing.T) {
	p := core.DefaultParams(8)
	p.Warmup, p.Measure = 1*sim.Millisecond, 2*sim.Millisecond
	_, rep, err := runObserved(p, observatory.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := rep.WriteTimeline(&b, 7); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != len(rep.Timeline) {
		t.Fatalf("wrote %d lines, want %d", len(lines), len(rep.Timeline))
	}
	for _, l := range lines {
		if !strings.Contains(l, `"host":7`) {
			t.Fatalf("timeline line missing host stamp: %s", l)
		}
		if !strings.Contains(l, `"t_ns"`) {
			t.Fatalf("timeline line missing t_ns: %s", l)
		}
	}
}

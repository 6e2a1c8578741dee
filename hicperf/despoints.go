package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"hic/internal/core"
	"hic/internal/sim"
)

// desWarmup and desMeasure are the fixed, short windows of every
// des_points operating point.
const (
	desWarmup  = 2 * sim.Millisecond
	desMeasure = 3 * sim.Millisecond
	// desPinned points open every run, whatever its length; their
	// digest and model counters are comparable across runs and commits.
	desPinned = 16
	// desListLen bounds the distinct points one run can draw.
	desListLen = 4096
	// setupRuns is how many times set-up is repeated for its median.
	setupRuns = 5
)

// warmUp times a workload's set-up: draw its inputs, then run the
// Figure 6 point (12 cores, 8 antagonist cores) with the des_points
// windows, so lazy runtime growth (heap, code pages) is paid before
// timing starts. The point is the same for every seed, which keeps
// set-up comparable across seeds. It returns the median of setupRuns
// repeats.
func warmUp(draw func()) (float64, error) {
	p := core.DefaultParams(12)
	p.AntagonistCores = 8
	p.Warmup, p.Measure = desWarmup, desMeasure
	var ts []float64
	for i := 0; i < setupRuns; i++ {
		t0 := time.Now()
		draw()
		if _, err := core.Run(p); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return median(ts), nil
}

// desPoints draws the workload's distinct operating points, alternating
// the paper's two regimes: IOTLB thrash (IOMMU on, 4 KB pages, 4–16
// receiver cores) and the memory bus (12 cores, 0–15 STREAM antagonist
// cores, hugepages). Each regime walks its knob's values in a freshly
// shuffled order, so any run of a few dozen points covers both ranges
// evenly whatever the seed; simulation seeds keep repeated knob values
// distinct.
func desPoints(seed uint64, n int) []core.Params {
	rng := rand.New(rand.NewSource(int64(seed)))
	var threads, ants []int
	seen := map[string]bool{}
	ps := make([]core.Params, 0, n)
	for len(ps) < n {
		var p core.Params
		if len(ps)%2 == 0 {
			if len(threads) == 0 {
				threads = shuffled(rng, 4, 16)
			}
			p = core.DefaultParams(threads[0])
			threads = threads[1:]
			p.Hugepages = false
		} else {
			if len(ants) == 0 {
				ants = shuffled(rng, 0, 15)
			}
			p = core.DefaultParams(12)
			p.AntagonistCores, ants = ants[0], ants[1:]
		}
		p.Seed = rng.Uint64()
		p.Warmup, p.Measure = desWarmup, desMeasure
		if k := p.Canonical(); !seen[k] {
			seen[k] = true
			ps = append(ps, p)
		}
	}
	return ps
}

// shuffled returns lo..hi in a random order.
func shuffled(rng *rand.Rand, lo, hi int) []int {
	vs := rng.Perm(hi - lo + 1)
	for i := range vs {
		vs[i] += lo
	}
	return vs
}

// pointDigest fingerprints one point's full Results.
func pointDigest(r core.Results) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%+v", r))))[:16]
}

// listDigest folds per-point digests in order.
func listDigest(ds []string) string {
	h := sha256.New()
	for _, d := range ds {
		fmt.Fprintln(h, d)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// desRun is what running a prefix of the point list produced.
type desRun struct {
	digests []string
	// cpu is each point's process CPU time.
	cpu    []time.Duration
	events uint64
	failed int
}

// runPoint builds and runs one point, with spans, allocation deltas and
// model counters when tr is non-nil.
func runPoint(p core.Params, id int, tr *tracer, led *desLedger) (core.Results, uint64, error) {
	sp := tr.begin("point", id)
	defer tr.end(sp)
	b := tr.begin("host.build", id)
	tb, err := p.Build()
	tr.end(b)
	if err != nil {
		return core.Results{}, 0, err
	}
	var m0 runtime.MemStats
	if led != nil {
		runtime.ReadMemStats(&m0)
	}
	rs := tr.begin("host.run", id)
	res := tb.Run(p.Warmup, p.Measure)
	tr.end(rs)
	events := tb.Engine.Processed()
	if led != nil {
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		led.add(id, m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc, events, tb.Registry.Snapshot().Counters)
	}
	return res, events, nil
}

// desLedger accumulates the traced run's per-point allocation and
// simulated-work counts. Model counters and allocations are kept over
// the pinned prefix only, so they compare across runs of any length.
type desLedger struct {
	allocs, bytes, events uint64
	pinned                int
	model                 map[string]uint64
}

// modelCounters maps the reported model.* metrics to registry counters.
var modelCounters = map[string]string{
	"model.nic.rx_packets":         "nic.rx.packets",
	"model.nic.rx_drops":           "nic.rx.drops",
	"model.pcie.tx_tlps":           "pcie.tx.tlps",
	"model.iommu.iotlb_misses":     "iommu.iotlb.misses",
	"model.iommu.walk_reads":       "iommu.walk.reads",
	"model.mem.io_requests":        "mem.io.requests",
	"model.transport.retx_packets": "transport.retx.packets",
}

func (l *desLedger) add(id int, allocs, bytes, events uint64, counters map[string]uint64) {
	if id >= desPinned {
		return
	}
	l.pinned++
	l.allocs += allocs
	l.bytes += bytes
	l.events += events
	for metric, name := range modelCounters {
		l.model[metric] += counters[name]
	}
}

// runDES runs points [0, n) of ps, or as many as fit in d (at least
// desPinned) when n is 0.
func runDES(ps []core.Params, n int, d time.Duration, tr *tracer, led *desLedger) desRun {
	var out desRun
	min := desPinned
	if n > 0 {
		min, d = n, 0
	}
	timedLoop(d, min, func(i int) error {
		id := i % len(ps)
		c0 := processCPU()
		res, ev, err := runPoint(ps[id], id, tr, led)
		out.cpu = append(out.cpu, processCPU()-c0)
		if err != nil {
			out.failed++
			out.digests = append(out.digests, "error: "+err.Error())
			return nil
		}
		out.events += ev
		out.digests = append(out.digests, pointDigest(res))
		return nil
	})
	return out
}

// runDESPoints is the des_points workload: a closed loop with one
// client running distinct single-host points in sequence, each a fresh
// Params.Build and Testbed.Run. No cache, router or pool is involved,
// so all host time goes to the engine and the component models.
func runDESPoints(o opts) (*report, error) {
	r := newReport()
	listLen := desListLen
	if o.small {
		listLen = desPinned
	}
	var ps []core.Params
	setup, err := warmUp(func() { ps = desPoints(o.seed, listLen) })
	if err != nil {
		return nil, err
	}
	r.values["setup_s"] = setup

	plain := runDES(ps, 0, o.loopTime(), nil, nil)
	r.attempted, r.failed = len(plain.cpu), plain.failed
	// A point's request time is the CPU time the process spent on it,
	// the garbage collector's included. One client runs CPU-bound
	// simulations, so on an idle host this is its wall time; unlike
	// wall time it leaves out spells when the virtual machine is
	// descheduled, which otherwise swing whole runs by 50%.
	setLatency(r, plain.cpu, sum(plain.cpu), 1)
	r.check("points_ok", plain.failed == 0, "%d of %d points failed", plain.failed, len(plain.cpu))

	pinned := listDigest(plain.digests[:desPinned])
	if want, ok := pinnedDigest("des_points", o); ok {
		r.check("pinned_digest", pinned == want, "first %d points %s, pinned %s", desPinned, pinned, want)
	}
	// Determinism: the first point again, after everything else ran.
	again := runDES(ps, 1, 0, nil, nil)
	r.check("rerun_identical", again.digests[0] == plain.digests[0],
		"point 0 %s then %s", plain.digests[0], again.digests[0])
	r.note("digest", "all %d points %s", len(plain.digests), listDigest(plain.digests))
	if !o.trace {
		return r, nil
	}

	// Traced run: the same points again under spans, MemStats deltas
	// and a CPU profile.
	tr := newTracer()
	led := &desLedger{model: map[string]uint64{}}
	var traced desRun
	if err := profiled(r, o, "des_points", func() { traced = runDES(ps, len(plain.cpu), 0, tr, led) }); err != nil {
		return nil, err
	}
	r.check("traced_digest_equal", listDigest(traced.digests) == listDigest(plain.digests),
		"traced %s, untraced %s", listDigest(traced.digests), listDigest(plain.digests))
	if err := tr.write(filepath.Join(o.outDir, "des_points.trace.json"), "hicperf des_points", nil); err != nil {
		return nil, err
	}

	layers := tr.layers()
	r.zero("fleet.", "fidelity.", "exec.", "cluster.", "runner.", "runcache.", "serve.")
	r.values["trace_overhead"] = median(ms(traced.cpu)) / median(ms(plain.cpu))
	r.values["host.build_ms_p50"] = median(ms(layers["host.build"].durs))
	run := layers["host.run"]
	r.values["sim.events_per_s"] = float64(traced.events) / run.total.Seconds()
	r.values["sim.ns_per_event"] = float64(run.total.Nanoseconds()) / float64(traced.events)
	p := float64(led.pinned)
	r.values["sim.events_per_point"] = float64(led.events) / p
	r.values["des.allocs_per_point"] = float64(led.allocs) / p
	r.values["des.bytes_per_point"] = float64(led.bytes) / p
	for metric, v := range led.model {
		r.values[metric] = float64(v)
	}
	// Host time per simulated packet delivered, over the pinned prefix.
	var pinnedRun time.Duration
	for _, dd := range run.durs[:desPinned] {
		pinnedRun += dd
	}
	if rx := led.model["model.nic.rx_packets"]; rx > 0 {
		r.values["sim.host_ns_per_rx_packet"] = float64(pinnedRun.Nanoseconds()) / float64(rx)
	}
	return r, nil
}

// Command hicbench measures the simulator's hot paths and execution
// layers and writes the results as JSON, or with -compare gates a new
// report against a committed one (see compare.go).
//
//	hicbench                       # every section, JSON on stdout
//	hicbench -out BENCH_hotpath.json
//	hicbench -sections serve -serve-hosts 400 -out results/bench_serve.json
//	hicbench -compare BENCH_hotpath.json results/bench_serve.json
//
// -sections picks which of the nine sections run, named by their report
// keys (default all; they always run in this order):
//   - engine: schedule→fire churn with a retransmit-style timer armed
//     and cancelled per fire, in ns/op, events/sec and allocations;
//   - packet_path: one full pooled packet lifetime (data, ack, release);
//   - fig6_scenario: the paper's Figure 6 memory-antagonist point run
//     end to end, reporting wall-clock and simulated events/sec (the
//     whole-simulator number the microbenchmarks feed into) and the
//     point's heap allocations, build included;
//   - observatory: the same point with the sim-time observatory
//     sampling, against the sampler-off run;
//   - fleet: a Figure 1 fleet on the pooled worker runner with
//     singleflight dedup, reporting hosts/sec, dedup rate, and peak
//     memory;
//   - fidelity: the multi-fidelity execution layer — per-point cost of
//     the fluid solver vs full DES, and the same fleet re-run with
//     -fidelity=auto routing (calibrated fluid + early stopping +
//     audit), reporting hosts/sec, the routing counters, and the
//     speedup over the pure-DES fleet section when it ran;
//   - cold_path: the never-seen auto fleet with knee search and
//     calibration transfer off then on, plus the sharded determinism
//     check (see cold.go);
//   - warm_start: the cross-run warm start — the auto-routed fleet run
//     cold then warm against one persistent store (anchors reloaded,
//     DES points resumed from checkpoints), plus one warm-resumed
//     point's allocation profile for the regression gate;
//   - serve: the long-lived serving layer — one catalog query run
//     single-process, then cold, warm and traced through a coordinator
//     sharding ranges across two in-process workers over loopback HTTP
//     (see serve.go).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"hic/internal/cluster"
	"hic/internal/core"
	"hic/internal/fidelity"
	"hic/internal/host"
	"hic/internal/obs"
	"hic/internal/observatory"
	"hic/internal/pkt"
	"hic/internal/runcache"
	"hic/internal/runner"
	"hic/internal/sim"
)

// benchResult is one benchmark's headline numbers.
type benchResult struct {
	NsPerOp      float64 `json:"ns_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
}

func toResult(r testing.BenchmarkResult, perOpEvents float64) benchResult {
	ns := float64(r.T.Nanoseconds()) / float64(r.N)
	out := benchResult{
		NsPerOp:     ns,
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
	if perOpEvents > 0 && ns > 0 {
		out.EventsPerSec = perOpEvents * 1e9 / ns
	}
	return out
}

const churnDepth = 256

// engineWorkload drives a fig6-like event mix through the engine:
// self-rescheduling events (DMA completion chains) at churn depth, plus
// a cancelled timer per fire (the retransmit timer armed and disarmed
// on every delivered packet).
func engineWorkload(b *testing.B) {
	e := sim.NewEngine(1)
	target := uint64(b.N) + churnDepth
	var pendingTimer sim.EventID
	var tick func()
	timerFn := func() {}
	tick = func() {
		if e.Processed() >= target {
			e.Stop()
			return
		}
		pendingTimer.Cancel()
		pendingTimer = e.After(sim.Duration(5000), timerFn)
		e.After(sim.Duration(1+e.RNG().Intn(997)), tick)
	}
	for i := 0; i < churnDepth; i++ {
		e.After(sim.Duration(1+e.RNG().Intn(997)), tick)
	}
	b.ResetTimer()
	e.Run(math.MaxInt64 - 1)
}

func packetPathWorkload(b *testing.B) {
	pl := pkt.NewPool()
	p := pl.Data(0, 1, 0, 0, 4096)
	a := pl.Ack(0, p)
	pl.Release(p)
	pl.Release(a)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pl.Data(uint64(i), 1, 0, uint64(i), 4096)
		a := pl.Ack(uint64(i), p)
		pl.Release(p)
		pl.Release(a)
	}
}

// fig6Scenario runs the Figure 6 memory-antagonist point end to end and
// reports whole-simulator throughput in events per second, plus the
// point's heap allocations (testbed build and run; the measurement
// stays outside the timed run).
type fig6Scenario struct {
	WallSeconds  float64 `json:"wall_seconds"`
	Events       uint64  `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
	AppGbps      float64 `json:"app_throughput_gbps"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
}

func runFig6() (fig6Scenario, error) {
	p := core.DefaultParams(12)
	p.AntagonistCores = 8
	p.Warmup, p.Measure = 4*sim.Millisecond, 6*sim.Millisecond
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	tb, err := p.Build()
	if err != nil {
		return fig6Scenario{}, err
	}
	start := time.Now()
	res := tb.Run(p.Warmup, p.Measure)
	wall := time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	ev := tb.Engine.Processed()
	return fig6Scenario{
		WallSeconds:  wall,
		Events:       ev,
		EventsPerSec: float64(ev) / wall,
		AppGbps:      res.AppThroughputGbps,
		AllocsPerOp:  int64(m1.Mallocs - m0.Mallocs),
		BytesPerOp:   int64(m1.TotalAlloc - m0.TotalAlloc),
	}, nil
}

// observatoryBench measures what attaching the sim-time observatory
// costs: the fig6 scenario with the sampler off (the fig6 section's
// own run) versus on, in whole-simulator events/sec.
type observatoryBench struct {
	SamplerOffWallSeconds  float64 `json:"sampler_off_wall_seconds"`
	SamplerOnWallSeconds   float64 `json:"sampler_on_wall_seconds"`
	SamplerOffEventsPerSec float64 `json:"sampler_off_events_per_sec"`
	SamplerOnEventsPerSec  float64 `json:"sampler_on_events_per_sec"`
	OverheadPct            float64 `json:"overhead_pct"`
	Episodes               int     `json:"episodes"`
	Samples                uint64  `json:"samples"`
}

// runObservatory reruns the fig6 point with the observatory sampling at
// the default cadence and compares against the sampler-off run.
func runObservatory(off fig6Scenario) (observatoryBench, error) {
	p := core.DefaultParams(12)
	p.AntagonistCores = 8
	p.Warmup, p.Measure = 4*sim.Millisecond, 6*sim.Millisecond
	tb, err := p.Build()
	if err != nil {
		return observatoryBench{}, err
	}
	mon := observatory.Attach(tb, observatory.DefaultConfig())
	start := time.Now()
	tb.Run(p.Warmup, p.Measure)
	wall := time.Since(start).Seconds()
	hr := mon.Report()
	ob := observatoryBench{
		SamplerOffWallSeconds:  off.WallSeconds,
		SamplerOnWallSeconds:   wall,
		SamplerOffEventsPerSec: off.EventsPerSec,
		SamplerOnEventsPerSec:  float64(tb.Engine.Processed()) / wall,
		Episodes:               len(hr.Episodes),
		Samples:                hr.Samples,
	}
	if off.WallSeconds > 0 {
		ob.OverheadPct = (wall/off.WallSeconds - 1) * 100
	}
	return ob, nil
}

// fleetBench measures the pooled, deduplicated fleet path. Peak memory
// is HeapInuse+StackInuse sampled during the run (not VmHWM, which
// never shrinks).
type fleetBench struct {
	Hosts int `json:"hosts"`
	// FidelityMode and Warm record how this fleet executed ("des"/"off"
	// here) so -compare can refuse to gate rates across modes: a DES
	// fleet and an auto-routed or warm-started fleet measure different
	// work even at the same host count.
	FidelityMode string  `json:"fidelity_mode,omitempty"`
	Warm         string  `json:"warm,omitempty"`
	WallSeconds  float64 `json:"wall_seconds"`
	HostsPerSec  float64 `json:"hosts_per_sec"`
	Simulated    uint64  `json:"simulated"`
	Deduplicated uint64  `json:"deduplicated"`
	DedupRate    float64 `json:"dedup_rate"`
	PeakMemBytes uint64  `json:"peak_mem_bytes"`
}

// memPeak samples the Go heap while a workload runs and keeps the max.
type memPeak struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startMemPeak() *memPeak {
	runtime.GC()
	m := &memPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		var ms runtime.MemStats
		t := time.NewTicker(25 * time.Millisecond)
		defer t.Stop()
		for {
			runtime.ReadMemStats(&ms)
			if v := ms.HeapInuse + ms.StackInuse; v > m.peak {
				m.peak = v
			}
			select {
			case <-m.stop:
				return
			case <-t.C:
			}
		}
	}()
	return m
}

func (m *memPeak) Stop() uint64 {
	close(m.stop)
	<-m.done
	return m.peak
}

func fleetConfig(hosts int) cluster.Config {
	cfg := cluster.DefaultConfig()
	cfg.Hosts = hosts
	// Shortened windows (the defaults are 8 ms + 12 ms): the bench
	// compares execution models, not physics, and the dedup rate is
	// window-independent. The measure still spans several burst
	// periods (1-2 ms in the catalog) so duty-cycled workloads behave
	// like they do at full length.
	cfg.Warmup, cfg.Measure = 4*sim.Millisecond, 8*sim.Millisecond
	return cfg
}

func runFleet(hosts int) (fleetBench, error) {
	cfg := fleetConfig(hosts)
	cfg.Progress = runner.NewProgress(os.Stderr, "fleet bench", "hosts", hosts, 5*time.Second)
	mp := startMemPeak()
	start := time.Now()
	st, err := cluster.RunStream(cfg, nil)
	wall := time.Since(start).Seconds()
	peak := mp.Stop()
	cfg.Progress.Finish()
	if err != nil {
		return fleetBench{}, err
	}
	fb := fleetBench{
		Hosts:        hosts,
		FidelityMode: "des",
		Warm:         "off",
		WallSeconds:  wall,
		HostsPerSec:  float64(hosts) / wall,
		Simulated:    st.Simulated,
		Deduplicated: st.Collapsed,
		PeakMemBytes: peak,
	}
	if total := st.Simulated + st.Collapsed; total > 0 {
		fb.DedupRate = float64(st.Collapsed) / float64(total)
	}

	return fb, nil
}

// fidelityBench is the multi-fidelity section: what one point costs
// under the fluid solver vs full DES, and what the fleet gains from
// -fidelity=auto routing over the pure-DES fleet section.
type fidelityBench struct {
	// FluidPointNs is one fluid solve of the Figure 6 point;
	// DESPointMs is the same point under full DES (the fig6 scenario
	// wall-clock), so PointSpeedup is the raw per-point model ratio.
	FluidPointNs float64 `json:"fluid_point_ns"`
	DESPointMs   float64 `json:"des_point_ms"`
	PointSpeedup float64 `json:"point_speedup"`

	// The auto-routed fleet (same size and windows as the fleet
	// section): routing tolerance, execution accounting, and audit
	// outcome. SpeedupVsDES compares hosts/sec against the pure-DES
	// fleet section measured in the same process. FidelityMode/Warm
	// ("auto"/"off") mark the execution mode for the -compare gate.
	FidelityMode string  `json:"fidelity_mode,omitempty"`
	Warm         string  `json:"warm,omitempty"`
	Tol          float64 `json:"tol"`
	AuditRate    float64 `json:"audit_rate"`
	Hosts        int     `json:"hosts"`
	WallSeconds  float64 `json:"wall_seconds"`
	HostsPerSec  float64 `json:"hosts_per_sec"`
	Simulated    uint64  `json:"simulated"`
	Deduplicated uint64  `json:"deduplicated"`
	FluidRouted  uint64  `json:"fluid_routed"`
	EarlyStopped uint64  `json:"early_stopped"`
	AnchorRuns   uint64  `json:"anchor_runs"`
	Audited      uint64  `json:"audited"`
	AuditOverTol uint64  `json:"audit_over_tol"`
	AuditMaxErr  float64 `json:"audit_max_err"`
	PeakMemBytes uint64  `json:"peak_mem_bytes"`
	SpeedupVsDES float64 `json:"speedup_vs_des"`
}

// runFleetFidelity re-runs the fleet with ModeAuto routing (calibrated
// fluid fast path, steady-state early stopping, deterministic audits)
// and compares against desHostsPerSec from the pure-DES fleet section.
func runFleetFidelity(hosts int, tol, auditRate, desHostsPerSec float64) (fidelityBench, error) {
	p := core.DefaultParams(12)
	p.AntagonistCores = 8
	p.Warmup, p.Measure = 4*sim.Millisecond, 6*sim.Millisecond
	fb := fidelityBench{FidelityMode: "auto", Warm: "off", Tol: tol, AuditRate: auditRate, Hosts: hosts}
	fluidRes := toResult(testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.RunFluid(p); err != nil {
				b.Fatal(err)
			}
		}
	}), 0)
	fb.FluidPointNs = fluidRes.NsPerOp

	des, err := runFig6()
	if err != nil {
		return fidelityBench{}, err
	}
	fb.DESPointMs = des.WallSeconds * 1e3
	if fb.FluidPointNs > 0 {
		fb.PointSpeedup = des.WallSeconds * 1e9 / fb.FluidPointNs
	}

	cfg := fleetConfig(hosts)
	router, err := fidelity.New(fidelity.Config{
		Mode:        fidelity.ModeAuto,
		Tol:         tol,
		AuditRate:   auditRate,
		EarlyStop:   true,
		AnchorSeeds: cluster.SeedPool(cfg),
	})
	if err != nil {
		return fidelityBench{}, err
	}
	cfg.Exec = router
	cfg.Progress = runner.NewProgress(os.Stderr, "fleet auto", "hosts", hosts, 5*time.Second)
	mp := startMemPeak()
	start := time.Now()
	st, err := cluster.RunStream(cfg, nil)
	fb.WallSeconds = time.Since(start).Seconds()
	fb.PeakMemBytes = mp.Stop()
	cfg.Progress.Finish()
	if err != nil {
		return fidelityBench{}, err
	}
	fb.HostsPerSec = float64(hosts) / fb.WallSeconds
	fb.Simulated = st.Simulated
	fb.Deduplicated = st.Collapsed
	fb.FluidRouted = st.FluidRouted
	fb.EarlyStopped = st.EarlyStopped
	fb.AnchorRuns = st.AnchorRuns
	fb.Audited = st.Audited
	fb.AuditOverTol = st.AuditOverTol
	fb.AuditMaxErr = st.AuditMaxErr
	if desHostsPerSec > 0 {
		fb.SpeedupVsDES = fb.HostsPerSec / desHostsPerSec
	}
	if fb.AuditOverTol > 0 {
		fmt.Fprintf(os.Stderr, "hicbench: WARNING: %d/%d audited points exceeded tol %.3f (max err %.4f)\n",
			fb.AuditOverTol, fb.Audited, tol, fb.AuditMaxErr)
	}
	return fb, nil
}

// warmStartBench measures the cross-run warm start: the same
// auto-routed fleet run twice against one persistent warm store. The
// cold pass calibrates from scratch and donates checkpoints; the warm
// pass uses a fresh router over the same store, so anchors load from
// disk and DES-routed points warm-start from the nearest checkpointed
// donor. WarmSpeedup is the warm pass's hosts/sec over the cold
// pass's — the "second invocation" win a user sees with -warm=full.
//
// WarmPoint is one fixed warm-started DES point measured under
// testing.Benchmark. Its allocation counts are the exact-class metric
// for the -compare gate: fleet-level totals flap with dedup
// scheduling, a single deterministic warm resume does not.
type warmStartBench struct {
	Hosts         int     `json:"hosts"`
	FidelityMode  string  `json:"fidelity_mode,omitempty"`
	Warm          string  `json:"warm,omitempty"`
	Tol           float64 `json:"tol"`
	AuditRate     float64 `json:"audit_rate"`
	WarmAuditRate float64 `json:"warm_audit_rate"`

	ColdWallSeconds float64 `json:"cold_wall_seconds"`
	ColdHostsPerSec float64 `json:"cold_hosts_per_sec"`
	WarmWallSeconds float64 `json:"warm_wall_seconds"`
	WarmHostsPerSec float64 `json:"warm_hosts_per_sec"`
	WarmSpeedup     float64 `json:"warm_speedup"`

	// Cold-pass persistence: anchor DES runs paid once, calibration
	// blobs and checkpoints written for the warm pass to consume.
	ColdAnchorRuns  uint64 `json:"cold_anchor_runs"`
	AnchorPersisted uint64 `json:"anchor_persisted"`
	Checkpoints     uint64 `json:"checkpoints"`

	// Warm-pass consumption and the warm-start accuracy audit.
	WarmAnchorRuns   uint64  `json:"warm_anchor_runs"`
	AnchorLoaded     uint64  `json:"anchor_loaded"`
	WarmStarted      uint64  `json:"warm_started"`
	WarmAudited      uint64  `json:"warm_audited"`
	WarmAuditOverTol uint64  `json:"warm_audit_over_tol"`
	WarmAuditMaxErr  float64 `json:"warm_audit_max_err"`

	WarmPoint    benchResult `json:"warm_point"`
	PeakMemBytes uint64      `json:"peak_mem_bytes"`
}

// runWarmStart runs the cold-then-warm fleet pair against a throwaway
// warm store, then benchmarks a single warm-started point.
func runWarmStart(hosts int, tol, auditRate, warmAuditRate float64) (warmStartBench, error) {
	wb := warmStartBench{
		Hosts: hosts, FidelityMode: "auto", Warm: "full",
		Tol: tol, AuditRate: auditRate, WarmAuditRate: warmAuditRate,
	}
	warmDir, err := os.MkdirTemp("", "hicbench-warm-")
	if err != nil {
		return wb, err
	}
	defer os.RemoveAll(warmDir)

	// Each pass opens its own store and router: checkpoints captured
	// in-process are never donors, so a fresh router per pass is what
	// makes the second pass a faithful "second invocation".
	runOnce := func(label string) (fidelity.Counters, float64, error) {
		store, err := runcache.Open(warmDir)
		if err != nil {
			return fidelity.Counters{}, 0, err
		}
		cfg := fleetConfig(hosts)
		router, err := fidelity.New(fidelity.Config{
			Mode:          fidelity.ModeAuto,
			Tol:           tol,
			AuditRate:     auditRate,
			EarlyStop:     true,
			AnchorSeeds:   cluster.SeedPool(cfg),
			Warm:          fidelity.WarmFull,
			WarmStore:     store,
			WarmAuditRate: warmAuditRate,
		})
		if err != nil {
			return fidelity.Counters{}, 0, err
		}
		cfg.Exec = router
		cfg.Progress = runner.NewProgress(os.Stderr, label, "hosts", hosts, 5*time.Second)
		start := time.Now()
		_, err = cluster.RunStream(cfg, nil)
		wall := time.Since(start).Seconds()
		cfg.Progress.Finish()
		if err != nil {
			return fidelity.Counters{}, 0, err
		}
		return router.Counters(), wall, nil
	}

	mp := startMemPeak()
	coldC, coldWall, err := runOnce("fleet cold")
	if err != nil {
		mp.Stop()
		return wb, err
	}
	warmC, warmWall, err := runOnce("fleet warm")
	wb.PeakMemBytes = mp.Stop()
	if err != nil {
		return wb, err
	}
	wb.ColdWallSeconds = coldWall
	wb.ColdHostsPerSec = float64(hosts) / coldWall
	wb.WarmWallSeconds = warmWall
	wb.WarmHostsPerSec = float64(hosts) / warmWall
	if wb.ColdHostsPerSec > 0 {
		wb.WarmSpeedup = wb.WarmHostsPerSec / wb.ColdHostsPerSec
	}
	wb.ColdAnchorRuns = coldC.AnchorRuns
	wb.AnchorPersisted = coldC.AnchorPersisted
	wb.Checkpoints = coldC.WarmCheckpoints
	wb.WarmAnchorRuns = warmC.AnchorRuns
	wb.AnchorLoaded = warmC.AnchorLoaded
	wb.WarmStarted = warmC.WarmStarted
	wb.WarmAudited = warmC.WarmAudited
	wb.WarmAuditOverTol = warmC.WarmAuditOverTol
	wb.WarmAuditMaxErr = warmC.WarmAuditMaxErr
	if wb.WarmAuditOverTol > 0 {
		fmt.Fprintf(os.Stderr, "hicbench: WARNING: %d/%d warm-audited points exceeded tol %.3f (max err %.4f)\n",
			wb.WarmAuditOverTol, wb.WarmAudited, tol, wb.WarmAuditMaxErr)
	}

	// Warm-point microbenchmark: one checkpoint donation plus the
	// sibling seed's warm resume (build, prime, guard window, measure),
	// timed at the core layer so every iteration really re-simulates —
	// the router's singleflight retains completed results, which would
	// turn a repeated planned run into a map lookup.
	p := core.DefaultParams(4)
	p.Warmup, p.Measure = 2*sim.Millisecond, 3*sim.Millisecond
	donor, err := core.Start(p, nil)
	if err != nil {
		return wb, err
	}
	donor.Run(host.StopRule{})
	snap := donor.Testbed.Snapshot()
	p2 := p
	p2.Seed = 42
	guard := core.DefaultWarmGuard(p2)
	warmPoint := func() error {
		s, err := core.Start(p2, nil)
		if err != nil {
			return err
		}
		s.Prime(snap, guard)
		s.Run(host.StopRule{})
		return nil
	}
	if err := warmPoint(); err != nil { // pool warm-up outside the timed loop
		return wb, err
	}
	wb.WarmPoint = toResult(testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := warmPoint(); err != nil {
				b.Fatal(err)
			}
		}
	}), 0)
	return wb, nil
}

type report struct {
	GoVersion string `json:"go_version"`
	GOARCH    string `json:"goarch"`
	Engine    struct {
		New benchResult `json:"new"`
	} `json:"engine"`
	PacketPath struct {
		Pooled benchResult `json:"pooled"`
	} `json:"packet_path"`
	Fig6 fig6Scenario `json:"fig6_scenario"`
	// Observatory is the sim-time observatory's overhead on the fig6
	// scenario: sampler on vs off.
	Observatory observatoryBench `json:"observatory"`
	Fleet       fleetBench       `json:"fleet"`
	Fidelity    fidelityBench    `json:"fidelity"`
	// ColdPath is the cold-path acceleration pair: the never-seen
	// auto-routed fleet with knee search and calibration transfer off
	// (the pre-acceleration baseline) then on, plus the sharded
	// determinism check (1-worker and 2-worker coordinator runs must
	// hash-match the in-process run).
	ColdPath coldPathBench `json:"cold_path"`
	// WarmStart is the cross-run warm-start pair: the auto-routed fleet
	// cold (calibrating, donating checkpoints) then warm (fresh router,
	// same persistent store) plus one warm-resumed point's exact-class
	// allocation profile.
	WarmStart warmStartBench `json:"warm_start"`
	// Serve is the serving layer: a coordinator sharding one catalog
	// query across two workers, gated on byte-identity with the
	// single-process run and on warm-query residency.
	Serve serveBench `json:"serve"`
}

// sections are the report sections -sections selects from, named by
// their JSON keys, in the order they run.
var sections = []string{
	"engine", "packet_path", "fig6_scenario", "observatory",
	"fleet", "fidelity", "cold_path", "warm_start", "serve",
}

// config is hicbench's parsed command line.
type config struct {
	out      string
	sections []string // selected, in run order

	fleetHosts, coldHosts, serveHosts     int
	fidelityTol, auditRate, warmAuditRate float64

	compareOld, compareNew string
	compareTol             float64

	obs *obs.Flags
}

// parseArgs parses the command line. Any error is a usage error and
// has already been reported on stderr.
func parseArgs(args []string) (config, error) {
	var c config
	fs := flag.NewFlagSet("hicbench", flag.ContinueOnError)
	usage := func(format string, a ...any) (config, error) {
		err := fmt.Errorf(format, a...)
		fmt.Fprintf(fs.Output(), "hicbench: %v\n", err)
		return c, err
	}
	fs.StringVar(&c.out, "out", "", "write JSON here instead of stdout")
	list := fs.String("sections", strings.Join(sections, ","), "comma-separated report sections to run")
	fs.IntVar(&c.fleetHosts, "fleet-hosts", 10000, "fleet size for the fleet, fidelity and warm_start sections")
	// 0.10 is the bench's routing tolerance (the CLIs default to a more
	// conservative 0.05): the routing gate only admits points bounded
	// under 0.7×tol = 7%, and the audit verifies the observed error
	// stays under tol on every sampled point.
	fs.Float64Var(&c.fidelityTol, "fidelity-tol", 0.10, "auto-routing tolerance for the auto-routed fleet sections")
	fs.Float64Var(&c.auditRate, "audit-rate", 0.05, "fraction of fluid-routed hosts shadow-run under DES in the auto-routed fleet sections")
	fs.IntVar(&c.coldHosts, "cold-hosts", 10000, "fleet size for the cold_path (knee search + calibration transfer) section")
	fs.Float64Var(&c.warmAuditRate, "warm-audit-rate", 0.05, "fraction of warm-startable points re-run cold under DES in the warm_start section")
	fs.IntVar(&c.serveHosts, "serve-hosts", 400, "catalog-query size for the serve (coordinator + 2 workers) section")
	fs.StringVar(&c.compareOld, "compare", "", "regression gate: compare this baseline JSON against the new JSON given as the positional argument, exit non-zero on regression (no benches run)")
	fs.Float64Var(&c.compareTol, "compare-tol", 0.25, "allowed relative degradation for noisy (timing/rate) metrics with -compare; allocation counts are exact-class and tolerate nothing")
	c.obs = obs.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if c.compareOld != "" {
		if c.compareNew = fs.Arg(0); c.compareNew == "" {
			return usage("-compare needs two reports: hicbench -compare <old.json> <new.json>")
		}
		return c, nil
	}

	want := strings.Split(*list, ",")
	for _, name := range want {
		if !slices.Contains(sections, name) {
			return usage("unknown section %q in -sections (known: %s)", name, strings.Join(sections, ","))
		}
	}
	for _, name := range sections {
		if slices.Contains(want, name) {
			c.sections = append(c.sections, name)
		}
	}
	if c.fleetHosts <= 0 || c.coldHosts <= 0 || c.serveHosts <= 0 {
		return usage("-fleet-hosts, -cold-hosts and -serve-hosts must be positive")
	}
	return c, nil
}

func main() { os.Exit(run(os.Args[1:])) }

// run is the whole command; it returns the exit code: 0 on success, 1
// when a bench or the regression gate fails, 2 on a usage error.
func run(args []string) int {
	c, err := parseArgs(args)
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != nil {
		return 2
	}
	if c.compareOld != "" {
		return runCompare(c.compareOld, c.compareNew, c.compareTol)
	}
	fail := func(what string, err error) int {
		fmt.Fprintf(os.Stderr, "hicbench: %s: %v\n", what, err)
		return 1
	}

	var orun *obs.Run // nil-safe
	if srv, err := c.obs.Start(os.Stderr); err != nil {
		return fail("control plane", err)
	} else if srv != nil {
		defer srv.Close()
		srv.AddSource(runner.Shared())
		orun = srv.StartRun("bench", int64(len(c.sections)), c.sections...)
		defer orun.Finish()
	}

	var rep report
	rep.GoVersion = runtime.Version()
	rep.GOARCH = runtime.GOARCH
	for _, name := range c.sections {
		orun.SetPhase(name)
		switch name {
		case "engine":
			// Each op processes ~1 event (the churn fires one event and
			// schedules one replacement plus a timer arm/cancel pair).
			rep.Engine.New = toResult(testing.Benchmark(engineWorkload), 1)
		case "packet_path":
			rep.PacketPath.Pooled = toResult(testing.Benchmark(packetPathWorkload), 0)
		case "fig6_scenario":
			if rep.Fig6, err = runFig6(); err != nil {
				return fail("fig6 scenario", err)
			}
		case "observatory":
			off := rep.Fig6
			if off.WallSeconds == 0 { // fig6_scenario not selected: measure the sampler-off run here
				if off, err = runFig6(); err != nil {
					return fail("observatory bench", err)
				}
			}
			if rep.Observatory, err = runObservatory(off); err != nil {
				return fail("observatory bench", err)
			}
		case "fleet":
			if rep.Fleet, err = runFleet(c.fleetHosts); err != nil {
				return fail("fleet bench", err)
			}
		case "fidelity":
			if rep.Fidelity, err = runFleetFidelity(c.fleetHosts, c.fidelityTol, c.auditRate, rep.Fleet.HostsPerSec); err != nil {
				return fail("fidelity bench", err)
			}
		case "cold_path":
			// Reuse the fidelity section's pass as the baseline when it ran
			// the identical configuration at the same scale.
			var fid *fidelityBench
			if rep.Fidelity.Hosts > 0 {
				fid = &rep.Fidelity
			}
			if rep.ColdPath, err = runColdPath(c.coldHosts, c.fidelityTol, c.auditRate, fid); err != nil {
				return fail("cold-path bench", err)
			}
		case "warm_start":
			if rep.WarmStart, err = runWarmStart(c.fleetHosts, c.fidelityTol, c.auditRate, c.warmAuditRate); err != nil {
				return fail("warm-start bench", err)
			}
		case "serve":
			if rep.Serve, err = runServe(c.serveHosts, c.fidelityTol); err != nil {
				return fail("serve bench", err)
			}
		}
		orun.Advance(1)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fail("encoding report", err)
	}
	data = append(data, '\n')
	if c.out == "" {
		os.Stdout.Write(data)
		return 0
	}
	if err := os.WriteFile(c.out, data, 0o644); err != nil {
		return fail("writing report", err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (sections %s; fig6 %.1fM events/s, fleet %.1f hosts/s, auto %.1f hosts/s %.2fx, cold %.1f hosts/s %.2fx, warm %.1f hosts/s %.2fx, serve scaling %.2fx warm %.2fx)\n",
		c.out, strings.Join(c.sections, ","), rep.Fig6.EventsPerSec/1e6, rep.Fleet.HostsPerSec,
		rep.Fidelity.HostsPerSec, rep.Fidelity.SpeedupVsDES,
		rep.ColdPath.ColdHostsPerSec, rep.ColdPath.Speedup,
		rep.WarmStart.WarmHostsPerSec, rep.WarmStart.WarmSpeedup,
		rep.Serve.ScalingRatio, rep.Serve.WarmSpeedup)
	return 0
}

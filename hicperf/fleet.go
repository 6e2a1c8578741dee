package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hic/internal/cluster"
	"hic/internal/core"
	"hic/internal/fidelity"
	"hic/internal/runcache"
	"hic/internal/runner"
	"hic/internal/sim"
)

// The fleet workload's size: 600 hosts cover all ~50 catalog
// signatures, so calibration (about 300 anchor simulations) is the same
// bill for every seed; 2+4 ms windows keep one cold pass near 30 s on
// two cores.
const (
	fleetHosts   = 600
	fleetWarmup  = 2 * sim.Millisecond
	fleetMeasure = 4 * sim.Millisecond
	// Routing knobs are the CLI defaults of -fidelity=auto, with the
	// tolerance cmd/hicbench routes at.
	fleetTol       = 0.1
	fleetAuditRate = 0.05
)

// fleetConfig is the fleet one seed draws, run on an nproc-slot pool.
func fleetConfig(o opts, pool *runner.Pool) cluster.Config {
	cfg := cluster.DefaultConfig()
	cfg.Hosts = fleetHosts
	if o.small {
		cfg.Hosts = 24
	}
	cfg.Seed = o.seed
	cfg.Warmup, cfg.Measure = fleetWarmup, fleetMeasure
	cfg.Pool = pool
	return cfg
}

// newRouter builds the -fidelity=auto router a CLI run builds, with
// warm start on against warmStore.
func newRouter(cfg cluster.Config, cache, warmStore *runcache.Store) (*fidelity.Router, error) {
	return fidelity.New(fidelity.Config{
		Mode:           fidelity.ModeAuto,
		Tol:            fleetTol,
		AuditRate:      fleetAuditRate,
		EarlyStop:      true,
		Cache:          cache,
		AnchorSeeds:    cluster.SeedPool(cfg),
		Warm:           fidelity.WarmFull,
		WarmStore:      warmStore,
		WarmAuditRate:  fleetAuditRate,
		KneeSearch:     true,
		KneeRadius:     1,
		Transfer:       true,
		TransferRadius: 1.2,
	})
}

// passResult is one fleet pass: its output hash, wall time and the
// router's and run cache's accounting.
type passResult struct {
	hash     string
	hosts    int
	wall     time.Duration
	counters fidelity.Counters
	cache    runcache.Stats
}

// openStore opens a disk store, through the meter when one is given.
func openStore(dir string, meter *backendMeter) (*runcache.Store, error) {
	be, err := runcache.NewDisk(dir)
	if err != nil {
		return nil, err
	}
	if meter != nil {
		be = meter.wrap(be)
	}
	return runcache.NewStore(be), nil
}

// runPass runs the fleet once as a fresh process would: a new router
// and an empty run cache (dir/name), against the warm store in
// dir/warm. A nil tr runs it unwrapped.
func runPass(cfg cluster.Config, dir, name string, tr *tracer, meter *backendMeter) (passResult, error) {
	cache, err := openStore(filepath.Join(dir, name), meter)
	if err != nil {
		return passResult{}, err
	}
	warm, err := openStore(filepath.Join(dir, "warm"), meter)
	if err != nil {
		return passResult{}, err
	}
	router, err := newRouter(cfg, cache, warm)
	if err != nil {
		return passResult{}, err
	}
	cfg.Cache = cache
	cfg.Exec = router
	if tr != nil {
		// RunRange installs the roster only when Exec is the router
		// itself; behind the wrapper the benchmark does it.
		cluster.InstallRoster(cfg, router)
		cfg.Exec = &tracedExec{r: router, tr: tr, ids: map[string]int{}}
	}
	h := cluster.NewPointHasher()
	sp := tr.begin("fleet.pass", 0)
	t0 := time.Now()
	_, err = cluster.RunStream(cfg, func(p cluster.Point) error {
		h.Add(p)
		return nil
	})
	wall := time.Since(t0)
	tr.end(sp)
	if err != nil {
		return passResult{}, err
	}
	return passResult{
		hash: h.Sum(), hosts: h.Count(), wall: wall,
		counters: router.Counters(), cache: cache.Stats(),
	}, nil
}

// fleetPair is one request: a cold pass on empty stores, then a warm
// pass against the warm store the cold pass filled.
type fleetPair struct {
	cold, warm passResult
	// coldBusy is the slot time the cold pass spent inside traced
	// layer calls (traced runs only).
	coldBusy time.Duration
}

// fleetRun is the pairs a closed loop ran for d.
type fleetRun struct {
	pairs []fleetPair
	lat   []time.Duration
	wall  time.Duration
}

func runFleetPairs(cfg cluster.Config, dir string, d time.Duration, tr *tracer, meter *backendMeter) (fleetRun, error) {
	var fr fleetRun
	var err error
	fr.lat, fr.wall, err = timedLoop(d, 1, func(i int) error {
		pairDir := filepath.Join(dir, fmt.Sprint(i))
		defer os.RemoveAll(pairDir)
		var p fleetPair
		var err error
		busy := tr.rootBusy("fleet.pass")
		if p.cold, err = runPass(cfg, pairDir, "cache-cold", tr, meter); err != nil {
			return fmt.Errorf("cold pass: %w", err)
		}
		p.coldBusy = tr.rootBusy("fleet.pass") - busy
		if p.warm, err = runPass(cfg, pairDir, "cache-warm", tr, meter); err != nil {
			return fmt.Errorf("warm pass: %w", err)
		}
		fr.pairs = append(fr.pairs, p)
		return nil
	})
	return fr, err
}

// checkFleet adds the fleet's correctness checks and failure counts.
// Audited points over tolerance are failed operations: the outputs are
// still deterministic, but one approximation missed its bound.
func checkFleet(r *report, o opts, fr fleetRun, label string) {
	first := fr.pairs[0]
	same := true
	for _, p := range fr.pairs {
		r.attempted += p.cold.hosts + p.warm.hosts
		c, w := p.cold.counters, p.warm.counters
		r.failed += int(c.AuditOverTol + c.WarmAuditOverTol + w.AuditOverTol + w.WarmAuditOverTol)
		same = same && p.cold.hash == first.cold.hash && p.warm.hash == first.warm.hash
	}
	c, w := first.cold.counters, first.warm.counters
	r.note(label+"cold_audit", "%d of %d audited over tol %.2f (max err %.4f)",
		c.AuditOverTol, c.Audited, fleetTol, c.AuditMaxErr)
	r.note(label+"warm_audit", "%d of %d audited and %d of %d warm-audited over tol (max err %.4f, %.4f)",
		w.AuditOverTol, w.Audited, w.WarmAuditOverTol, w.WarmAudited, w.AuditMaxErr, w.WarmAuditMaxErr)
	r.check(label+"pairs_identical", same, "%d pairs, cold %s, warm %s", len(fr.pairs), first.cold.hash, first.warm.hash)
	if label != "" {
		return
	}
	for key, got := range map[string]string{"fleet.cold": first.cold.hash, "fleet.warm": first.warm.hash} {
		if want, ok := pinnedDigest(key, o); ok {
			r.check(key+"_pinned", got == want, "hash %s, pinned %s", got, want)
		}
	}
}

// runFleet is the fleet workload. A request runs one never-seen
// -fidelity=auto fleet twice: cold (empty run cache and warm store),
// then warm (a fresh router and run cache against the warm store the
// cold pass filled, as the next process would). Calibration makes the
// cold pass nearly the same bill for every seed, which keeps a
// request's cost steady although the warm pass alone varies with the
// fleet's draw.
func runFleet(o opts) (*report, error) {
	r := newReport()
	pool := runner.New(runtime.NumCPU())
	cfg := fleetConfig(o, pool)
	setup, err := warmUp(func() { cluster.SignatureReps(cfg) })
	if err != nil {
		return nil, err
	}
	r.values["setup_s"] = setup

	plain, err := runFleetPairs(cfg, filepath.Join(o.tmpDir, "fleet"), o.loopTime(), nil, nil)
	if err != nil {
		return nil, err
	}
	setLatency(r, plain.lat, plain.wall, 2*cfg.Hosts)
	checkFleet(r, o, plain, "")
	if !o.trace {
		return r, nil
	}

	// Traced run: the same pairs on fresh stores, behind the executor,
	// backend and span wrappers.
	tr := newTracer()
	meter := &backendMeter{tr: tr}
	meter.on.Store(true)
	var traced fleetRun
	perr := profiled(r, o, "fleet", func() {
		traced, err = runFleetPairs(cfg, filepath.Join(o.tmpDir, "fleet-traced"), o.loopTime(), tr, meter)
	})
	if err != nil {
		return nil, err
	}
	if perr != nil {
		return nil, perr
	}
	checkFleet(r, o, traced, "traced_")
	tp, pp := traced.pairs[0], plain.pairs[0]
	r.check("traced_cold_hash_equal", tp.cold.hash == pp.cold.hash, "traced %s, untraced %s", tp.cold.hash, pp.cold.hash)
	r.check("traced_warm_hash_equal", tp.warm.hash == pp.warm.hash, "traced %s, untraced %s", tp.warm.hash, pp.warm.hash)
	if err := tr.write(filepath.Join(o.outDir, "fleet.trace.json"), "hicperf fleet", nil); err != nil {
		return nil, err
	}

	r.zero("host.", "sim.", "des.", "model.", "serve.")
	r.values["trace_overhead"] = median(ms(traced.lat)) / median(ms(plain.lat))
	hosts := float64(cfg.Hosts)
	r.values["fleet.cold_hosts_per_s"] = hosts / tp.cold.wall.Seconds()
	r.values["fleet.warm_hosts_per_s"] = hosts / tp.warm.wall.Seconds()

	layers := tr.layers()
	if l := layers["fidelity.plan"]; l != nil {
		r.values["fidelity.plan_s"] = l.self.Seconds()
	}
	for _, kind := range []string{"des", "fluid", "warm"} {
		r.values["exec."+kind+"_n"], r.values["exec."+kind+"_s"] = 0, 0
		if l := layers["exec."+kind]; l != nil {
			r.values["exec."+kind+"_n"] = float64(l.n)
			r.values["exec."+kind+"_s"] = l.self.Seconds()
		}
	}
	for label, c := range map[string]fidelity.Counters{"cold": tp.cold.counters, "warm": tp.warm.counters} {
		r.values["fidelity."+label+".anchor_runs"] = float64(c.AnchorRuns)
		r.values["fidelity."+label+".knee_probes"] = float64(c.KneeProbes)
		r.values["fidelity."+label+".des_routed"] = float64(c.DESRouted)
		r.values["fidelity."+label+".fluid_routed"] = float64(c.FluidRouted)
		r.values["fidelity."+label+".audited"] = float64(c.Audited + c.WarmAudited)
		r.values["fidelity."+label+".anchor_loaded"] = float64(c.AnchorLoaded)
		r.values["fidelity."+label+".warm_started"] = float64(c.WarmStarted)
	}
	cc, wc := tp.cold.counters, tp.warm.counters
	r.values["fidelity.des_per_host"] = float64(cc.DESRouted+cc.AnchorRuns+wc.DESRouted+wc.AnchorRuns) / (2 * hosts)
	r.values["fidelity.err_max"] = max(cc.AuditMaxErr, cc.WarmAuditMaxErr, wc.AuditMaxErr, wc.WarmAuditMaxErr)

	// Dedup and slot use of the cold pass: hosts the run cache answered
	// (hits and in-flight collapses), and the share of slot time spent
	// inside traced layer calls.
	cs := tp.cold.cache
	r.values["cluster.dedup_frac"] = float64(cs.Hits+cs.Collapses) / hosts
	r.values["runner.util"] = tp.coldBusy.Seconds() / (tp.cold.wall.Seconds() * float64(pool.Workers()))
	meter.report(r)
	return r, nil
}

// execKind names the execution strategy a plan's cache salt records.
func execKind(version string) string {
	switch {
	case strings.Contains(version, "+warm("):
		return "warm"
	case strings.Contains(version, "+fluid"):
		return "fluid"
	}
	return "des"
}

// tracedExec is a core.Executor around the router that records a plan
// span per routing decision and an exec span per execution, keyed by
// the scenario so the spans of one host share an id.
type tracedExec struct {
	r  *fidelity.Router
	tr *tracer

	mu  sync.Mutex
	ids map[string]int
}

func (e *tracedExec) id(p core.Params) int {
	k := p.Canonical()
	e.mu.Lock()
	defer e.mu.Unlock()
	id, ok := e.ids[k]
	if !ok {
		id = len(e.ids)
		e.ids[k] = id
	}
	return id
}

func (e *tracedExec) Plan(p core.Params) (string, func(*runner.Arena) (core.Results, error), error) {
	id := e.id(p)
	sp := e.tr.begin("fidelity.plan", id)
	version, run, err := e.r.Plan(p)
	e.tr.end(sp)
	if err != nil {
		return version, run, err
	}
	name := "exec." + execKind(version)
	return version, func(a *runner.Arena) (core.Results, error) {
		sp := e.tr.begin(name, id)
		defer e.tr.end(sp)
		return run(a)
	}, nil
}

// backendMeter times the byte moves of every runcache.Backend it wraps.
type backendMeter struct {
	tr *tracer
	// on gates recording, so a wrapped store can serve untraced traffic
	// at the cost of one atomic load.
	on atomic.Bool

	mu                      sync.Mutex
	loadN, loadHits, storeN int
	loadDur, storeDur       time.Duration
	storedBytes             int64
}

func (m *backendMeter) wrap(be runcache.Backend) runcache.Backend {
	return &meteredBackend{Backend: be, m: m}
}

func (m *backendMeter) report(r *report) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r.values["runcache.load_n"] = float64(m.loadN)
	r.values["runcache.hit_frac"] = float64(m.loadHits) / float64(max(m.loadN, 1))
	r.values["runcache.load_ms"] = float64(m.loadDur.Nanoseconds()) / 1e6
	r.values["runcache.store_n"] = float64(m.storeN)
	r.values["runcache.store_ms"] = float64(m.storeDur.Nanoseconds()) / 1e6
	r.values["runcache.stored_mb"] = float64(m.storedBytes) / (1 << 20)
}

type meteredBackend struct {
	runcache.Backend
	m *backendMeter
}

func (b *meteredBackend) Load(key string) ([]byte, bool) {
	if !b.m.on.Load() {
		return b.Backend.Load(key)
	}
	sp := b.m.tr.begin("runcache.load", -1)
	t0 := time.Now()
	data, ok := b.Backend.Load(key)
	d := time.Since(t0)
	b.m.tr.end(sp)
	b.m.mu.Lock()
	b.m.loadN++
	if ok {
		b.m.loadHits++
	}
	b.m.loadDur += d
	b.m.mu.Unlock()
	return data, ok
}

func (b *meteredBackend) Store(key string, data []byte) error {
	if !b.m.on.Load() {
		return b.Backend.Store(key, data)
	}
	sp := b.m.tr.begin("runcache.store", -1)
	t0 := time.Now()
	err := b.Backend.Store(key, data)
	d := time.Since(t0)
	b.m.tr.end(sp)
	b.m.mu.Lock()
	b.m.storeN++
	b.m.storeDur += d
	b.m.storedBytes += int64(len(data))
	b.m.mu.Unlock()
	return err
}

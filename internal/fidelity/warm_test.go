package fidelity

import (
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"hic/internal/core"
	"hic/internal/host"
	"hic/internal/obs"
	"hic/internal/runcache"
	"hic/internal/sim"
)

func openStore(t *testing.T, dir string) *runcache.Store {
	t.Helper()
	s, err := runcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestParseWarmMode(t *testing.T) {
	for _, good := range []string{"off", "calib", "full"} {
		if _, err := ParseWarmMode(good); err != nil {
			t.Errorf("ParseWarmMode(%q): %v", good, err)
		}
	}
	for _, bad := range []string{"", "on", "FULL", "ckpt"} {
		if _, err := ParseWarmMode(bad); err == nil {
			t.Errorf("ParseWarmMode(%q): want error", bad)
		}
	}
}

func TestNewWarmValidation(t *testing.T) {
	if _, err := New(Config{Warm: WarmFull}); err == nil {
		t.Error("Warm full without WarmStore accepted")
	}
	if _, err := New(Config{Warm: "hot"}); err == nil {
		t.Error("unknown warm mode accepted")
	}
	store := openStore(t, t.TempDir())
	if _, err := New(Config{Warm: WarmFull, WarmStore: store, WarmAuditRate: 1.5}); err == nil {
		t.Error("WarmAuditRate 1.5 accepted")
	}
	if _, err := New(Config{Warm: WarmFull, WarmStore: store, WarmAuditRate: 0.1}); err != nil {
		t.Errorf("valid warm config rejected: %v", err)
	}
}

// TestCalibPersistRoundTrip is the headline persistence property: a
// second router over the same warm store routes every point to the
// identical version and result — with zero anchor simulations, every
// anchor and noise tier served from disk.
func TestCalibPersistRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("runs DES anchors")
	}
	dir := t.TempDir()
	cfg := func(s *runcache.Store) Config {
		return Config{Mode: ModeAuto, Tol: 0.05, Warm: WarmCalib, WarmStore: s}
	}
	var grid []core.Params
	for _, ant := range []int{0, 2, 6, 10, 15} {
		p := core.DefaultParams(12)
		p.AntagonistCores = ant
		// A seed outside the anchor pool: no grid point coincides with a
		// calibration run, so routing depends only on the calibration
		// state — the thing whose persistence is under test.
		p.Seed = 7
		p.Warmup, p.Measure = 4*sim.Millisecond, 6*sim.Millisecond
		grid = append(grid, p)
	}

	r1 := mustRouter(t, cfg(openStore(t, dir)))
	type outcome struct {
		version string
		res     core.Results
	}
	cold := make([]outcome, len(grid))
	for i, p := range grid {
		version, run, err := r1.Plan(p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := run(nil)
		if err != nil {
			t.Fatal(err)
		}
		cold[i] = outcome{version, res}
	}
	c1 := r1.Counters()
	if c1.AnchorRuns == 0 {
		t.Fatal("cold router ran no anchors; persistence is vacuous")
	}
	if c1.AnchorPersisted == 0 {
		t.Fatal("cold router persisted nothing")
	}

	r2 := mustRouter(t, cfg(openStore(t, dir)))
	for i, p := range grid {
		version, run, err := r2.Plan(p)
		if err != nil {
			t.Fatal(err)
		}
		if version != cold[i].version {
			t.Errorf("ant=%d: warm version %q != cold %q", p.AntagonistCores, version, cold[i].version)
		}
		res, err := run(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, cold[i].res) {
			t.Errorf("ant=%d: warm result differs from cold", p.AntagonistCores)
		}
	}
	c2 := r2.Counters()
	if c2.AnchorRuns != 0 {
		t.Errorf("warm router ran %d anchors, want 0 (all persisted)", c2.AnchorRuns)
	}
	if c2.AnchorLoaded == 0 {
		t.Error("warm router loaded no persisted anchors")
	}
	if c2.AnchorLoaded != c1.AnchorPersisted {
		t.Errorf("loaded %d != persisted %d", c2.AnchorLoaded, c1.AnchorPersisted)
	}
}

// TestCalibSaltInvalidation pins invalidation-by-construction for the
// persistent store: calibration persisted under one salt is invisible
// to a router whose DES variant or anchor grid differs.
func TestCalibSaltInvalidation(t *testing.T) {
	dir := t.TempDir()
	store := openStore(t, dir)
	r1 := mustRouter(t, Config{Mode: ModeAuto, Warm: WarmCalib, WarmStore: store})
	p := core.DefaultParams(12)
	sig := signature(p)

	// Hand-plant a calibration blob under r1's salt (no DES needed).
	pc := persistedCalib{Anchors: []persistedAnchor{{Ant: 0, Gain: 1, OK: true}}}
	v1 := r1.calibVersion()
	if err := store.PutBlob(runcache.Key(v1, sig), v1, sig, pc); err != nil {
		t.Fatal(err)
	}

	touch := func(r *Router) uint64 {
		s := r.sigFor(p)
		s.mu.Lock()
		r.loadSig(s, p)
		s.mu.Unlock()
		return r.Counters().AnchorLoaded
	}
	if n := touch(r1); n != 1 {
		t.Fatalf("same-salt router loaded %d anchors, want 1", n)
	}

	// A different anchor grid changes the salt: nothing loads.
	r2 := mustRouter(t, Config{Mode: ModeAuto, Warm: WarmCalib,
		WarmStore: openStore(t, dir), AnchorAnts: []int{0, 8, 15}})
	if r2.calibVersion() == v1 {
		t.Fatal("different AnchorAnts produced the same calibration salt")
	}
	if n := touch(r2); n != 0 {
		t.Fatalf("bumped-grid router loaded %d anchors, want 0", n)
	}

	// So does a different DES variant (early stopping re-salts anchors).
	r3 := mustRouter(t, Config{Mode: ModeAuto, Warm: WarmCalib,
		WarmStore: openStore(t, dir), EarlyStop: true})
	if r3.calibVersion() == v1 {
		t.Fatal("early-stopped router produced the pure-DES calibration salt")
	}
	if n := touch(r3); n != 0 {
		t.Fatalf("early-stopped router loaded %d anchors, want 0", n)
	}
}

// TestWarmStartRoundTripAndSalt exercises the checkpoint layer end to
// end: a cold run donates a checkpoint, a second process warm-starts a
// sibling point from it under a distinct salt, never in-process, and
// the warm audit returns the authoritative cold result.
func TestWarmStartRoundTripAndSalt(t *testing.T) {
	if testing.Short() {
		t.Skip("runs DES")
	}
	dir := t.TempDir()
	p := core.DefaultParams(4)
	p.Warmup, p.Measure = 2*sim.Millisecond, 3*sim.Millisecond
	p2 := p
	p2.Seed = 42

	// Process 1: cold, captures a checkpoint.
	r1 := mustRouter(t, Config{Mode: ModeDES, Warm: WarmFull, WarmStore: openStore(t, dir)})
	v1, run1, err := r1.Plan(p)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != core.SimVersion {
		t.Fatalf("first-ever point planned %q, want cold %q", v1, core.SimVersion)
	}
	if _, err := run1(nil); err != nil {
		t.Fatal(err)
	}
	if c := r1.Counters(); c.WarmCheckpoints != 1 || c.WarmStarted != 0 {
		t.Fatalf("cold run counters = %+v, want 1 checkpoint, 0 warm starts", c)
	}
	// Checkpoints captured in-process must not serve as donors: the
	// sibling still plans cold in the same router.
	if v, _, err := r1.Plan(p2); err != nil || v != core.SimVersion {
		t.Fatalf("in-process checkpoint served as donor (version %q, err %v)", v, err)
	}

	// Process 2: warm-starts the sibling from the persisted donor.
	r2 := mustRouter(t, Config{Mode: ModeDES, Warm: WarmFull, WarmStore: openStore(t, dir)})
	v2, run2, err := r2.Plan(p2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(v2, "+warm(") {
		t.Fatalf("sibling planned %q, want a +warm(...) salt", v2)
	}
	if v2 == core.SimVersion || strings.HasPrefix(v2, core.FluidVersion) {
		t.Fatalf("warm salt %q collides with a DES or fluid salt family", v2)
	}
	if runcache.Key(v2, p2.Canonical()) == p2.CacheKey() {
		t.Fatal("warm salt produced the pure-DES cache key")
	}
	warm, err := run2(nil)
	if err != nil {
		t.Fatal(err)
	}
	if c := r2.Counters(); c.WarmStarted != 1 {
		t.Fatalf("counters = %+v, want 1 warm start", c)
	}
	des2, err := core.Run(p2)
	if err != nil {
		t.Fatal(err)
	}
	if e := observedError(warm, des2); e > 0.1 {
		t.Errorf("warm-start error %.4f vs cold DES exceeds 0.1 (warm %.2f Gbps/%.3f%%, cold %.2f Gbps/%.3f%%)",
			e, warm.AppThroughputGbps, warm.DropRatePct, des2.AppThroughputGbps, des2.DropRatePct)
	}

	// Warm audit: exact cold result under the pure-DES salt, error
	// recorded.
	r3 := mustRouter(t, Config{Mode: ModeDES, Warm: WarmFull,
		WarmStore: openStore(t, dir), WarmAuditRate: 1})
	v3, run3, err := r3.Plan(p2)
	if err != nil {
		t.Fatal(err)
	}
	if v3 != core.SimVersion {
		t.Fatalf("warm audit planned %q, want authoritative %q", v3, core.SimVersion)
	}
	got, err := run3(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, des2) {
		t.Fatal("warm audit did not return the authoritative cold result")
	}
	if c := r3.Counters(); c.WarmAudited != 1 {
		t.Fatalf("counters = %+v, want 1 warm audit", c)
	} else {
		t.Logf("warm audit observed error %.4f", c.WarmAuditMaxErr)
	}

	// A cached exact result always wins over a warm start.
	cache := openStore(t, t.TempDir())
	if err := cache.Put(p2.CacheKey(), core.SimVersion, p2.Canonical(), des2); err != nil {
		t.Fatal(err)
	}
	r4 := mustRouter(t, Config{Mode: ModeDES, Warm: WarmFull,
		WarmStore: openStore(t, dir), Cache: cache})
	if v, _, err := r4.Plan(p2); err != nil || v != core.SimVersion {
		t.Fatalf("warm start shadowed a cached exact result (version %q, err %v)", v, err)
	}
}

// TestWarmEligibilityExcludesBursty pins the duty-cycle exclusion: a
// bursty scenario's congestion state only trains during the on-fraction
// of each period, so a donor's end-of-run state outruns its own
// measured average — such points must neither donate checkpoints nor
// warm-start from one.
func TestWarmEligibilityExcludesBursty(t *testing.T) {
	p := core.DefaultParams(4)
	p.BurstDuty, p.BurstPeriod = 0.2, 2*sim.Millisecond
	if warmEligible(p) {
		t.Fatal("duty-cycled scenario reported warm-eligible")
	}
	steady := p
	steady.BurstDuty, steady.BurstPeriod = 0, 0
	if !warmEligible(steady) {
		t.Fatal("steady scenario reported warm-ineligible")
	}

	store := openStore(t, t.TempDir())
	r, err := New(Config{Mode: ModeDES, Warm: WarmFull, WarmStore: store})
	if err != nil {
		t.Fatal(err)
	}
	// A bursty point must never donate a checkpoint...
	r.recordCkpt(p, host.Snapshot{})
	if got := r.Counters().WarmCheckpoints; got != 0 {
		t.Fatalf("bursty point donated a checkpoint (WarmCheckpoints = %d)", got)
	}
	// ...and must never warm-start, even with a donor planted at its
	// exact coordinates.
	s := r.sigFor(p)
	s.mu.Lock()
	s.loaded = true
	s.ckpts = append(s.ckpts, persistedCkpt{Ant: p.AntagonistCores, Seed: p.Seed})
	s.mu.Unlock()
	if _, _, ok, perr := r.warmPlan(p, ""); perr != nil || ok {
		t.Fatalf("warmPlan on a bursty point: ok=%v err=%v", ok, perr)
	}
}

// stopSink counts the KindEarlyStop events a router emits.
type stopSink struct{ stops atomic.Uint64 }

func (s *stopSink) Emit(e obs.Event) {
	if e.Kind == obs.KindEarlyStop {
		s.stops.Add(1)
	}
}
func (s *stopSink) StartRun(string, int64, ...string) *obs.Run { return nil }
func (s *stopSink) RunMetrics(obs.Snapshot)                    {}

// TestEarlyStopEventPerStop: whichever route stops a run early — a
// calibration anchor, a cold DES point donating a checkpoint, a warm
// audit's cold run or a warm start — the router emits exactly one
// KindEarlyStop event on its sink per counted stop.
func TestEarlyStopEventPerStop(t *testing.T) {
	if testing.Short() {
		t.Skip("runs DES")
	}
	dir := t.TempDir()
	var fleet []core.Params
	for _, seed := range []uint64{1, 2} {
		for _, ant := range []int{0, 8, 15} {
			p := core.DefaultParams(12)
			p.AntagonistCores = ant
			p.Seed = seed
			p.Warmup, p.Measure = 4*sim.Millisecond, 8*sim.Millisecond
			fleet = append(fleet, p)
		}
	}
	// An auto router runs early-stopped calibration anchors; a DES
	// router then runs the fleet cold, donating checkpoints; a second
	// DES router on the same warm store warm-starts (and warm-audits)
	// from them.
	for i, mode := range []Mode{ModeAuto, ModeDES, ModeDES} {
		sink := &stopSink{}
		r := mustRouter(t, Config{Mode: mode, EarlyStop: true, Warm: WarmFull,
			WarmStore: openStore(t, dir), WarmAuditRate: 0.3, Sink: sink})
		if _, err := core.RunMany(r, fleet, nil); err != nil {
			t.Fatal(err)
		}
		c := r.Counters()
		if c.EarlyStopped == 0 {
			t.Fatalf("router %d (%s): no run stopped early", i, mode)
		}
		if i == 2 && (c.WarmStarted == 0 || c.WarmAudited == 0) {
			t.Fatalf("router %d: no warm start or warm audit ran: %+v", i, c)
		}
		if got := sink.stops.Load(); got != c.EarlyStopped {
			t.Errorf("router %d (%s): %d early-stop events, want one per counted stop (%d)", i, mode, got, c.EarlyStopped)
		}
	}
}

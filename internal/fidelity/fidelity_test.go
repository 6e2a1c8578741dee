package fidelity

import (
	"reflect"
	"testing"

	"hic/internal/core"
	"hic/internal/sim"
)

func mustRouter(t testing.TB, cfg Config) *Router {
	t.Helper()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// coarseGrid is the fig3 thread sweep plus the fig6 antagonist sweep at
// short windows — the property-test domain. Points use a seed outside
// the router's AnchorSeeds: anchor-coincident points (anchor seed ×
// anchor antagonist) are served the calibration's own DES result, so
// the fluid path this grid exercises is only reachable off-anchor.
func coarseGrid() []core.Params {
	warmup, measure := 4*sim.Millisecond, 6*sim.Millisecond
	var ps []core.Params
	for _, th := range []int{2, 4, 8, 12, 16} {
		p := core.DefaultParams(th)
		p.Seed = 7
		p.Warmup, p.Measure = warmup, measure
		ps = append(ps, p)
	}
	for _, ant := range []int{0, 2, 4, 6, 8, 10, 12, 15} {
		p := core.DefaultParams(12)
		p.Seed = 7
		p.AntagonistCores = ant
		p.Warmup, p.Measure = warmup, measure
		ps = append(ps, p)
	}
	return ps
}

func TestParseMode(t *testing.T) {
	for _, good := range []string{"des", "fluid", "auto"} {
		if _, err := ParseMode(good); err != nil {
			t.Errorf("ParseMode(%q): %v", good, err)
		}
	}
	for _, bad := range []string{"", "DES", "hybrid", "exact"} {
		if _, err := ParseMode(bad); err == nil {
			t.Errorf("ParseMode(%q): want error", bad)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Tol: 1.5}); err == nil {
		t.Error("Tol 1.5 accepted")
	}
	if _, err := New(Config{AuditRate: -0.1}); err == nil {
		t.Error("AuditRate -0.1 accepted")
	}
	if _, err := New(Config{AnchorAnts: []int{3, 3}}); err == nil {
		t.Error("duplicate AnchorAnts accepted")
	}
	if _, err := New(Config{AnchorAnts: []int{-1, 4}}); err == nil {
		t.Error("negative AnchorAnts accepted")
	}
	r := mustRouter(t, Config{AnchorAnts: []int{10, 0, 6}})
	if got := r.cfg.AnchorAnts; !reflect.DeepEqual(got, []int{0, 6, 10}) {
		t.Errorf("AnchorAnts not sorted: %v", got)
	}
}

// TestModeDESMatchesPlainRun asserts the ModeDES router is transparent:
// same version salt and identical Results to the executor-free path.
func TestModeDESMatchesPlainRun(t *testing.T) {
	r := mustRouter(t, Config{Mode: ModeDES})
	p := core.DefaultParams(4)
	p.Warmup, p.Measure = 2*sim.Millisecond, 3*sim.Millisecond

	version, _, err := r.Plan(p)
	if err != nil {
		t.Fatal(err)
	}
	if version != core.SimVersion {
		t.Fatalf("ModeDES version = %q, want %q", version, core.SimVersion)
	}
	got, err := core.RunOnVia(r, p, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ModeDES result differs from core.Run:\n got %+v\nwant %+v", got, want)
	}
	c := r.Counters()
	if c.DESRouted != 1 || c.FluidRouted != 0 {
		t.Errorf("counters = %+v, want exactly one DES execution", c)
	}
}

// TestAutoWithinTolerance is the headline property: across the coarse
// fig3/fig6 grid, every point ModeAuto routes to calibrated fluid is
// within the configured tolerance of full DES.
func TestAutoWithinTolerance(t *testing.T) {
	if testing.Short() {
		t.Skip("DES comparison grid is slow")
	}
	const tol = 0.05
	r := mustRouter(t, Config{Mode: ModeAuto, Tol: tol})
	fluidPts := 0
	for _, p := range coarseGrid() {
		version, run, err := r.Plan(p)
		if err != nil {
			t.Fatal(err)
		}
		des, err := core.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		if version == core.SimVersion || r.estop != nil {
			continue // DES-routed: trivially exact
		}
		got, err := run(nil)
		if err != nil {
			t.Fatal(err)
		}
		fluidPts++
		if e := observedError(got, des); e > tol {
			t.Errorf("threads=%d ant=%d: fluid-routed error %.4f > tol %.3f (fluid %.2f Gbps/%.3f%%, DES %.2f Gbps/%.3f%%)",
				p.Threads, p.AntagonistCores, e, tol,
				got.AppThroughputGbps, got.DropRatePct, des.AppThroughputGbps, des.DropRatePct)
		} else {
			t.Logf("threads=%2d ant=%2d: fluid-routed, error %.4f (fluid %.2f, DES %.2f)",
				p.Threads, p.AntagonistCores, e, got.AppThroughputGbps, des.AppThroughputGbps)
		}
	}
	t.Logf("fluid-routed %d points; counters %+v", fluidPts, r.Counters())
	if fluidPts == 0 {
		t.Error("no point on the coarse grid was fluid-routed; routing is vacuous")
	}
}

// TestAuditDeterministicAndAuthoritative: with AuditRate 1 every
// would-be-fluid point runs DES, returns the DES result, and records the
// observed error.
func TestAuditDeterministicAndAuthoritative(t *testing.T) {
	if testing.Short() {
		t.Skip("runs DES")
	}
	r := mustRouter(t, Config{Mode: ModeAuto, Tol: 0.05, AuditRate: 1})
	p := core.DefaultParams(4)
	// Off-anchor seed: anchor-coincident points return the calibration's
	// DES result directly and never reach the audit path.
	p.Seed = 7
	p.Warmup, p.Measure = 2*sim.Millisecond, 3*sim.Millisecond

	version, run, err := r.Plan(p)
	if err != nil {
		t.Fatal(err)
	}
	if version != core.SimVersion {
		// The point may legitimately be DES-routed (knee/tolerance); the
		// audit path only exists for fluid-routed points.
		t.Skipf("point not fluid-routed (version %q); audit not reachable", version)
	}
	got, err := run(nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("audited point did not return the authoritative DES result")
	}
	c := r.Counters()
	if c.Audited != 1 {
		t.Fatalf("Audited = %d, want 1", c.Audited)
	}
	if c.AuditMaxErr > r.Tol() {
		t.Errorf("observed audit error %.4f exceeds tolerance %.3f", c.AuditMaxErr, r.Tol())
	}
}

func TestAuditSamplingDeterministic(t *testing.T) {
	r := mustRouter(t, Config{Mode: ModeAuto, AuditRate: 0.3})
	hits := 0
	for i := 0; i < 200; i++ {
		p := core.DefaultParams(4)
		p.Seed = uint64(i + 1)
		canon := p.Canonical()
		a, b := r.audit(canon), r.audit(canon)
		if a != b {
			t.Fatal("audit sampling not deterministic")
		}
		if a {
			hits++
		}
	}
	if hits < 30 || hits > 90 {
		t.Errorf("audit rate 0.3 sampled %d/200; expected roughly 60", hits)
	}
}

func TestSignatureGroupsSeedsAndAnts(t *testing.T) {
	p := core.DefaultParams(8)
	q := p
	q.Seed = 99
	q.AntagonistCores = 7
	if signature(p) != signature(q) {
		t.Error("signature should ignore Seed and AntagonistCores")
	}
	q2 := p
	q2.Threads = 9
	if signature(p) == signature(q2) {
		t.Error("signature should distinguish Threads")
	}
}

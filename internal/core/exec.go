package core

import (
	"fmt"
	"sync/atomic"

	"hic/internal/fluid"
	"hic/internal/host"
	"hic/internal/runcache"
	"hic/internal/runner"
)

// Executor routes one scenario to an execution strategy. The default
// (nil, or DES{}) is full packet-level simulation; internal/fidelity
// provides a router that substitutes the calibrated fluid model where
// it is sound and adds steady-state early termination to DES points.
// RunOnVia is the one funnel that executes a plan: it keys the plan's
// result by (version, Params.Canonical) in the run cache or a
// batch-local singleflight, and RunMany fans it out over the worker
// pool.
//
// Plan must be deterministic for a given Params and must return the
// cache version salt the chosen execution's result is stored under:
// exactly SimVersion when (and only when) the result is bit-identical
// to pure DES, a distinct salt otherwise. The singleflight and run
// cache key on that salt, so approximate results can never be returned
// to (or collapsed with) a pure-DES request — see internal/runcache's
// package documentation.
type Executor interface {
	Plan(p Params) (version string, run func(*runner.Arena) (Results, error), err error)
}

// DES is the pure packet-level executor. Routing through it is
// byte-identical (same results, same cache keys) to no executor at all.
type DES struct{}

func (DES) Plan(p Params) (string, func(*runner.Arena) (Results, error), error) {
	return SimVersion, func(a *runner.Arena) (Results, error) { return RunOn(p, a) }, nil
}

// EarlyStop executes DES with the steady-state sequential stopping rule
// (host.Testbed.RunAdaptive): the measurement window ends as soon as
// per-window goodput and drop moments converge, and counters are scaled
// to the full window. Results may therefore differ from a full-window
// run, so keys are salted with the rule.
type EarlyStop struct {
	Rule host.StopRule
	// Stopped counts executions the rule actually terminated early
	// (cache hits and unconverged runs excluded).
	Stopped atomic.Uint64
}

// Version is the cache salt: pure-DES results and early-stopped results
// never share an entry, and neither do runs under different rules. The
// "estop2" revision marks the adaptive-warmup variant of the rule —
// bump the prefix whenever RunAdaptive's procedure changes.
func (e *EarlyStop) Version() string {
	return fmt.Sprintf("%s+estop2(%d,%d,%g)", SimVersion,
		int64(e.Rule.Window), e.Rule.MinWindows, e.Rule.RelTol)
}

func (e *EarlyStop) Plan(p Params) (string, func(*runner.Arena) (Results, error), error) {
	return e.Version(), func(a *runner.Arena) (Results, error) {
		s, err := Start(p, a)
		if err != nil {
			return Results{}, err
		}
		r, stopped := s.Run(e.Rule)
		if stopped {
			e.Stopped.Add(1)
		}
		return r, nil
	}, nil
}

// FluidVersion salts cache entries produced by the fluid solver (via
// fidelity routing). Bump its suffix whenever the solver's output for a
// given Params can change.
const FluidVersion = SimVersion + "+fluid-1"

// RunFluid evaluates the scenario with the analytical fluid solver
// (internal/fluid) instead of simulating it: the Params are lowered
// onto the same substrate configuration DES would use, and the solver
// returns the steady-state operating point in the Results shape plus
// the regime diagnostics the fidelity router needs. Scenarios outside
// the fluid model's domain return fluid.ErrUnsupported.
func RunFluid(p Params) (fluid.Prediction, error) {
	p.normalizeWindows()
	cfg, err := p.hostConfig()
	if err != nil {
		return fluid.Prediction{}, err
	}
	var cc fluid.Protocol
	switch p.CC {
	case CCSwift, "":
		cc = fluid.Swift
	case CCDCTCP:
		cc = fluid.DCTCP
	case CCFixed:
		cc = fluid.Fixed
	default:
		return fluid.Prediction{}, fmt.Errorf("core: unknown congestion control %q", p.CC)
	}
	return fluid.Predict(cfg, cc, p.HostTarget, p.Measure)
}

// PlanVia normalizes p's windows and asks exec for its execution plan —
// the entry point for callers that need the routing decision itself
// rather than the executed result (sweep telemetry uses it to learn
// whether a point would be fluid-routed, where span instrumentation is
// meaningless). A nil executor plans pure DES.
func PlanVia(exec Executor, p Params) (string, func(*runner.Arena) (Results, error), error) {
	p.normalizeWindows()
	if exec == nil {
		return DES{}.Plan(p)
	}
	return exec.Plan(p)
}

// RunOnVia executes one scenario through exec (nil means DES{}) on a
// caller-managed arena. It is the single funnel from a plan to a
// result: with a store, the plan's result is looked up or computed
// under runcache.Key(version, canonical) (the store's own singleflight
// collapses concurrent duplicates); store-less, the optional
// batch-local flight collapses them; with neither, the plan runs
// directly. Any of exec, cache, flight and a may be nil.
func RunOnVia(exec Executor, p Params, cache *runcache.Store, flight *runcache.Flight, a *runner.Arena) (Results, error) {
	if exec == nil {
		exec = DES{}
	}
	p.normalizeWindows()
	version, run, err := exec.Plan(p)
	if err != nil {
		return Results{}, err
	}
	if cache == nil && flight == nil {
		return run(a)
	}
	canonical := p.Canonical()
	key := runcache.Key(version, canonical)
	compute := func() (Results, error) { return run(a) }
	if cache != nil {
		return cache.GetOrCompute(key, version, canonical, compute)
	}
	return flight.Do(key, compute)
}

// RunMany executes scenarios through exec (nil means DES{}) on the
// shared worker pool and returns results in input order. Duplicate
// Params collapse to one execution — through the store when cache is
// non-nil, through a batch-local singleflight otherwise — but only
// within the same cache version (a fluid-routed point can never satisfy
// a DES-routed one). The first error aborts the batch.
func RunMany(exec Executor, ps []Params, cache *runcache.Store) ([]Results, error) {
	results := make([]Results, len(ps))
	var flight *runcache.Flight
	if cache == nil {
		flight = runcache.NewFlight(true)
	}
	err := runner.Shared().Map(len(ps), func(i int, a *runner.Arena) error {
		r, err := RunOnVia(exec, ps[i], cache, flight, a)
		if err != nil {
			return err
		}
		results[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// Replicas returns n copies of p (at least one) with derived seeds, for
// mean±CI reporting across seed noise: RunMany(nil, Replicas(p, n), c).
func Replicas(p Params, n int) []Params {
	if n < 1 {
		n = 1
	}
	ps := make([]Params, n)
	for i := range ps {
		ps[i] = p
		ps[i].Seed = p.Seed + uint64(i)*0x9e3779b97f4a7c15
	}
	return ps
}

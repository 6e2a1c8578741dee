// Package fidelity routes scenarios between the packet-level simulator
// (DES) and the analytical fluid solver (internal/fluid), calibrating
// the fluid model against DES anchors so that fluid is only used where
// its error is bounded and small.
//
// # Routing
//
// In ModeAuto each point is first solved by the fluid model (cheap,
// deterministic). The point runs under DES when any of the following
// holds, and under calibrated fluid otherwise:
//
//   - the scenario uses mechanisms outside the fluid model's domain
//     (fluid.ErrUnsupported: dynamic core scaling, victim workloads,
//     strict IOMMU, device TLB, ECN feedback, sender-host model);
//   - the operating point is near a regime knee, where discrete
//     dynamics dominate: the IOTLB working set within (0.98, 1.06)× of
//     its capacity (the Figure 3 overflow boundary), the memory-bus
//     load factor ρ within (0.99, 1.02) of saturation (the Figure 6
//     collapse), the service capacity within (0.99, 1.01)× of the CC
//     blind threshold, or offered demand within (0.998, 1.002)× of
//     capacity (the drop-onset boundary). The bands are deliberately
//     tight — outside them the per-signature calibration plus the
//     error-bound gate carry the accuracy burden;
//   - the calibrated error bound for the point exceeds routeMargin×Tol
//     (the margin keeps the observed audit error under Tol even when
//     the bound is a little optimistic).
//
// # Calibration
//
// Points are grouped by signature — their Params with Seed and
// AntagonistCores cleared — and each signature is calibrated by running
// full DES at a small grid of anchor antagonist tiers (AnchorAnts, at
// AnchorSeeds[0]). Anchors are ordinary DES runs content-addressed in
// the run cache, so they are computed once ever per cache directory and
// are shared with any DES-routed point at the same coordinates. The
// per-anchor throughput gain (DES/fluid) and drop-fraction offset
// (DES−fluid) are interpolated piecewise-linearly in the antagonist
// tier and applied to the fluid prediction. The error bound is the
// cross-validated interpolation residual (each interior anchor
// predicted from its neighbors) plus the measured seed-to-seed noise;
// a point whose tier coincides with an anchor pays only the noise term.
//
// # Audit
//
// With AuditRate > 0, a deterministic sample of the points that would
// have been fluid-routed runs full DES instead: the DES result is
// returned (and cached under the pure-DES key), and the observed
// fluid-vs-DES error — max(relative throughput error, absolute
// drop-fraction error) — is recorded in the Counters. Audit sampling
// hashes the scenario's cache key, so the same fleet audits the same
// hosts on every run.
//
// # Caching
//
// Every execution strategy salts the run-cache version differently
// (see internal/runcache): pure DES results use core.SimVersion,
// early-stopped DES results append the stopping rule, and calibrated
// fluid results append the calibration coordinates. Approximate results
// can therefore never satisfy a pure-DES lookup, and vice versa.
package fidelity

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"hic/internal/core"
	"hic/internal/fluid"
	"hic/internal/host"
	"hic/internal/obs"
	"hic/internal/runcache"
	"hic/internal/runner"
	"hic/internal/sim"
)

// Mode selects the execution strategy.
type Mode string

const (
	// ModeDES runs every point under full packet-level simulation —
	// byte-identical results and cache keys to the pre-fidelity path
	// (unless EarlyStop is set).
	ModeDES Mode = "des"
	// ModeFluid runs every supported point under the *uncalibrated*
	// fluid solver — an instant, approximate preview. Unsupported
	// scenarios fall back to DES.
	ModeFluid Mode = "fluid"
	// ModeAuto routes per point: calibrated fluid far from every knee
	// and within tolerance, DES otherwise.
	ModeAuto Mode = "auto"
)

// ParseMode validates a -fidelity flag value.
func ParseMode(s string) (Mode, error) {
	switch Mode(s) {
	case ModeDES, ModeFluid, ModeAuto:
		return Mode(s), nil
	}
	return "", fmt.Errorf("fidelity: unknown mode %q (want des, fluid, or auto)", s)
}

// Config parameterizes a Router.
type Config struct {
	// Mode is the routing strategy ("" = ModeDES).
	Mode Mode
	// Tol is ModeAuto's calibrated-error routing tolerance, as a
	// fraction (0 = 0.05): a point is fluid-routed only when its error
	// bound — max(relative throughput error, absolute drop-fraction
	// error) — is within Tol.
	Tol float64
	// AuditRate shadow-runs DES on this fraction of fluid-routed
	// points (deterministic sample; 0 = off). Audited points return
	// the DES result.
	AuditRate float64
	// EarlyStop terminates DES measurement windows at steady state
	// (host.Testbed.RunAdaptive) using StopRule (zero value =
	// host.DefaultStopRule()).
	EarlyStop bool
	StopRule  host.StopRule
	// Cache, when non-nil, memoizes anchor and audit DES runs (and is
	// normally the same store the surrounding sweep uses).
	Cache *runcache.Store
	// AnchorSeeds are the seeds calibration anchors run under; the
	// first is the primary, the second (if any) measures seed-to-seed
	// noise. Empty = {1, 2}. Fleet callers should pass seeds from
	// their own seed pool: every calibration run then coincides with a
	// real point and is served back to it exactly.
	AnchorSeeds []uint64
	// AnchorAnts is the antagonist-tier anchor grid (sorted, unique;
	// empty = {0, 4, 8, 12, 15} — denser toward the high tiers, where the
	// gain curve bends).
	AnchorAnts []int
	// Warm selects cross-run warm start ("" = WarmOff): WarmCalib
	// persists calibration state (anchors, noise tiers, calibration DES
	// runs) to WarmStore and reloads it on a signature's first touch in
	// a later process; WarmFull additionally checkpoints every cold
	// DES-routed run's converged state and warm-starts later DES points
	// from the nearest persisted donor (see warm.go).
	Warm WarmMode
	// WarmStore is the persistent warm-start store (a second
	// content-addressed runcache namespace, normally a separate
	// directory from Cache). Required when Warm != WarmOff.
	WarmStore *runcache.Store
	// WarmAuditRate cold-re-runs this deterministic fraction of
	// warm-startable points to bound warm-start error (0 = off; audited
	// points return the exact cold result).
	WarmAuditRate float64
	// WarmGuard overrides the re-convergence window a warm start
	// replays (0 = core.DefaultWarmGuard: warmup/4, floored at 1 ms).
	WarmGuard sim.Duration
	// KneeSearch enables per-signature knee localization in ModeAuto:
	// instead of forcing DES for every point inside a knee band, an
	// O(log n) bisection along the antagonist-tier axis locates the
	// actual regime boundary; band points outside a KneeRadius
	// neighborhood of the located knee are served from calibrated
	// fluid under a widened, probe-measured error bound (see knee.go).
	KneeSearch bool
	// KneeRadius is the half-width, in antagonist tiers, of the
	// forced-DES neighborhood around a located knee (0 = 1).
	KneeRadius int
	// Transfer enables cross-signature calibration transfer: a
	// signature with no calibration of its own borrows anchor gains
	// and drop offsets from the nearest calibrated hub in
	// SKU/workload space with an inflated error bound, skipping or
	// reducing its own anchor DES (see transfer.go). Inert until
	// SetRoster installs the sweep's signature roster.
	Transfer bool
	// TransferRadius caps the signature-space distance a spoke may
	// borrow across (0 = 2.5; sigDistance defines the metric).
	TransferRadius float64
	// Log, when non-nil, receives one-line routing diagnostics.
	Log io.Writer
	// Sink, when non-nil, receives structured routing and audit events;
	// nil falls back to the process-global obs sink (obs.Default), so
	// routers built before -listen wiring still report.
	Sink obs.Sink
}

// Counters is the execution accounting a Router accumulates. All
// counts are of executions actually performed: points served from the
// run cache or collapsed by singleflight are not re-counted.
type Counters struct {
	// FluidRouted counts points computed by the (calibrated) fluid
	// solver; DESRouted counts points simulated (including audits).
	FluidRouted uint64
	DESRouted   uint64
	// EarlyStopped counts DES runs the stopping rule terminated early.
	EarlyStopped uint64
	// KneeForced counts routing *decisions* (not executions) where a
	// fluid-capable point was forced to DES because its operating point
	// sat inside a knee band.
	KneeForced uint64
	// AnchorRuns counts calibration anchor simulations executed (cache
	// hits excluded); AnchorReused counts DES-routed points served
	// directly from a coinciding anchor's memoized result.
	AnchorRuns   uint64
	AnchorReused uint64
	// AnchorTransferred counts anchor tiers served by borrowing a
	// calibrated neighbor's gains instead of running DES;
	// AnchorRefined counts tiers a borrowing signature re-ran itself
	// because the measured transfer residual was too high.
	AnchorTransferred uint64
	AnchorRefined     uint64
	// KneeProbes counts bisection probe DES runs the knee search
	// requested at tiers not already materialized as anchors;
	// KneeBypassed counts fluid routings of knee-band points that the
	// located knee cleared (they would have been knee-forced to DES
	// without the search).
	KneeProbes   uint64
	KneeBypassed uint64
	// Audited counts fluid-vs-DES audit comparisons performed;
	// AuditMaxErr is the largest observed error and AuditOverTol how
	// many audited points exceeded Tol.
	Audited      uint64
	AuditOverTol uint64
	AuditMaxErr  float64
	// AnchorLoaded counts anchors and noise tiers served from the
	// persistent warm store instead of being simulated;
	// AnchorPersisted counts the ones this process computed and wrote
	// back.
	AnchorLoaded    uint64
	AnchorPersisted uint64
	// WarmCheckpoints counts converged snapshots captured and
	// persisted; WarmStarted counts DES points warm-started from a
	// persisted donor checkpoint.
	WarmCheckpoints uint64
	WarmStarted     uint64
	// WarmAudited counts warm-vs-cold audit comparisons performed;
	// WarmAuditMaxErr is the largest observed warm-start error and
	// WarmAuditOverTol how many audited warm starts exceeded Tol.
	WarmAudited      uint64
	WarmAuditOverTol uint64
	WarmAuditMaxErr  float64
}

// Router implements core.Executor. It is safe for concurrent use by
// the worker pool; one Router should be shared across a whole sweep or
// fleet so calibration is done once per signature.
type Router struct {
	cfg   Config
	tol   float64
	estop *core.EarlyStop
	// flight collapses a calibration anchor run and a DES-routed
	// execution of the same point into one simulation when no Cache is
	// configured (with a Cache, the store's own singleflight does this).
	// Calibration runs inside Plan, concurrently with other workers
	// executing plans, so the same coordinates are routinely in flight
	// on both paths at once.
	flight *runcache.Flight

	mu     sync.Mutex
	sigs   map[string]*sigCalib
	roster *roster

	// kneeProbeFn, when non-nil, substitutes for the DES probe runs the
	// knee search performs — a test seam for injecting synthetic regime
	// responses (non-monotone, knee-free) without simulating. Probe
	// residual measurement is skipped under the hook.
	kneeProbeFn func(core.Params) (core.Results, error)

	fluidRouted       atomic.Uint64
	desRouted         atomic.Uint64
	kneeForced        atomic.Uint64
	anchorRuns        atomic.Uint64
	anchorReused      atomic.Uint64
	anchorTransferred atomic.Uint64
	anchorRefined     atomic.Uint64
	kneeProbes        atomic.Uint64
	kneeBypassed      atomic.Uint64
	audited           atomic.Uint64
	auditOverTol      atomic.Uint64
	auditMaxErr       atomicFloatMax

	anchorLoaded     atomic.Uint64
	anchorPersisted  atomic.Uint64
	warmCheckpoints  atomic.Uint64
	warmStarted      atomic.Uint64
	warmAudited      atomic.Uint64
	warmAuditOverTol atomic.Uint64
	warmAuditMaxErr  atomicFloatMax
}

// New validates cfg and builds a Router.
func New(cfg Config) (*Router, error) {
	if cfg.Mode == "" {
		cfg.Mode = ModeDES
	}
	if _, err := ParseMode(string(cfg.Mode)); err != nil {
		return nil, err
	}
	if cfg.Tol < 0 || cfg.Tol >= 1 {
		return nil, fmt.Errorf("fidelity: Tol %v outside [0, 1)", cfg.Tol)
	}
	if cfg.AuditRate < 0 || cfg.AuditRate > 1 {
		return nil, fmt.Errorf("fidelity: AuditRate %v outside [0, 1]", cfg.AuditRate)
	}
	if cfg.Warm == "" {
		cfg.Warm = WarmOff
	}
	if _, err := ParseWarmMode(string(cfg.Warm)); err != nil {
		return nil, err
	}
	if cfg.Warm != WarmOff && cfg.WarmStore == nil {
		return nil, fmt.Errorf("fidelity: Warm %q requires a WarmStore", cfg.Warm)
	}
	if cfg.WarmAuditRate < 0 || cfg.WarmAuditRate > 1 {
		return nil, fmt.Errorf("fidelity: WarmAuditRate %v outside [0, 1]", cfg.WarmAuditRate)
	}
	if cfg.KneeRadius < 0 {
		return nil, fmt.Errorf("fidelity: KneeRadius %d negative", cfg.KneeRadius)
	}
	if cfg.TransferRadius < 0 {
		return nil, fmt.Errorf("fidelity: TransferRadius %v negative", cfg.TransferRadius)
	}
	if len(cfg.AnchorSeeds) == 0 {
		cfg.AnchorSeeds = []uint64{1, 2}
	}
	if len(cfg.AnchorAnts) == 0 {
		cfg.AnchorAnts = []int{0, 4, 8, 12, 15}
	}
	ants := append([]int(nil), cfg.AnchorAnts...)
	sort.Ints(ants)
	for i, a := range ants {
		if a < 0 || (i > 0 && a == ants[i-1]) {
			return nil, fmt.Errorf("fidelity: AnchorAnts must be unique and non-negative")
		}
	}
	cfg.AnchorAnts = ants
	// Memoizing: an anchor computed during calibration must still
	// satisfy a DES-routed execution of the same point that starts
	// after the anchor completed, not just concurrent ones.
	r := &Router{cfg: cfg, tol: cfg.Tol, sigs: make(map[string]*sigCalib),
		flight: runcache.NewFlight(true)}
	if r.tol == 0 {
		r.tol = 0.05
	}
	if cfg.EarlyStop {
		rule := cfg.StopRule
		if rule.Window == 0 && rule.RelTol == 0 {
			rule = host.DefaultStopRule()
		}
		r.estop = &core.EarlyStop{Rule: rule}
	}
	return r, nil
}

// Counters snapshots the accounting so far.
func (r *Router) Counters() Counters {
	c := Counters{
		FluidRouted:       r.fluidRouted.Load(),
		DESRouted:         r.desRouted.Load(),
		KneeForced:        r.kneeForced.Load(),
		AnchorRuns:        r.anchorRuns.Load(),
		AnchorReused:      r.anchorReused.Load(),
		AnchorTransferred: r.anchorTransferred.Load(),
		AnchorRefined:     r.anchorRefined.Load(),
		KneeProbes:        r.kneeProbes.Load(),
		KneeBypassed:      r.kneeBypassed.Load(),
		Audited:           r.audited.Load(),
		AuditOverTol:      r.auditOverTol.Load(),
		AuditMaxErr:       r.auditMaxErr.Load(),

		AnchorLoaded:     r.anchorLoaded.Load(),
		AnchorPersisted:  r.anchorPersisted.Load(),
		WarmCheckpoints:  r.warmCheckpoints.Load(),
		WarmStarted:      r.warmStarted.Load(),
		WarmAudited:      r.warmAudited.Load(),
		WarmAuditOverTol: r.warmAuditOverTol.Load(),
		WarmAuditMaxErr:  r.warmAuditMaxErr.Load(),
	}
	if r.estop != nil {
		c.EarlyStopped = r.estop.Stopped.Load()
	}
	return c
}

// Tol reports the effective routing/audit tolerance.
func (r *Router) Tol() float64 { return r.tol }

// MetricsInto implements the control plane's MetricSource interface:
// live routing counters under the hic_fidelity_ prefix.
func (r *Router) MetricsInto(emit func(name, typ string, v float64)) {
	c := r.Counters()
	emit("hic_fidelity_fluid_routed_total", "counter", float64(c.FluidRouted))
	emit("hic_fidelity_des_routed_total", "counter", float64(c.DESRouted))
	emit("hic_fidelity_early_stopped_total", "counter", float64(c.EarlyStopped))
	emit("hic_fidelity_knee_forced_total", "counter", float64(c.KneeForced))
	emit("hic_fidelity_anchor_runs_total", "counter", float64(c.AnchorRuns))
	emit("hic_fidelity_anchor_reused_total", "counter", float64(c.AnchorReused))
	emit("hic_fidelity_anchor_transferred_total", "counter", float64(c.AnchorTransferred))
	emit("hic_fidelity_anchor_refined_total", "counter", float64(c.AnchorRefined))
	emit("hic_fidelity_knee_probes_total", "counter", float64(c.KneeProbes))
	emit("hic_fidelity_knee_bypassed_total", "counter", float64(c.KneeBypassed))
	emit("hic_fidelity_audited_total", "counter", float64(c.Audited))
	emit("hic_fidelity_audit_over_tol_total", "counter", float64(c.AuditOverTol))
	emit("hic_fidelity_audit_max_err", "gauge", c.AuditMaxErr)
	emit("hic_fidelity_tol", "gauge", r.tol)
	emit("hic_fidelity_anchor_loaded_total", "counter", float64(c.AnchorLoaded))
	emit("hic_fidelity_anchor_persisted_total", "counter", float64(c.AnchorPersisted))
	emit("hic_fidelity_warm_checkpoints_total", "counter", float64(c.WarmCheckpoints))
	emit("hic_fidelity_warm_started_total", "counter", float64(c.WarmStarted))
	emit("hic_fidelity_warm_audited_total", "counter", float64(c.WarmAudited))
	emit("hic_fidelity_warm_audit_over_tol_total", "counter", float64(c.WarmAuditOverTol))
	emit("hic_fidelity_warm_audit_max_err", "gauge", c.WarmAuditMaxErr)
}

// WarmStore exposes the persistent warm-start store (nil when warm
// start is off) so CLIs can register it as a metrics source and prune
// it alongside the result cache.
func (r *Router) WarmStore() *runcache.Store { return r.cfg.WarmStore }

// emit delivers a structured event to the configured sink, falling
// back to the process-global one; no sink installed costs a nil check.
func (r *Router) emit(e obs.Event) {
	s := r.cfg.Sink
	if s == nil {
		s = obs.Default()
	}
	if s != nil {
		s.Emit(e)
	}
}

// emitRoute records one routing decision in the event log.
func (r *Router) emitRoute(p core.Params, route, why string) {
	s := r.cfg.Sink
	if s == nil {
		s = obs.Default()
	}
	if s == nil {
		return
	}
	s.Emit(obs.Event{
		Kind:  obs.KindFidelityRoute,
		Key:   sigLabel(p),
		Point: p.AntagonistCores,
		Route: route,
		Why:   why,
	})
}

// Plan implements core.Executor.
func (r *Router) Plan(p core.Params) (string, func(*runner.Arena) (core.Results, error), error) {
	switch r.cfg.Mode {
	case ModeFluid:
		pred, err := core.RunFluid(p)
		if err != nil {
			if isUnsupported(err) {
				return r.desPlan(p, "unsupported")
			}
			return "", nil, err
		}
		r.emitRoute(p, "fluid", "raw")
		return core.FluidVersion + "+raw", func(*runner.Arena) (core.Results, error) {
			r.fluidRouted.Add(1)
			return pred.Results, nil
		}, nil
	case ModeAuto:
		return r.autoPlan(p)
	default:
		return r.desPlan(p, "")
	}
}

// desPlan routes to DES, with early stopping when configured. The run
// executes under the router's singleflight so it can collapse with a
// calibration anchor at the same coordinates racing on another worker.
// Under WarmFull, a persisted donor checkpoint diverts the point to a
// warm start first; a point that runs cold donates its own converged
// snapshot for future processes.
func (r *Router) desPlan(p core.Params, why string) (string, func(*runner.Arena) (core.Results, error), error) {
	if version, run, ok, err := r.warmPlan(p, why); ok || err != nil {
		return version, run, err
	}
	r.logf("fidelity: DES %s ant=%d%s", sigLabel(p), p.AntagonistCores, reason(why))
	r.emitRoute(p, "des", why)
	version := r.desVersion()
	capture := r.warmFullOn()
	run := func(a *runner.Arena) (core.Results, error) { return r.runCold(p, a, capture) }
	if r.cfg.Cache != nil {
		// The outer funnel resolves through the cache (whose store has
		// its own singleflight on the same key), so no extra layer here.
		return version, func(a *runner.Arena) (core.Results, error) {
			r.desRouted.Add(1)
			return run(a)
		}, nil
	}
	key := runcache.Key(version, p.Canonical())
	return version, func(a *runner.Arena) (core.Results, error) {
		return r.flight.Do(key, func() (core.Results, error) {
			r.desRouted.Add(1)
			return run(a)
		})
	}, nil
}

// desRule is the stopping rule every DES execution of the router runs
// under: the EarlyStop rule when configured, else the zero rule (full
// windows).
func (r *Router) desRule() host.StopRule {
	if r.estop == nil {
		return host.StopRule{}
	}
	return r.estop.Rule
}

// finish runs a started session under the router's DES rule. It is the
// router's one early-stop accounting site: whichever route ran the
// session (DES, anchor, knee probe, warm start), a stop bumps the
// EarlyStop counter and emits exactly one KindEarlyStop event.
func (r *Router) finish(s *core.Session, p core.Params) core.Results {
	res, stopped := s.Run(r.desRule())
	if stopped {
		r.estop.Stopped.Add(1)
		r.emit(obs.Event{Kind: obs.KindEarlyStop, Key: p.Canonical()})
	}
	return res
}

// runCold executes cold DES for p under the router's DES rule, donating
// the converged snapshot to the warm store when capture is set (an
// early-stopped run is a valid donor: termination requires the
// convergence test to pass).
func (r *Router) runCold(p core.Params, a *runner.Arena, capture bool) (core.Results, error) {
	s, err := core.Start(p, a)
	if err != nil {
		return core.Results{}, err
	}
	res := r.finish(&s, p)
	if capture {
		r.recordCkpt(p, s.Testbed.Snapshot())
	}
	return res, nil
}

// desPlanAuto is desPlan, except a point that coincides exactly with an
// already-materialized calibration anchor reuses the anchor's DES result
// (same Params, same seed, same execution plan — it IS that run)
// instead of re-simulating. The version salt matches how the anchor was
// executed: pure DES, or the early-stopped variant when EarlyStop is on.
func (r *Router) desPlanAuto(p core.Params, why string) (string, func(*runner.Arena) (core.Results, error), error) {
	if des, hit := r.memoizedAnchor(p); hit {
		r.logf("fidelity: anchor-reuse %s ant=%d%s", sigLabel(p), p.AntagonistCores, reason(why))
		r.emitRoute(p, "anchor-reuse", why)
		version := core.SimVersion
		if r.estop != nil {
			version = r.estop.Version()
		}
		return version, func(*runner.Arena) (core.Results, error) {
			r.anchorReused.Add(1)
			return des, nil
		}, nil
	}
	return r.desPlan(p, why)
}

// Knee bands: inside these the discrete dynamics DES captures dominate
// and the point is never fluid-routed, regardless of its calibrated
// error bound. They are deliberately tight — outside them the
// per-signature anchor calibration (whose grid spans the antagonist
// tier, the axis that sweeps ρ) plus the error-bound gate carry the
// accuracy burden, and the audit mode verifies it empirically.
const (
	tlbKneeLo, tlbKneeHi     = 0.98, 1.06   // working set / IOTLB capacity
	rhoKneeLo, rhoKneeHi     = 0.99, 1.02   // memory-bus load factor
	blindKneeLo, blindKneeHi = 0.99, 1.01   // capacity / CC blind threshold
	loadKneeLo, loadKneeHi   = 0.998, 1.002 // demand / capacity (drop onset)
)

// routeMargin gates routing at a fraction of the audit tolerance: the
// error bound is an estimate (cross-validated residual + measured seed
// noise), so fluid-routing only points bounded comfortably inside Tol
// keeps the *observed* audit error under Tol even when the bound is a
// little optimistic. 0.8 is set from audit evidence on the 10k-host
// fleet bench: worst observed audit error tracks the bound cutoff
// closely (0.069 observed at a 0.7 gate with tol 0.10), so a 20%
// margin still absorbs bound misestimation.
const routeMargin = 0.8

// nearKnee reports whether the fluid operating point sits in any knee
// band, with the band that matched (for logging).
func nearKnee(pred fluid.Prediction) (string, bool) {
	if pred.TLBEntries > 0 {
		if r := float64(pred.WorkingSet) / float64(pred.TLBEntries); r > tlbKneeLo && r < tlbKneeHi {
			return fmt.Sprintf("iotlb ws/cap=%.2f", r), true
		}
	}
	if pred.Rho > rhoKneeLo && pred.Rho < rhoKneeHi {
		return fmt.Sprintf("mem rho=%.2f", pred.Rho), true
	}
	if pred.CapacityGbps > 0 && pred.BlindGbps > 0 && pred.DemandGbps > loadKneeLo*pred.CapacityGbps {
		if r := pred.CapacityGbps / pred.BlindGbps; r > blindKneeLo && r < blindKneeHi {
			return fmt.Sprintf("blind cap/thresh=%.2f", r), true
		}
	}
	if pred.CapacityGbps > 0 {
		if r := pred.DemandGbps / pred.CapacityGbps; r > loadKneeLo && r < loadKneeHi {
			return fmt.Sprintf("drop-onset demand/cap=%.2f", r), true
		}
	}
	return "", false
}

func (r *Router) autoPlan(p core.Params) (string, func(*runner.Arena) (core.Results, error), error) {
	pred, err := core.RunFluid(p)
	if err != nil {
		if isUnsupported(err) {
			return r.desPlan(p, "unsupported")
		}
		return "", nil, err
	}
	// A point that coincides exactly with a calibration run (anchor or
	// noise measurement) is served that run's DES result outright: the
	// exact answer is (or is about to be) in hand, so fluid-routing it
	// would trade accuracy for nothing. Coincidence is structural —
	// anchor grid × anchor seeds, via anchorCoincident, narrowed by
	// coincidentEligible to the tiers a transferring signature actually
	// runs itself — not "is the memo populated yet", so the same point
	// routes the same way whether its signature's calibration already
	// happened (earlier in this run, or resident from a previous query
	// in a serving process) or is materialized right here.
	if elig, cerr := r.coincidentEligible(p); cerr != nil {
		return "", nil, fmt.Errorf("fidelity: calibrating %s: %w", sigLabel(p), cerr)
	} else if elig {
		des, cerr := r.ensureCoincidentDES(p)
		if cerr != nil {
			return "", nil, fmt.Errorf("fidelity: calibrating %s: %w", sigLabel(p), cerr)
		}
		r.logf("fidelity: anchor-reuse %s ant=%d", sigLabel(p), p.AntagonistCores)
		r.emitRoute(p, "anchor-reuse", "")
		version := core.SimVersion
		if r.estop != nil {
			version = r.estop.Version()
		}
		return version, func(*runner.Arena) (core.Results, error) {
			r.anchorReused.Add(1)
			return des, nil
		}, nil
	}
	if why, near := nearKnee(pred); near {
		if version, run, handled, kerr := r.kneePlan(p, pred, why); kerr != nil {
			return "", nil, kerr
		} else if handled {
			return version, run, nil
		}
		r.kneeForced.Add(1)
		return r.desPlanAuto(p, why)
	}
	adj, errBound, calV, ok, err := r.calibrate(p, pred)
	if err != nil {
		return "", nil, fmt.Errorf("fidelity: calibrating %s: %w", sigLabel(p), err)
	}
	if !ok {
		return r.desPlanAuto(p, "uncalibratable")
	}
	if errBound > routeMargin*r.tol {
		return r.desPlanAuto(p, fmt.Sprintf("errBound %.3f > %.2f*tol %.3f", errBound, routeMargin, r.tol))
	}
	return r.fluidPlan(p, adj, calV)
}

// fluidPlan serves a point that passed every routing gate from the
// calibrated fluid prediction adj, cache-salted with the calibration
// version calV — except for the deterministic audit sample, which runs
// (and caches) authoritative DES and only compares the prediction.
func (r *Router) fluidPlan(p core.Params, adj core.Results, calV string) (string, func(*runner.Arena) (core.Results, error), error) {
	canonical := p.Canonical()
	if r.audit(canonical) {
		// Audited points run (and cache) authoritative full-window DES
		// under the pure-DES key; the fluid prediction is only compared.
		r.emitRoute(p, "audit", "")
		return core.SimVersion, func(a *runner.Arena) (core.Results, error) {
			des, err := core.RunOn(p, a)
			if err != nil {
				return core.Results{}, err
			}
			e := observedError(adj, des)
			r.audited.Add(1)
			r.desRouted.Add(1)
			r.auditMaxErr.Max(e)
			over := e > r.tol
			if over {
				r.auditOverTol.Add(1)
				r.logf("fidelity: AUDIT OVER TOL %s ant=%d err=%.3f (fluid %.2f Gbps/%.3f%% vs DES %.2f Gbps/%.3f%%)",
					sigLabel(p), p.AntagonistCores, e,
					adj.AppThroughputGbps, adj.DropRatePct, des.AppThroughputGbps, des.DropRatePct)
			}
			// The control-plane sink raises an immediate warning for an
			// over-tolerance audit result — the operator does not wait for
			// the run-end summary to learn the fidelity budget is blown.
			r.emit(obs.Event{
				Kind:    obs.KindAuditResult,
				Key:     sigLabel(p),
				Point:   p.AntagonistCores,
				Value:   e,
				Tol:     r.tol,
				OverTol: over,
			})
			return des, nil
		}, nil
	}

	r.emitRoute(p, "fluid", "")
	return calV, func(*runner.Arena) (core.Results, error) {
		r.fluidRouted.Add(1)
		return adj, nil
	}, nil
}

// ownCalVersion is the cache salt for results calibrated from the
// signature's own anchor grid (transfer.go salts borrowed curves by
// donor and refined-tier set instead).
func (r *Router) ownCalVersion() string {
	return fmt.Sprintf("%s+cal(%v@%s)", core.FluidVersion, r.cfg.AnchorAnts, seedsLabel(r.cfg.AnchorSeeds))
}

// observedError is the audit metric: the larger of the relative
// throughput error (floored at 1 Gbps so idle hosts don't divide by
// zero) and the absolute drop-fraction error.
func observedError(fluidRes, des core.Results) float64 {
	tErr := math.Abs(fluidRes.AppThroughputGbps-des.AppThroughputGbps) /
		math.Max(des.AppThroughputGbps, 1)
	dErr := math.Abs(fluidRes.DropRatePct-des.DropRatePct) / 100
	return math.Max(tErr, dErr)
}

// audit deterministically samples by hashing the canonical encoding:
// the same scenario audits the same way in every process.
func (r *Router) audit(canonical string) bool {
	if r.cfg.AuditRate <= 0 {
		return false
	}
	key := runcache.Key("fidelity-audit-1", canonical)
	v, err := strconv.ParseUint(key[:15], 16, 64)
	if err != nil {
		return false
	}
	return float64(v)/float64(uint64(1)<<60) < r.cfg.AuditRate
}

func isUnsupported(err error) bool {
	_, ok := err.(fluid.ErrUnsupported)
	return ok
}

func (r *Router) logf(format string, args ...any) {
	if r.cfg.Log != nil {
		fmt.Fprintf(r.cfg.Log, format+"\n", args...)
	}
}

func reason(why string) string {
	if why == "" {
		return ""
	}
	return " (" + why + ")"
}

func sigLabel(p core.Params) string {
	return fmt.Sprintf("cc=%s threads=%d senders=%d offered=%g duty=%g",
		p.CC, p.Threads, p.Senders, p.OfferedGbps, p.BurstDuty)
}

func seedsLabel(seeds []uint64) string {
	parts := make([]string, len(seeds))
	for i, s := range seeds {
		parts[i] = strconv.FormatUint(s, 10)
	}
	return strings.Join(parts, ",")
}

// atomicFloatMax is a lock-free running maximum.
type atomicFloatMax struct{ bits atomic.Uint64 }

func (m *atomicFloatMax) Max(v float64) {
	for {
		old := m.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if m.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func (m *atomicFloatMax) Load() float64 { return math.Float64frombits(m.bits.Load()) }

package core

import "hic/internal/sim"

// Warm-start guard windows: the steady-state checkpointing half of the
// cross-run warm-start layer. A converged run's slow state (CC windows,
// IOTLB working set, memory demand EWMA — see host.Snapshot) is
// captured with Session.Testbed.Snapshot after a cold Session.Run and
// persisted by internal/fidelity; a later run of a nearby scenario in
// the same calibration signature calls Session.Prime with that snapshot
// and a guard window, replaying only the short re-convergence guard
// instead of the full warmup ramp.
//
// Warm-started results are approximate and must never be stored under
// the pure-DES cache salt; internal/fidelity derives a distinct
// "+warm(...)" version for them and audits a deterministic fraction
// against cold DES.

// DefaultWarmGuard returns the guard window for a warm start of p: a
// quarter of the configured warmup, floored at one millisecond (and
// never longer than the warmup it replaces). Long enough for the NIC
// buffer, PCIe credits, and pacing to re-establish around the primed
// slow state; short enough to keep the ramp saving that motivates warm
// starts.
func DefaultWarmGuard(p Params) sim.Duration {
	p.normalizeWindows()
	g := p.Warmup / 4
	if g < sim.Millisecond {
		g = sim.Millisecond
	}
	if g > p.Warmup {
		g = p.Warmup
	}
	return AlignWarmGuard(p, g)
}

// AlignWarmGuard rounds guard up to a whole number of burst periods for
// duty-cycled workloads, floored at one full period. The burst gate
// fires on period boundaries from t=0 and the first period runs
// ungated, so a sub-periodic guard starts measurement mid-period and
// folds part of that continuous-transmission phase into a duty-cycled
// window — inflating throughput 2× and more. Non-bursty configs pass
// through unchanged.
func AlignWarmGuard(p Params, g sim.Duration) sim.Duration {
	p.normalizeWindows()
	if p.BurstDuty <= 0 || p.BurstPeriod <= 0 {
		return g
	}
	periods := (g + p.BurstPeriod - 1) / p.BurstPeriod
	if periods < 1 {
		periods = 1
	}
	return periods * p.BurstPeriod
}

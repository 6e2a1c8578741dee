package fidelity

import (
	"fmt"
	"strconv"

	"hic/internal/core"
	"hic/internal/host"
	"hic/internal/obs"
	"hic/internal/runcache"
	"hic/internal/runner"
	"hic/internal/sim"
)

// Steady-state checkpointing: the second layer of cross-run warm start.
// In WarmFull mode every cold DES-routed point donates its converged
// snapshot (host.Snapshot — CC windows, IOTLB working set, memory
// demand EWMA, engine RNG) to a per-signature checkpoint blob in the
// warm store. A later run of a DES-routed point in the same signature
// warm-starts from the nearest persisted donor: a fresh testbed is
// primed with the snapshot and replays only a short re-convergence
// guard window instead of the full warmup ramp.
//
// Correctness model, mirroring fluid routing:
//
//   - warm-started results are approximate, so they are cached under a
//     distinct "+warm(donor,guard)" salt that embeds the donor
//     coordinates and the guard window — a pure-DES lookup can never be
//     satisfied by one;
//   - donors are only ever taken from the set loaded from disk at the
//     signature's first touch, never from checkpoints captured in this
//     process — so the first (cold) run is fully exact and the second
//     (warm) run routes deterministically regardless of scheduling;
//   - a deterministic WarmAuditRate fraction of warm-startable points
//     re-runs cold DES instead: the exact result is returned (and
//     cached under the pure-DES salt), the warm run is executed as a
//     shadow, and the observed warm-vs-cold error feeds
//     WarmAudited/WarmAuditOverTol/WarmAuditMaxErr;
//   - when the surrounding sweep's result cache already holds the exact
//     DES entry for a point, the warm path steps aside and lets the
//     cache serve it — an approximation never shadows an exact result
//     that is already paid for.

// WarmMode selects cross-run warm-start behavior.
type WarmMode string

const (
	// WarmOff disables the warm store entirely; every code path is
	// byte-identical to the pre-warm-start tree.
	WarmOff WarmMode = "off"
	// WarmCalib persists and reloads per-signature calibration state
	// (anchors, noise tiers, calibration DES runs).
	WarmCalib WarmMode = "calib"
	// WarmFull is WarmCalib plus steady-state DES checkpointing.
	WarmFull WarmMode = "full"
)

// ParseWarmMode validates a -warm flag value.
func ParseWarmMode(s string) (WarmMode, error) {
	switch WarmMode(s) {
	case WarmOff, WarmCalib, WarmFull:
		return WarmMode(s), nil
	}
	return "", fmt.Errorf("fidelity: unknown warm mode %q (want off, calib, or full)", s)
}

// persistedCkpts is the per-signature checkpoint blob: every converged
// donor captured for the signature, in deterministic (ant, seed) order.
type persistedCkpts struct {
	Ckpts []persistedCkpt `json:"ckpts"`
}

type persistedCkpt struct {
	Ant  int           `json:"ant"`
	Seed uint64        `json:"seed"`
	Snap host.Snapshot `json:"snap"`
}

// warmFullOn reports whether checkpointed warm starts are active.
func (r *Router) warmFullOn() bool {
	return r.cfg.Warm == WarmFull && r.cfg.WarmStore != nil
}

// ckptVersion salts checkpoint blobs: snapshot content depends only on
// how the donor DES ran.
func (r *Router) ckptVersion() string {
	return "hic-ckpt-1|" + r.desVersion()
}

// warmGuard is the re-convergence window a warm start replays in place
// of the full warmup.
func (r *Router) warmGuard(p core.Params) sim.Duration {
	if r.cfg.WarmGuard > 0 {
		// An explicit guard still aligns to whole burst periods: a
		// sub-periodic guard on a duty-cycled scenario measures part
		// of the ungated first period and is wrong, not just short.
		return core.AlignWarmGuard(p, r.cfg.WarmGuard)
	}
	return core.DefaultWarmGuard(p)
}

// warmAudit deterministically samples warm-startable points for a cold
// re-run, hashing the canonical encoding under its own salt exactly
// like the fluid audit — the same fleet audits the same hosts in every
// process.
func (r *Router) warmAudit(canonical string) bool {
	if r.cfg.WarmAuditRate <= 0 {
		return false
	}
	key := runcache.Key("warm-audit-1", canonical)
	v, err := strconv.ParseUint(key[:15], 16, 64)
	if err != nil {
		return false
	}
	return float64(v)/float64(uint64(1)<<60) < r.cfg.WarmAuditRate
}

// nearestDonor picks the persisted checkpoint closest to p on the
// antagonist-tier axis (caller holds s.mu, loadSig done). Ties prefer
// the same seed, then the lower tier, then the lower seed — a total
// order, so every process picks the same donor and the warm salt is
// stable across runs.
func (r *Router) nearestDonor(s *sigCalib, p core.Params) (persistedCkpt, bool) {
	dist := func(c persistedCkpt) int {
		d := c.Ant - p.AntagonistCores
		if d < 0 {
			d = -d
		}
		return d
	}
	best := -1
	for i, c := range s.ckpts {
		if best < 0 {
			best = i
			continue
		}
		b := s.ckpts[best]
		switch {
		case dist(c) != dist(b):
			if dist(c) < dist(b) {
				best = i
			}
		case (c.Seed == p.Seed) != (b.Seed == p.Seed):
			if c.Seed == p.Seed {
				best = i
			}
		case c.Ant != b.Ant:
			if c.Ant < b.Ant {
				best = i
			}
		case c.Seed < b.Seed:
			best = i
		}
	}
	if best < 0 {
		return persistedCkpt{}, false
	}
	return s.ckpts[best], true
}

// recordCkpt captures a cold run's converged snapshot into the
// signature's checkpoint blob. Checkpoints captured here are persisted
// for *future* processes but never used as donors in this one (see the
// package comment on determinism). Duplicate coordinates are skipped —
// the first converged capture wins.
// warmEligible excludes duty-cycled scenarios from warm starting.
// Their congestion state only trains during the on-fraction of each
// burst period, so convergence is slow in proportion — slow enough that
// a donor's end-of-run state measurably outruns what the donor's own
// measurement window averaged. Resuming from it then reports the
// drifted state (observed: +20-40% throughput on bursty swift incast
// even when a scenario resumes from its own checkpoint), which no guard
// window short of the full warmup repairs. These points still early-
// stop and still benefit from persisted calibration; they just always
// ramp cold.
func warmEligible(p core.Params) bool {
	return p.BurstDuty == 0
}

func (r *Router) recordCkpt(p core.Params, snap host.Snapshot) {
	if !warmEligible(p) {
		// Never a donor either: nothing will resume from it, and the
		// blob would only bloat the per-signature checkpoint set.
		return
	}
	s := r.sigFor(p)
	s.mu.Lock()
	defer s.mu.Unlock()
	r.loadSig(s, p)
	coord := anchorCoord{p.AntagonistCores, p.Seed}
	if s.ckptCoords[coord] {
		return
	}
	s.ckptCoords[coord] = true
	s.ckptNew = append(s.ckptNew, persistedCkpt{Ant: p.AntagonistCores, Seed: p.Seed, Snap: snap})

	all := persistedCkpts{Ckpts: make([]persistedCkpt, 0, len(s.ckpts)+len(s.ckptNew))}
	all.Ckpts = append(all.Ckpts, s.ckpts...)
	all.Ckpts = append(all.Ckpts, s.ckptNew...)
	sortCkpts(all.Ckpts)
	sig := signature(p)
	v := r.ckptVersion()
	if err := r.cfg.WarmStore.PutBlob(runcache.Key(v, sig), v, sig, all); err != nil {
		r.logf("fidelity: persisting checkpoint: %v", err)
		return
	}
	r.warmCheckpoints.Add(1)
}

func sortCkpts(cs []persistedCkpt) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && (cs[j].Ant < cs[j-1].Ant ||
			(cs[j].Ant == cs[j-1].Ant && cs[j].Seed < cs[j-1].Seed)); j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}

// warmPlan attempts to warm-start a DES-routed point. ok=false means no
// usable donor (or warm start inactive): the caller runs cold and
// donates a checkpoint.
func (r *Router) warmPlan(p core.Params, why string) (version string, run func(*runner.Arena) (core.Results, error), ok bool, err error) {
	if !r.warmFullOn() || !warmEligible(p) {
		return "", nil, false, nil
	}
	s := r.sigFor(p)
	s.mu.Lock()
	r.loadSig(s, p)
	donor, found := r.nearestDonor(s, p)
	s.mu.Unlock()
	if !found {
		return "", nil, false, nil
	}
	canonical := p.Canonical()
	desV := r.desVersion()
	if r.cfg.Cache != nil && r.cfg.Cache.Contains(runcache.Key(desV, canonical), desV, canonical) {
		// The exact result is already on disk; never shadow it with an
		// approximation.
		return "", nil, false, nil
	}
	guard := r.warmGuard(p)

	if r.warmAudit(canonical) {
		// Warm audits run (and cache) authoritative cold DES under the
		// pure-DES salt; the warm start is executed as a shadow and only
		// compared.
		r.logf("fidelity: warm-audit %s ant=%d seed=%d (donor %d:%d)", sigLabel(p), p.AntagonistCores, p.Seed, donor.Ant, donor.Seed)
		r.emitRoute(p, "warm-audit", why)
		audit := func(a *runner.Arena) (core.Results, error) {
			r.desRouted.Add(1)
			des, err := r.runCold(p, a, true)
			if err != nil {
				return core.Results{}, err
			}
			s, werr := core.Start(p, a)
			if werr != nil {
				r.logf("fidelity: warm-audit shadow failed: %v", werr)
				return des, nil
			}
			s.Prime(donor.Snap, guard)
			warm, _ := s.Run(host.StopRule{})
			e := observedError(warm, des)
			r.warmAudited.Add(1)
			r.warmAuditMaxErr.Max(e)
			over := e > r.tol
			if over {
				r.warmAuditOverTol.Add(1)
				r.logf("fidelity: WARM AUDIT OVER TOL %s ant=%d err=%.3f (warm %.2f Gbps/%.3f%% vs cold %.2f Gbps/%.3f%%)",
					sigLabel(p), p.AntagonistCores, e,
					warm.AppThroughputGbps, warm.DropRatePct, des.AppThroughputGbps, des.DropRatePct)
			}
			r.emit(obs.Event{
				Kind:    obs.KindAuditResult,
				Key:     sigLabel(p),
				Point:   p.AntagonistCores,
				Route:   "warm",
				Value:   e,
				Tol:     r.tol,
				OverTol: over,
			})
			return des, nil
		}
		return desV, r.funnel(desV, canonical, audit), true, nil
	}

	r.logf("fidelity: warm-start %s ant=%d seed=%d from donor %d:%d (guard %s)%s",
		sigLabel(p), p.AntagonistCores, p.Seed, donor.Ant, donor.Seed, guard, reason(why))
	r.emitRoute(p, "warm", why)
	version = fmt.Sprintf("%s+warm(d=%d:%d@%d,g=%s)", desV, donor.Ant, donor.Seed, int64(donor.Snap.Engine.Now), guard)
	warmRun := func(a *runner.Arena) (core.Results, error) {
		r.desRouted.Add(1)
		r.warmStarted.Add(1)
		r.emit(obs.Event{
			Kind:  obs.KindWarmStart,
			Key:   sigLabel(p),
			Point: p.AntagonistCores,
			Why:   fmt.Sprintf("donor %d:%d", donor.Ant, donor.Seed),
		})
		s, err := core.Start(p, a)
		if err != nil {
			return core.Results{}, err
		}
		s.Prime(donor.Snap, guard)
		return r.finish(&s, p), nil
	}
	return version, r.funnel(version, canonical, warmRun), true, nil
}

// funnel wraps run in the router's singleflight when no result cache is
// configured (with one, the outer core.RunOnVia funnel already collapses
// through the store).
func (r *Router) funnel(version, canonical string, run func(*runner.Arena) (core.Results, error)) func(*runner.Arena) (core.Results, error) {
	if r.cfg.Cache != nil {
		return run
	}
	key := runcache.Key(version, canonical)
	return func(a *runner.Arena) (core.Results, error) {
		return r.flight.Do(key, func() (core.Results, error) { return run(a) })
	}
}

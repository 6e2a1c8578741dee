package fidelity

import (
	"math"
	"sync"

	"hic/internal/core"
	"hic/internal/fluid"
	"hic/internal/runcache"
)

// errFloor is the irreducible error-bound floor (model granularity,
// counter rounding); xvalMargin inflates the cross-validated residual
// to cover between-anchor curvature the validation can't see.
const (
	errFloor   = 0.005
	xvalMargin = 1.25
	// gainLo/gainHi bound trustworthy anchor gains loosely — the
	// cross-validated residual, not this cut, carries the accuracy
	// burden; the cut only rejects predictions so far off that the
	// gain ratio itself is numerically meaningless.
	gainLo, gainHi = 0.25, 4.0
	// minFluidGbps guards the gain ratio's denominator.
	minFluidGbps = 0.5
)

// sigCalib is the per-signature calibration state. anchors grows
// lazily: a point whose antagonist tier coincides with an anchor only
// materializes that one anchor, while interpolated points materialize
// the full grid (needed for cross-validation). noise is the per-tier
// seed-to-seed spread — measured at the queried tier (exact) or the
// nearest anchor above it (interpolated), so the bound reflects the
// regime the point actually sits in and never depends on query order.
// des memoizes every DES execution calibration performs, keyed by
// (tier, seed): anchor coordinates are drawn from the caller's seed
// pool, so these are real fleet/sweep points and any DES-routed point
// that coincides with one is served from here instead of re-simulated.
// loaded, ckpts, ckptNew, and ckptCoords belong to the persistent
// warm-start layer (persist.go/warm.go): loaded latches the one-time
// warm-store consultation; ckpts are donor checkpoints loaded from
// disk (the only ones warm starts draw from); ckptNew are checkpoints
// this process captured (persisted for future runs, never self-served);
// ckptCoords indexes both to dedupe captures.
type sigCalib struct {
	mu      sync.Mutex
	anchors map[int]*anchorPoint
	noise   map[int]float64
	des     map[anchorCoord]core.Results

	// xfers memoizes borrowed calibration curves by donor signature
	// key, knees memoizes located regime boundaries by the same key
	// ("" = own-grid calibration): both are deterministic functions of
	// (signature, donor, router config), so keying by donor keeps a
	// resident signature consistent when a later query's roster assigns
	// it a different donor. Neither is persisted — the DES runs behind
	// them are (as ordinary anchors), so rebuilding is cache-hits only.
	xfers map[string]*xferCurve
	knees map[string]*kneeState

	loaded     bool
	ckpts      []persistedCkpt
	ckptNew    []persistedCkpt
	ckptCoords map[anchorCoord]bool
}

// anchorCoord addresses one calibration DES run.
type anchorCoord struct {
	ant  int
	seed uint64
}

type anchorPoint struct {
	gain    float64 // DES / fluid throughput
	dropOff float64 // DES − fluid drop fraction
	utilOff float64 // DES − fluid link utilization
	des     core.Results
	ok      bool // gain within trust bounds
}

// signature groups points that share everything but Seed and
// AntagonistCores — the two axes calibration spans.
func signature(p core.Params) string {
	p.Seed = 0
	p.AntagonistCores = 0
	return p.Canonical()
}

func (r *Router) sigFor(p core.Params) *sigCalib {
	key := signature(p)
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.sigs[key]
	if s == nil {
		s = &sigCalib{
			anchors:    make(map[int]*anchorPoint),
			noise:      make(map[int]float64),
			des:        make(map[anchorCoord]core.Results),
			xfers:      make(map[string]*xferCurve),
			knees:      make(map[string]*kneeState),
			ckptCoords: make(map[anchorCoord]bool),
		}
		r.sigs[key] = s
	}
	return s
}

// runAnchor executes (or loads from the run cache) one DES anchor.
// Anchors run under the router's DES plan — pure full-window DES, or
// the early-stopped variant when EarlyStop is configured — so they are
// cached under the same salt as, and are interchangeable with, any
// DES-routed point at the same coordinates.
func (r *Router) runAnchor(ap core.Params) (core.Results, error) {
	version := r.desVersion()
	compute := func() (core.Results, error) {
		r.anchorRuns.Add(1)
		return r.runCold(ap, nil, false)
	}
	canonical := ap.Canonical()
	if r.cfg.Cache != nil {
		return r.cfg.Cache.GetOrCompute(runcache.Key(version, canonical), version, canonical, compute)
	}
	return r.flight.Do(runcache.Key(version, canonical), compute)
}

// ensureAnchor materializes the anchor at tier ant (caller holds s.mu).
func (r *Router) ensureAnchor(s *sigCalib, p core.Params, ant int) (*anchorPoint, error) {
	if a := s.anchors[ant]; a != nil {
		return a, nil
	}
	ap := p
	ap.Seed = r.cfg.AnchorSeeds[0]
	ap.AntagonistCores = ant
	des, err := r.runAnchor(ap)
	if err != nil {
		return nil, err
	}
	pred, err := core.RunFluid(ap)
	if err != nil {
		// Unsupported never reaches calibration (routed earlier), so
		// any error here is a real failure.
		return nil, err
	}
	a := &anchorPoint{des: des}
	if pred.AppThroughputGbps >= minFluidGbps {
		a.gain = des.AppThroughputGbps / pred.AppThroughputGbps
		a.dropOff = (des.DropRatePct - pred.DropRatePct) / 100
		a.utilOff = des.LinkUtilization - pred.LinkUtilization
		a.ok = a.gain >= gainLo && a.gain <= gainHi
	}
	s.anchors[ant] = a
	s.des[anchorCoord{ant, ap.Seed}] = des
	r.saveCalib(s, p, 1)
	return a, nil
}

// ensureNoise measures the seed-to-seed spread of DES at the given
// anchor tier (caller holds s.mu): the error floor no calibration can
// beat, since fluid is seed-independent. The measurement run is
// memoized in s.des — when AnchorSeeds come from the caller's seed
// pool it IS a real catalog cell, so it substitutes for (rather than
// adds to) the sweep's own DES work. Noise grows with the antagonist
// tier, so it is memoized per tier, not per signature.
func (r *Router) ensureNoise(s *sigCalib, p core.Params, ant int) (float64, error) {
	if n, ok := s.noise[ant]; ok {
		return n, nil
	}
	if len(r.cfg.AnchorSeeds) < 2 {
		s.noise[ant] = errFloor
		return errFloor, nil
	}
	a, err := r.ensureAnchor(s, p, ant)
	if err != nil {
		return 0, err
	}
	ap := p
	ap.Seed = r.cfg.AnchorSeeds[1]
	ap.AntagonistCores = ant
	other, err := r.runAnchor(ap)
	if err != nil {
		return 0, err
	}
	s.des[anchorCoord{ant, ap.Seed}] = other
	n := observedError(a.des, other)
	s.noise[ant] = n
	r.saveCalib(s, p, 1)
	return n, nil
}

// noiseTier maps a queried antagonist tier onto one of at most two
// noise-measurement tiers — the grid's median anchor for queries at or
// below it, the top anchor above it. Seed noise grows with the tier,
// so the snapped tier's measurement upper-bounds the query's regime
// while capping calibration at two noise runs per signature instead of
// one per anchor.
func (r *Router) noiseTier(x int) int {
	ants := r.cfg.AnchorAnts
	mid := ants[len(ants)/2]
	if x <= mid {
		return mid
	}
	return ants[len(ants)-1]
}

// anchorCoincident reports whether p structurally coincides with a
// calibration DES run: an anchor (grid tier × primary seed) or a noise
// measurement (noise tier × secondary seed). The predicate depends
// only on the router's configuration and p — never on what has been
// calibrated so far — so the routing decision for a coincident point
// is the same on a cold pass, on a rerun against resident calibration
// (a serving daemon's second query), and for any shard boundary that
// changes which point of a signature arrives first.
func (r *Router) anchorCoincident(p core.Params) bool {
	inGrid := false
	for _, a := range r.cfg.AnchorAnts {
		if a == p.AntagonistCores {
			inGrid = true
			break
		}
	}
	if !inGrid {
		return false
	}
	if p.Seed == r.cfg.AnchorSeeds[0] {
		return true
	}
	// Noise runs exist only at the (at most two) noise tiers.
	return len(r.cfg.AnchorSeeds) >= 2 && p.Seed == r.cfg.AnchorSeeds[1] &&
		r.noiseTier(p.AntagonistCores) == p.AntagonistCores
}

// ensureCoincidentDES materializes (or reuses) the calibration DES run
// coinciding with p and returns its result. Only valid after
// anchorCoincident(p).
func (r *Router) ensureCoincidentDES(p core.Params) (core.Results, error) {
	s := r.sigFor(p)
	s.mu.Lock()
	defer s.mu.Unlock()
	r.loadSig(s, p)
	coord := anchorCoord{p.AntagonistCores, p.Seed}
	if des, ok := s.des[coord]; ok {
		return des, nil
	}
	var err error
	if p.Seed == r.cfg.AnchorSeeds[0] {
		_, err = r.ensureAnchor(s, p, p.AntagonistCores)
	} else {
		_, err = r.ensureNoise(s, p, p.AntagonistCores)
	}
	if err != nil {
		return core.Results{}, err
	}
	return s.des[coord], nil
}

// memoizedAnchor returns the already-computed calibration DES result
// when p coincides with one exactly — an anchor (seed 0) or a noise run
// (seed 1) — letting knee- or tolerance-routed points reuse the
// calibration work instead of re-simulating. With AnchorSeeds drawn
// from the caller's seed pool this makes calibration nearly free at
// fleet scale: its DES runs substitute for the fleet's own.
//
// This check is opportunistic (memo presence depends on query order),
// so it is only used where reuse cannot change bytes: DES-routed
// points, whose fresh execution resolves through the same cache/flight
// key the anchor was stored under and therefore returns the identical
// result either way. Routing decisions use anchorCoincident instead.
func (r *Router) memoizedAnchor(p core.Params) (core.Results, bool) {
	seedMatch := false
	for _, s := range r.cfg.AnchorSeeds {
		if p.Seed == s {
			seedMatch = true
			break
		}
	}
	if !seedMatch {
		return core.Results{}, false
	}
	s := r.sigFor(p)
	s.mu.Lock()
	defer s.mu.Unlock()
	r.loadSig(s, p)
	if des, ok := s.des[anchorCoord{p.AntagonistCores, p.Seed}]; ok {
		return des, true
	}
	return core.Results{}, false
}

// calibrate computes the calibrated prediction for p, its error bound,
// and the cache salt identifying the calibration that produced it.
// ok=false means the point cannot be calibrated (tier outside the
// anchor hull, untrustworthy gains, too few anchors to validate) and
// must run under DES.
func (r *Router) calibrate(p core.Params, pred fluid.Prediction) (adj core.Results, errBound float64, calV string, ok bool, err error) {
	s := r.sigFor(p)
	s.mu.Lock()
	defer s.mu.Unlock()
	r.loadSig(s, p)
	return r.calibrateLocked(s, p, pred)
}

// calibrateLocked is calibrate with s.mu already held — the form the
// knee search uses to evaluate the serving curve at probe tiers. When
// the roster assigns this signature a transfer donor, the borrowed
// curve takes precedence; a failed transfer (uncalibratable donor)
// falls through to the signature's own anchor grid.
func (r *Router) calibrateLocked(s *sigCalib, p core.Params, pred fluid.Prediction) (adj core.Results, errBound float64, calV string, ok bool, err error) {
	x := p.AntagonistCores
	ants := r.cfg.AnchorAnts
	exact := false
	for _, a := range ants {
		if a == x {
			exact = true
			break
		}
	}
	if !exact && (x < ants[0] || x > ants[len(ants)-1]) {
		return core.Results{}, 0, "", false, nil
	}

	if asn := r.assignFor(p); asn != nil {
		adj, bound, v, xok, xerr := r.calibrateTransfer(s, p, pred, asn)
		if xerr != nil {
			return core.Results{}, 0, "", false, xerr
		}
		if xok {
			return adj, bound, v, true, nil
		}
	}

	var gain, dropOff float64
	if exact {
		a, aerr := r.ensureAnchor(s, p, x)
		if aerr != nil {
			return core.Results{}, 0, "", false, aerr
		}
		if !a.ok {
			return core.Results{}, 0, "", false, nil
		}
		noise, nerr := r.ensureNoise(s, p, r.noiseTier(x))
		if nerr != nil {
			return core.Results{}, 0, "", false, nerr
		}
		gain, dropOff = a.gain, a.dropOff
		errBound = noise + errFloor
	} else {
		if len(ants) < 3 {
			return core.Results{}, 0, "", false, nil
		}
		pts := make([]*anchorPoint, len(ants))
		for i, a := range ants {
			ap, aerr := r.ensureAnchor(s, p, a)
			if aerr != nil {
				return core.Results{}, 0, "", false, aerr
			}
			if !ap.ok {
				return core.Results{}, 0, "", false, nil
			}
			pts[i] = ap
		}
		noise, nerr := r.ensureNoise(s, p, r.noiseTier(x))
		if nerr != nil {
			return core.Results{}, 0, "", false, nerr
		}
		gain = interp(ants, pts, x, func(a *anchorPoint) float64 { return a.gain })
		dropOff = interp(ants, pts, x, func(a *anchorPoint) float64 { return a.dropOff })

		// Cross-validate: predict each interior anchor from its
		// neighbors; the residual bounds the interpolation error. The
		// bound is local — only the anchors bracketing x count — so a
		// kink in the gain curve at one end of the tier axis (a regime
		// boundary the signature crosses there) does not condemn the
		// smooth intervals at the other end.
		lo := 0
		for i := 1; i < len(ants); i++ {
			if x <= ants[i] {
				lo = i - 1
				break
			}
		}
		resid := 0.0
		for i := 1; i < len(ants)-1; i++ {
			if i != lo && i != lo+1 {
				continue
			}
			t := float64(ants[i]-ants[i-1]) / float64(ants[i+1]-ants[i-1])
			gHat := pts[i-1].gain + t*(pts[i+1].gain-pts[i-1].gain)
			dHat := pts[i-1].dropOff + t*(pts[i+1].dropOff-pts[i-1].dropOff)
			resid = math.Max(resid, math.Abs(gHat-pts[i].gain)/pts[i].gain)
			resid = math.Max(resid, math.Abs(dHat-pts[i].dropOff))
		}
		// The residual and the noise are not independent error sources:
		// the cross-validation residual is itself measured on noisy
		// anchors, so it already embeds one noise realization. Summing
		// them double-counts; the larger of the two bounds the error.
		errBound = math.Max(xvalMargin*resid, noise) + errFloor
	}

	return applyCalibration(pred, gain, dropOff), errBound, r.ownCalVersion(), true, nil
}

// interp evaluates the piecewise-linear anchor curve at x.
func interp(ants []int, pts []*anchorPoint, x int, f func(*anchorPoint) float64) float64 {
	for i := 1; i < len(ants); i++ {
		if x <= ants[i] {
			t := float64(x-ants[i-1]) / float64(ants[i]-ants[i-1])
			return f(pts[i-1]) + t*(f(pts[i])-f(pts[i-1]))
		}
	}
	return f(pts[len(pts)-1])
}

// applyCalibration maps the anchor-fit gain and drop offset onto the
// fluid prediction's Results.
func applyCalibration(pred fluid.Prediction, gain, dropOff float64) core.Results {
	res := pred.Results
	res.AppThroughputGbps *= gain
	res.Goodput = uint64(math.Round(float64(res.Goodput) * gain))
	res.Reads = uint64(math.Round(float64(res.Reads) * gain))

	fluidFrac := pred.DropRatePct / 100
	frac := math.Min(math.Max(fluidFrac+dropOff, 0), 1)
	res.DropRatePct = frac * 100
	arrivals := res.RxPackets + res.Drops
	if frac > 0 || fluidFrac > 0 {
		res.Drops = uint64(math.Round(float64(arrivals) * frac))
		res.RxPackets = arrivals - res.Drops
		res.Retransmits = res.Drops
	} else {
		// Not dropping: arrivals track the (gain-corrected) goodput.
		res.RxPackets = uint64(math.Round(float64(arrivals) * gain))
		res.LinkUtilization *= gain
	}
	return res
}

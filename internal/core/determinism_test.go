package core_test

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"

	"hic/internal/core"
	"hic/internal/pkt"
	"hic/internal/runcache"
	"hic/internal/sim"
)

// goldenHashes pin the full Results of two paper scenarios at two seeds.
// They were captured from the pre-rewrite engine (container/heap queue,
// no free lists, no cache), so they prove the hot-path rewrite is
// bit-identical to the seed implementation — not merely self-consistent.
// If a deliberate behavior change invalidates them, recompute with
// resultHash below and bump core.SimVersion in the same commit.
var goldenHashes = map[string]string{
	"fig3/seed=1": "66ca27843ac22e66",
	"fig3/seed=7": "02d11dba6298b1a9",
	"fig6/seed=1": "09e292bc6fda3532",
	"fig6/seed=7": "2fec689fbfcbfaf1",
}

// goldenParams reconstructs the pinned scenarios: a fig3-style point
// (8 receiver cores, no antagonist) and a fig6-style point (12 cores,
// 8 antagonist cores), both with short windows so the test stays fast.
func goldenParams(name string, seed uint64) core.Params {
	var p core.Params
	switch name {
	case "fig3":
		p = core.DefaultParams(8)
	case "fig6":
		p = core.DefaultParams(12)
		p.AntagonistCores = 8
	default:
		panic("unknown golden scenario " + name)
	}
	p.Seed = seed
	p.Warmup, p.Measure = 4*sim.Millisecond, 6*sim.Millisecond
	return p
}

func resultHash(r core.Results) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("%+v", r)))
	return fmt.Sprintf("%x", h[:8])
}

func runGoldens(t *testing.T, label string) {
	t.Helper()
	for _, seed := range []uint64{1, 7} {
		for _, name := range []string{"fig3", "fig6"} {
			r, err := core.Run(goldenParams(name, seed))
			if err != nil {
				t.Fatalf("%s: %s seed=%d: %v", label, name, seed, err)
			}
			key := fmt.Sprintf("%s/seed=%d", name, seed)
			if got := resultHash(r); got != goldenHashes[key] {
				t.Errorf("%s: %s results hash = %s, want %s (bit-level determinism broken)",
					label, key, got, goldenHashes[key])
			}
		}
	}
}

// TestGoldenDeterminism verifies the simulator still produces the exact
// pre-rewrite Results with the default configuration (event free list
// and packet pool enabled).
func TestGoldenDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("golden runs take a few seconds")
	}
	runGoldens(t, "pooled")
}

// TestGoldenDeterminismWithoutFreeLists re-runs the goldens with both
// free lists disabled: recycling events and packets must be invisible
// to the simulation. A divergence here means a recycled object leaked
// state between lifetimes.
func TestGoldenDeterminismWithoutFreeLists(t *testing.T) {
	if testing.Short() {
		t.Skip("golden runs take a few seconds")
	}
	prevEv := sim.SetEventPooling(false)
	prevPkt := pkt.SetPooling(false)
	defer func() {
		sim.SetEventPooling(prevEv)
		pkt.SetPooling(prevPkt)
	}()
	runGoldens(t, "unpooled")
}

// TestGoldenDeterminismWithPoison re-runs the goldens with released
// packets poisoned: any component touching a packet after its Release
// would see scrambled fields and fail the hash (or trip an invariant).
func TestGoldenDeterminismWithPoison(t *testing.T) {
	if testing.Short() {
		t.Skip("golden runs take a few seconds")
	}
	prev := pkt.SetPoison(true)
	defer pkt.SetPoison(prev)
	runGoldens(t, "poisoned")
}

// TestCacheHitMatchesColdRun proves a run-cache hit is byte-identical
// to a cold simulation: the first pass simulates and stores, the second
// pass must replay the same Results (hash-compared), and a no-cache run
// must match both.
func TestCacheHitMatchesColdRun(t *testing.T) {
	if testing.Short() {
		t.Skip("golden runs take a few seconds")
	}
	store, err := runcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := goldenParams("fig6", 1)
	cold, err := core.RunOnVia(nil, p, store, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if store.Misses() != 1 || store.Hits() != 0 {
		t.Fatalf("cold run: hits=%d misses=%d, want 0/1", store.Hits(), store.Misses())
	}
	warm, err := core.RunOnVia(nil, p, store, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if store.Hits() != 1 {
		t.Fatalf("second run did not hit the cache: hits=%d misses=%d", store.Hits(), store.Misses())
	}
	if ch, wh := resultHash(cold), resultHash(warm); ch != wh {
		t.Fatalf("cache hit diverges from cold run: %s vs %s", ch, wh)
	}
	if got := resultHash(warm); got != goldenHashes["fig6/seed=1"] {
		t.Fatalf("cached results hash = %s, want golden %s", got, goldenHashes["fig6/seed=1"])
	}

	// A second store (fresh process analogue: disk entries only) must
	// also replay identically after the in-memory layer is gone.
	store2, err := runcache.Open(store.Dir())
	if err != nil {
		t.Fatal(err)
	}
	disk, err := core.RunOnVia(nil, p, store2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if store2.Hits() != 1 {
		t.Fatalf("disk replay missed: hits=%d misses=%d", store2.Hits(), store2.Misses())
	}
	if got := resultHash(disk); got != goldenHashes["fig6/seed=1"] {
		t.Fatalf("disk-replayed results hash = %s, want golden %s (JSON round-trip not exact?)",
			got, goldenHashes["fig6/seed=1"])
	}
}

// TestCacheKeyDistinguishesParams spot-checks the canonical encoding:
// every mutated field must produce a distinct cache key.
func TestCacheKeyDistinguishesParams(t *testing.T) {
	base := core.DefaultParams(8)
	keys := map[string]string{"base": base.CacheKey()}
	mutations := map[string]func(*core.Params){
		"seed":     func(p *core.Params) { p.Seed++ },
		"threads":  func(p *core.Params) { p.Threads++ },
		"iommu":    func(p *core.Params) { p.IOMMU = !p.IOMMU },
		"cc":       func(p *core.Params) { p.CC = core.CCDCTCP },
		"measure":  func(p *core.Params) { p.Measure += sim.Millisecond },
		"burst":    func(p *core.Params) { p.BurstDuty = 0.5 },
		"antagon":  func(p *core.Params) { p.AntagonistCores = 3 },
		"victim":   func(p *core.Params) { p.VictimConnGbps = 2 },
		"region":   func(p *core.Params) { p.RxRegionBytes *= 2 },
		"tlb":      func(p *core.Params) { p.DeviceTLBEntries = 64 },
		"scaling":  func(p *core.Params) { p.DynamicCoreScaling = true },
		"host_tgt": func(p *core.Params) { p.HostTarget = 50 * sim.Microsecond },
	}
	seen := map[string]string{keys["base"]: "base"}
	for name, mutate := range mutations {
		p := base
		mutate(&p)
		k := p.CacheKey()
		if prev, dup := seen[k]; dup {
			t.Errorf("mutation %q collides with %q: key %s", name, prev, k)
		}
		seen[k] = name
	}
}

// TestCanonicalCoversAllParamsFields fails when a field is added to
// Params without extending Canonical: a missing field would alias
// distinct scenarios to the same cache entry, silently returning wrong
// results. Update Params.Canonical and the pinned count together.
func TestCanonicalCoversAllParamsFields(t *testing.T) {
	n := reflect.TypeOf(core.Params{}).NumField()
	if n != core.ParamsFieldCount {
		t.Fatalf("Params has %d fields but Canonical covers %d — extend Canonical() "+
			"in cache.go and bump ParamsFieldCount (and SimVersion if behavior changed)",
			n, core.ParamsFieldCount)
	}
}

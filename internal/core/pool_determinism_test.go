package core_test

import (
	"fmt"
	"testing"

	"hic/internal/core"
	"hic/internal/fidelity"
	"hic/internal/runcache"
)

// TestPooledGoldenDeterminism is the worker-pool counterpart of
// TestGoldenDeterminism: the golden scenarios run through RunMany —
// worker arenas, engine/registry reuse, batch-local singleflight — with
// every scenario duplicated, twice back to back so the second batch
// lands on arenas dirtied by the first. Every result, including the
// dedup-served duplicates, must still match the pre-rewrite golden
// hashes. This is the proof that arena reuse and dedup are invisible.
func TestPooledGoldenDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("golden runs take a few seconds")
	}
	var ps []core.Params
	var keys []string
	for _, seed := range []uint64{1, 7} {
		for _, name := range []string{"fig3", "fig6"} {
			// Two copies of each scenario: the second must be collapsed
			// onto the first by singleflight without changing its result.
			for c := 0; c < 2; c++ {
				ps = append(ps, goldenParams(name, seed))
				keys = append(keys, fmt.Sprintf("%s/seed=%d", name, seed))
			}
		}
	}
	for pass := 0; pass < 2; pass++ {
		rs, err := core.RunMany(nil, ps, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range rs {
			if got := resultHash(r); got != goldenHashes[keys[i]] {
				t.Errorf("pass %d: %s (input %d) hash = %s, want %s (arena reuse or dedup changed results)",
					pass, keys[i], i, got, goldenHashes[keys[i]])
			}
		}
	}
}

// TestRunManyFunnel drives the batch funnel with every pure-DES
// executor — nil, DES{} and a ModeDES router (the -fidelity=des CLI
// path) — store-less and through a disk store (cold, then a fresh store
// on the same directory). Every case must reproduce the golden hashes,
// key its results exactly like no executor at all, collapse the
// duplicate input, and cost one simulation per distinct scenario cold
// and none on the hit pass.
func TestRunManyFunnel(t *testing.T) {
	if testing.Short() {
		t.Skip("golden runs take a few seconds")
	}
	var ps []core.Params
	var keys []string
	for _, seed := range []uint64{1, 7} {
		for _, name := range []string{"fig3", "fig6"} {
			ps = append(ps, goldenParams(name, seed))
			keys = append(keys, fmt.Sprintf("%s/seed=%d", name, seed))
		}
	}
	distinct := len(ps)
	ps = append(ps, ps[0]) // duplicate — must collapse, not simulate
	keys = append(keys, keys[0])

	execs := []struct {
		name string
		new  func(cache *runcache.Store) core.Executor
	}{
		{"nil", func(*runcache.Store) core.Executor { return nil }},
		{"des", func(*runcache.Store) core.Executor { return core.DES{} }},
		{"router", func(cache *runcache.Store) core.Executor {
			r, err := fidelity.New(fidelity.Config{Mode: fidelity.ModeDES, Cache: cache})
			if err != nil {
				t.Fatal(err)
			}
			return r
		}},
	}
	check := func(t *testing.T, pass string, rs []core.Results) {
		t.Helper()
		for i, r := range rs {
			if got := resultHash(r); got != goldenHashes[keys[i]] {
				t.Errorf("%s: %s (input %d) hash = %s, want %s", pass, keys[i], i, got, goldenHashes[keys[i]])
			}
		}
	}
	for _, ex := range execs {
		for _, disk := range []bool{false, true} {
			ex, store := ex, "none"
			if disk {
				store = "disk"
			}
			t.Run(ex.name+"/"+store, func(t *testing.T) {
				var cache *runcache.Store
				if disk {
					var err error
					if cache, err = runcache.Open(t.TempDir()); err != nil {
						t.Fatal(err)
					}
				}
				exec := ex.new(cache)
				for _, p := range ps {
					version, _, err := core.PlanVia(exec, p)
					if err != nil {
						t.Fatal(err)
					}
					if runcache.Key(version, p.Canonical()) != p.CacheKey() {
						t.Fatalf("planned version %q does not key like pure DES", version)
					}
				}
				rs, err := core.RunMany(exec, ps, cache)
				if err != nil {
					t.Fatal(err)
				}
				check(t, "cold", rs)
				if r, ok := exec.(*fidelity.Router); ok {
					if c := r.Counters(); c.FluidRouted != 0 || c.EarlyStopped != 0 {
						t.Errorf("ModeDES router took an approximate path: %+v", c)
					}
				}
				if !disk {
					return
				}
				st := cache.Stats()
				if st.Misses != uint64(distinct) || st.Hits+st.Collapses != 1 {
					t.Errorf("cold batch: misses=%d hits+collapses=%d+%d, want %d and 1 (duplicates must not simulate)",
						st.Misses, st.Hits, st.Collapses, distinct)
				}
				for _, p := range ps {
					if !cache.Contains(p.CacheKey(), core.SimVersion, p.Canonical()) {
						t.Errorf("no store entry under the pure-DES key for %s", p.Canonical())
					}
				}
				// A fresh store on the same directory (process restart
				// analogue) must serve every point from disk.
				warm, err := runcache.Open(cache.Dir())
				if err != nil {
					t.Fatal(err)
				}
				rs, err = core.RunMany(ex.new(warm), ps, warm)
				if err != nil {
					t.Fatal(err)
				}
				check(t, "hit", rs)
				if st := warm.Stats(); st.Misses != 0 {
					t.Errorf("hit pass simulated: %+v", st)
				}
			})
		}
	}
}

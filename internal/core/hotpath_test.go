package core_test

import (
	"runtime"
	"testing"

	"hic/internal/core"
	"hic/internal/runner"
	"hic/internal/sim"
)

// desPointAllocBudget bounds the heap allocations of one 2+3 ms Figure 6
// point (12 cores, 8 antagonist cores), build included: the measured
// 6146 allocations (6457 under -race) plus 10%. Nearly all of it is testbed construction
// (connections, congestion controllers, tickers, per-flow state); the
// per-packet datapath allocates nothing once its free lists are warm.
// Before the hot path bound its continuations, the same point made
// about 505k allocations.
const desPointAllocBudget = 6760

func TestDESPointAllocBudget(t *testing.T) {
	p := core.DefaultParams(12)
	p.AntagonistCores = 8
	p.Warmup, p.Measure = 2*sim.Millisecond, 3*sim.Millisecond
	if _, err := core.Run(p); err != nil { // lazy runtime and package state
		t.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if _, err := core.Run(p); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	allocs := m1.Mallocs - m0.Mallocs
	t.Logf("one DES point: %d allocations, %d bytes", allocs, m1.TotalAlloc-m0.TotalAlloc)
	if allocs > desPointAllocBudget {
		t.Errorf("one DES point made %d allocations, budget %d", allocs, desPointAllocBudget)
	}
}

// TestArenaReuseAfterInFlightStopMatchesFresh runs a point on a worker
// arena and stops it at its horizon with DMA chains, page walks and
// tickers still queued; the arena's engine is then Reset for the next
// point, dropping that state mid-flight. The next point must hash
// exactly like the same point on fresh substrate.
func TestArenaReuseAfterInFlightStopMatchesFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("golden runs take a few seconds")
	}
	a := &runner.Arena{}
	first := core.DefaultParams(12)
	first.Hugepages = false
	first.Seed = 3
	first.Warmup, first.Measure = sim.Millisecond, sim.Millisecond
	tb, err := first.BuildOn(a)
	if err != nil {
		t.Fatal(err)
	}
	tb.Run(first.Warmup, first.Measure)
	// Step on to an instant with a DMA chain holding posted-write
	// credits, so the Reset below really drops in-flight chains.
	for i := 0; i < 1000 && tb.Link.InFlightBytes() == 0; i++ {
		tb.Engine.Run(tb.Engine.Now().Add(50 * sim.Nanosecond))
	}
	if tb.Link.InFlightBytes() == 0 || tb.Engine.Pending() == 0 {
		t.Fatalf("first point stopped idle (credits held %d, pending %d); nothing was in flight",
			tb.Link.InFlightBytes(), tb.Engine.Pending())
	}

	p := goldenParams("fig6", 1)
	reused, err := core.RunOn(p, a)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := core.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if rh, fh := resultHash(reused), resultHash(fresh); rh != fh || fh != goldenHashes["fig6/seed=1"] {
		t.Fatalf("arena-reused point hashes %s, fresh %s, golden %s", rh, fh, goldenHashes["fig6/seed=1"])
	}
}

package sim_test

import (
	"math"
	"testing"

	"hic/internal/sim"
	"hic/internal/sim/legacy"
)

// TestTickerLanesMatchSelfReschedulingTimers checks that tickers, which
// wait in per-period lanes instead of the heap, fire in exactly the
// order a self-rescheduling heap timer would: the pre-lane Ticker
// semantics, replayed on the legacy engine. The schedule mixes tickers
// of three periods, one-shot events, tickers created and stopped from
// inside callbacks, and ticks that schedule one-shots.
func TestTickerLanesMatchSelfReschedulingTimers(t *testing.T) {
	type driver struct {
		after func(d sim.Duration, fn func())
		every func(p sim.Duration, fn func()) (stop func())
		run   func(end sim.Time)
	}
	trace := func(d driver) []int {
		var order []int
		var stops []func()
		rng := sim.NewRNG(7)
		periods := []sim.Duration{3, 5, 7}
		var newTicker func(id int)
		newTicker = func(id int) {
			stops = append(stops, d.every(periods[rng.Intn(3)], func() {
				order = append(order, id)
				if rng.Intn(4) == 0 {
					d.after(sim.Duration(rng.Intn(9)), func() { order = append(order, -id) })
				}
			}))
		}
		for i := 0; i < 6; i++ {
			newTicker(1000 + i)
		}
		for i := 0; i < 150; i++ {
			i := i
			d.after(sim.Duration(rng.Intn(200)), func() {
				order = append(order, i)
				switch rng.Intn(6) {
				case 0:
					newTicker(2000 + i)
				case 1:
					stops[rng.Intn(len(stops))]()
				}
			})
		}
		d.run(300)
		return order
	}

	e := sim.NewEngine(1)
	got := trace(driver{
		after: func(d sim.Duration, fn func()) { e.After(d, fn) },
		every: func(p sim.Duration, fn func()) func() { return e.Every(p, fn).Stop },
		run:   func(end sim.Time) { e.Run(end) },
	})
	l := legacy.NewEngine()
	want := trace(driver{
		after: func(d sim.Duration, fn func()) { l.After(d, fn) },
		every: func(p sim.Duration, fn func()) func() {
			stopped := false
			var tick func()
			tick = func() {
				if stopped {
					return
				}
				fn()
				if !stopped {
					l.After(p, tick)
				}
			}
			l.After(p, tick)
			return func() { stopped = true }
		},
		run: func(end sim.Time) { l.Run(end) },
	})
	if len(got) != len(want) {
		t.Fatalf("fired %d callbacks, self-rescheduling timers fire %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("execution order diverges at %d: lanes=%d heap timers=%d", i, got[i], want[i])
		}
	}
}

func TestTickerStopKeepsPendingExact(t *testing.T) {
	e := sim.NewEngine(1)
	tk := e.Every(10, func() {})
	e.At(5, func() {})
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	tk.Stop()
	tk.Stop()
	if e.Pending() != 1 {
		t.Fatalf("Pending after Stop = %d, want 1", e.Pending())
	}
	e.Run(100)
	if e.Pending() != 0 || e.Processed() != 1 {
		t.Fatalf("after run: pending %d, processed %d; want 0, 1", e.Pending(), e.Processed())
	}

	// A ticker stopping itself from its own callback has no tick queued.
	var self *sim.Ticker
	fired := 0
	self = e.Every(10, func() { fired++; self.Stop() })
	e.Run(1000)
	if fired != 1 || e.Pending() != 0 {
		t.Fatalf("self-stopping ticker fired %d times, pending %d; want 1, 0", fired, e.Pending())
	}

	// Reset drops queued ticks; stopping a ticker from before the reset
	// must not disturb the new run's accounting.
	old := e.Every(10, func() { t.Error("tick survived Reset") })
	e.Reset(2)
	if e.Pending() != 0 {
		t.Fatalf("Pending after Reset = %d, want 0", e.Pending())
	}
	e.Every(10, func() {})
	old.Stop()
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d after stopping a pre-Reset ticker, want 1", e.Pending())
	}
	e.Run(25)
	if e.Processed() != 2 {
		t.Fatalf("processed %d ticks by t=25, want 2", e.Processed())
	}
}

func TestAtArgOrdersWithAtAndPassesArgument(t *testing.T) {
	e := sim.NewEngine(1)
	var order []int
	record := func(a any) { order = append(order, *a.(*int)) }
	one, three := 1, 3
	e.AtArg(5, record, &one)
	e.At(5, func() { order = append(order, 2) })
	e.AfterArg(5, record, &three)
	e.At(1, func() { order = append(order, 0) })
	e.Run(math.MaxInt64 - 1)
	want := []int{0, 1, 2, 3}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

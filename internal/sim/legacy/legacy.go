// Package legacy preserves the original container/heap event engine as
// a test reference. It is the implementation internal/sim shipped
// with before the hot-path rewrite: a binary heap driven through the
// container/heap interface (one `any`-boxing allocation per push), a
// freshly allocated event struct per schedule, lazy cancellation (dead
// events linger in the heap until popped), and a new closure per ticker
// tick.
//
// Nothing in the simulator or its benchmarks uses this package; only
// internal/sim's tests do, as an independent implementation of the same
// contract: events compare by (time, insertion sequence), so both
// engines must execute the same callback sequence for the same schedule
// (TestLegacyEngineMatchesRewrite, and the ticker-lane ordering test).
package legacy

import (
	"container/heap"
	"fmt"

	"hic/internal/sim"
)

type event struct {
	at   sim.Time
	seq  uint64
	fn   func()
	dead bool
	idx  int
}

// EventID identifies a scheduled event so it can be cancelled.
type EventID struct{ ev *event }

// Cancel marks the event dead; it is skipped when it reaches the head
// of the queue (lazy reaping — the pre-rewrite semantics).
func (id EventID) Cancel() {
	if id.ev != nil {
		id.ev.dead = true
	}
}

// Pending reports whether the event is still scheduled and not cancelled.
func (id EventID) Pending() bool {
	return id.ev != nil && !id.ev.dead && id.ev.idx >= 0
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *eventHeap) Push(x any) {
	ev := x.(*event)
	ev.idx = len(*h)
	*h = append(*h, ev)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.idx = -1
	*h = old[:n-1]
	return ev
}

// Engine is the pre-rewrite discrete-event core.
type Engine struct {
	now       sim.Time
	seq       uint64
	queue     eventHeap
	stopped   bool
	processed uint64
}

// NewEngine returns an engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() sim.Time { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of events currently scheduled (including
// cancelled-but-unreaped ones — the miscounting the rewrite fixed).
func (e *Engine) Pending() int { return len(e.queue) }

// At schedules fn to run at absolute time at.
func (e *Engine) At(at sim.Time, fn func()) EventID {
	if at < e.now {
		panic(fmt.Sprintf("legacy: scheduling into the past: now=%v at=%v", e.now, at))
	}
	if fn == nil {
		panic("legacy: scheduling nil func")
	}
	ev := &event{at: at, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.queue, ev)
	return EventID{ev}
}

// After schedules fn to run d from now.
func (e *Engine) After(d sim.Duration, fn func()) EventID {
	if d < 0 {
		d = 0
	}
	return e.At(e.now.Add(d), fn)
}

// Stop makes the current Run call return after the in-flight event.
func (e *Engine) Stop() { e.stopped = true }

func (e *Engine) step() bool {
	for len(e.queue) > 0 {
		ev := heap.Pop(&e.queue).(*event)
		if ev.dead {
			continue
		}
		e.now = ev.at
		ev.fn()
		e.processed++
		return true
	}
	return false
}

// Run executes events until the queue drains, Stop is called, or
// simulated time passes end.
func (e *Engine) Run(end sim.Time) sim.Time {
	e.stopped = false
	for !e.stopped {
		var next *event
		for len(e.queue) > 0 {
			if e.queue[0].dead {
				heap.Pop(&e.queue)
				continue
			}
			next = e.queue[0]
			break
		}
		if next == nil {
			break
		}
		if next.at > end {
			e.now = end
			break
		}
		e.step()
	}
	if e.now < end && len(e.queue) == 0 {
		e.now = end
	}
	return e.now
}

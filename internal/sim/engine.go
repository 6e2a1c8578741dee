package sim

import (
	"fmt"
	"sync/atomic"
)

// Event is a scheduled callback. Events compare by time, then by sequence
// number of insertion, so simultaneous events fire in the order they were
// scheduled — this is what makes runs reproducible. The (at, seq) key
// itself lives in the queue's heap entries, not here.
//
// A callback is either a plain func() (At/After) or a func(any) with its
// argument (AtArg/AfterArg). The second form lets a component schedule a
// method value bound once at construction with a per-event pointer
// argument — a pointer stored in an interface does not allocate — so a
// per-packet hop costs no closure.
//
// Events are owned by the engine's free list: once an event fires or is
// cancelled it is recycled, so the steady-state schedule→fire loop
// performs no heap allocation. The gen counter detects stale EventIDs
// pointing at a recycled slot.
type event struct {
	fn    func()
	fnArg func(any)
	arg   any
	idx   int32  // queue index, -1 when not queued
	gen   uint32 // bumped on recycle; EventID must match to act
}

// eventPooling controls whether fired/cancelled events are recycled
// through the per-engine free list (the default) or left to the garbage
// collector. It exists so determinism tests can prove results are
// bit-identical either way; production code never turns it off.
var eventPooling atomic.Bool

func init() { eventPooling.Store(true) }

// SetEventPooling toggles event recycling process-wide. Intended for
// tests and debugging only; returns the previous setting.
func SetEventPooling(enabled bool) bool { return eventPooling.Swap(enabled) }

// EventID identifies a scheduled event so it can be cancelled. The zero
// EventID is valid and refers to no event.
type EventID struct {
	e   *Engine
	ev  *event
	gen uint32
}

// Cancel removes the event from the queue immediately and recycles it.
// Cancelling an already-fired, already-cancelled, or zero EventID is a
// no-op: the generation counter detects stale handles.
func (id EventID) Cancel() {
	if id.ev == nil || id.ev.gen != id.gen || id.ev.idx < 0 {
		return
	}
	id.e.queue.remove(int(id.ev.idx))
	id.e.recycle(id.ev)
}

// Pending reports whether the event is still scheduled and not cancelled.
func (id EventID) Pending() bool {
	return id.ev != nil && id.ev.gen == id.gen && id.ev.idx >= 0
}

// eventQueue is a 4-ary indexed min-heap ordered by (at, seq). Each heap
// slot carries its event's key inline beside the event pointer, so sift
// comparisons read the contiguous heap array and never dereference an
// event; only the moved events' queue indices are written back (Cancel
// needs them). A concrete element type avoids container/heap's interface
// boxing and per-operation indirect calls; the wider fan-out halves the
// tree depth, trading a few extra comparisons per level for fewer
// cache-missing swaps — the right trade for the short-deadline churn a
// DES queue sees. Because (at, seq) is a total order (seq is unique), any
// correct heap pops events in exactly the same sequence, so the layout
// preserves bit-identical runs.
type eventQueue struct {
	s []heapEntry
}

// eventKey is the (at, seq) total order of pending events.
type eventKey struct {
	at  Time
	seq uint64
}

func (a *eventKey) less(b *eventKey) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

type heapEntry struct {
	eventKey
	ev *event
}

func (q *eventQueue) len() int { return len(q.s) }

// push inserts ev under key (at, seq).
func (q *eventQueue) push(at Time, seq uint64, ev *event) {
	q.s = append(q.s, heapEntry{eventKey{at, seq}, ev})
	q.up(len(q.s)-1, q.s[len(q.s)-1])
}

// pop removes the earliest entry. Cancelled events are removed eagerly
// by Cancel, so the head is always live — there is no reap loop
// anywhere.
func (q *eventQueue) pop() heapEntry {
	top := q.s[0]
	n := len(q.s) - 1
	last := q.s[n]
	q.s[n] = heapEntry{}
	q.s = q.s[:n]
	if n > 0 {
		q.down(0, last)
	}
	top.ev.idx = -1
	return top
}

// remove deletes the entry at index i, preserving the heap invariant.
func (q *eventQueue) remove(i int) {
	ev := q.s[i].ev
	n := len(q.s) - 1
	last := q.s[n]
	q.s[n] = heapEntry{}
	q.s = q.s[:n]
	if i < n {
		q.down(i, last)
		q.up(int(last.ev.idx), last)
	}
	ev.idx = -1
}

// up sifts entry x, destined for index i, toward the root.
func (q *eventQueue) up(i int, x heapEntry) {
	for i > 0 {
		p := (i - 1) >> 2
		if !x.less(&q.s[p].eventKey) {
			break
		}
		q.s[i] = q.s[p]
		q.s[i].ev.idx = int32(i)
		i = p
	}
	q.s[i] = x
	x.ev.idx = int32(i)
}

// down sifts entry x, destined for index i, toward the leaves.
func (q *eventQueue) down(i int, x heapEntry) {
	n := len(q.s)
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if q.s[j].less(&q.s[m].eventKey) {
				m = j
			}
		}
		if !q.s[m].less(&x.eventKey) {
			break
		}
		q.s[i] = q.s[m]
		q.s[i].ev.idx = int32(i)
		i = m
	}
	q.s[i] = x
	x.ev.idx = int32(i)
}

// Engine is the discrete-event simulation core. The zero value is not
// usable; call NewEngine.
type Engine struct {
	now     Time
	seq     uint64
	queue   eventQueue
	free    []*event // recycled events, LIFO for cache warmth
	lanes   []*tickLane
	ticks   int // live ticks queued across lanes
	rng     *RNG
	stopped bool
	// processed counts events actually executed (not cancelled ones),
	// exposed for engine benchmarks and runaway detection.
	processed uint64
}

// NewEngine returns an engine at time zero with the given RNG seed.
func NewEngine(seed uint64) *Engine {
	return &Engine{rng: NewRNG(seed)}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// RNG returns the engine's random stream. Components must draw randomness
// only from here (or from Fork()s of it) to preserve determinism.
func (e *Engine) RNG() *RNG { return e.rng }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of live scheduled events. Cancelled events
// are removed from the queue at Cancel time, so — unlike earlier versions
// of this engine — the count never includes cancelled-but-unreaped
// entries.
func (e *Engine) Pending() int { return e.queue.len() + e.ticks }

// alloc returns a fresh or recycled event.
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &event{}
}

// recycle returns a dead event to the free list. The generation bump
// invalidates every EventID still referring to it.
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	ev.fnArg = nil
	ev.arg = nil
	ev.idx = -1
	ev.gen++
	if eventPooling.Load() {
		e.free = append(e.free, ev)
	}
}

// Reset returns the engine to a pristine time-zero state seeded with
// seed, while keeping its allocated capacity: every still-queued event
// is recycled into the free list (exactly as if it had been cancelled,
// so outstanding EventIDs are invalidated by the generation bump and
// retained callbacks are dropped), every queued tick is dropped (its
// ticker is dead: stopping it later is a no-op), the queue's and lanes'
// backing arrays are kept, and the RNG is reseeded in place. A reset
// engine behaves bit-
// identically to a fresh NewEngine(seed) — recycled events are fully
// re-initialized on allocation — which is what lets worker-pool arenas
// reuse one engine across many runs without setup GC churn.
func (e *Engine) Reset(seed uint64) {
	for i := range e.queue.s {
		e.recycle(e.queue.s[i].ev)
		e.queue.s[i] = heapEntry{}
	}
	e.queue.s = e.queue.s[:0]
	for _, l := range e.lanes {
		for i := 0; i < l.q.Len(); i++ {
			l.q.At(i).t.queued = false
		}
		l.q.Clear()
	}
	e.ticks = 0
	e.now = 0
	e.seq = 0
	e.processed = 0
	e.stopped = false
	e.rng.Seed(seed)
}

// EngineState is a serializable fingerprint of the engine at a point in
// simulated time: the clock, event accounting, and the full RNG state.
// It is the sim-layer half of a steady-state checkpoint. The event
// queue itself holds Go function values and cannot be serialized, so a
// checkpoint restore rebuilds the event population from primed
// component state rather than from the queue; EngineState records where
// the donor run stood (for checkpoint provenance and cache salting) and
// carries the RNG stream a warm start resumes from.
type EngineState struct {
	Now       Time      `json:"now"`
	Processed uint64    `json:"processed"`
	Pending   int       `json:"pending"`
	RNG       [4]uint64 `json:"rng"`
}

// State captures the engine's current clock, event counts, and RNG
// state. See EngineState for what a capture does and does not include.
func (e *Engine) State() EngineState {
	return EngineState{Now: e.now, Processed: e.processed, Pending: e.Pending(), RNG: e.rng.State()}
}

// PrimeRNG replaces the engine's RNG state with one captured from a
// donor run's State. Only the random stream is restored — the clock and
// queue are deliberately untouched, because a warm start replays a
// short guard window on a freshly built host rather than resuming the
// donor's event queue.
func (e *Engine) PrimeRNG(s [4]uint64) { e.rng.SetState(s) }

// At schedules fn to run at absolute time at. Scheduling into the past
// panics: it always indicates a component bug.
func (e *Engine) At(at Time, fn func()) EventID {
	if fn == nil {
		panic("sim: scheduling nil func")
	}
	ev := e.schedule(at)
	ev.fn = fn
	return EventID{e: e, ev: ev, gen: ev.gen}
}

// After schedules fn to run d from now. Negative d is treated as zero.
func (e *Engine) After(d Duration, fn func()) EventID {
	if d < 0 {
		d = 0
	}
	return e.At(e.now.Add(d), fn)
}

// AtArg schedules fn(arg) to run at absolute time at, ordered exactly
// like At. It is the allocation-free way to schedule per-item work: fn
// is a method value bound once when its component is built, and arg a
// pointer to the item (packet, in-flight operation), which an interface
// holds without allocating.
func (e *Engine) AtArg(at Time, fn func(any), arg any) EventID {
	if fn == nil {
		panic("sim: scheduling nil func")
	}
	ev := e.schedule(at)
	ev.fnArg = fn
	ev.arg = arg
	return EventID{e: e, ev: ev, gen: ev.gen}
}

// AfterArg schedules fn(arg) to run d from now. Negative d is treated
// as zero.
func (e *Engine) AfterArg(d Duration, fn func(any), arg any) EventID {
	if d < 0 {
		d = 0
	}
	return e.AtArg(e.now.Add(d), fn, arg)
}

// schedule queues a fresh event at time at under the next sequence
// number; the caller installs its callback.
func (e *Engine) schedule(at Time) *event {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past: now=%v at=%v", e.now, at))
	}
	ev := e.alloc()
	e.queue.push(at, e.seq, ev)
	e.seq++
	return ev
}

// Stop makes the current Run call return after the in-flight event.
func (e *Engine) Stop() { e.stopped = true }

// next returns the source of the earliest pending event — laneHeap for
// the heap, otherwise a lane index — and its time, or ok=false when
// nothing is pending. Stopped tickers met at lane heads are discarded
// here; they were already uncounted when stopped.
func (e *Engine) next() (src int, at Time, ok bool) {
	var best eventKey
	if e.queue.len() > 0 {
		best, src, ok = e.queue.s[0].eventKey, laneHeap, true
	}
	for i, l := range e.lanes {
		for l.q.Len() > 0 && l.q.Front().t.stopped {
			l.q.Pop()
		}
		if l.q.Len() == 0 {
			continue
		}
		if h := l.q.Front(); !ok || h.less(&best) {
			best, src, ok = h.eventKey, i, true
		}
	}
	return src, best.at, ok
}

// laneHeap is next's source index for the event heap.
const laneHeap = -1

// step executes the next event. It returns false when nothing is
// pending. A heap event is recycled before its callback runs, so the
// callback may immediately reuse the slot for a new schedule; its own
// EventID has already been invalidated by the generation bump.
func (e *Engine) step() bool {
	src, _, ok := e.next()
	if !ok {
		return false
	}
	e.fire(src)
	return true
}

// fire pops and runs the head event of src.
func (e *Engine) fire(src int) {
	if src != laneHeap {
		h := e.lanes[src].q.Pop()
		h.t.queued = false
		e.ticks--
		e.now = h.at
		h.t.tick()
		e.processed++
		return
	}
	top := e.queue.pop()
	ev := top.ev
	e.now = top.at
	fn, fnArg, arg := ev.fn, ev.fnArg, ev.arg
	e.recycle(ev)
	if fnArg != nil {
		fnArg(arg)
	} else {
		fn()
	}
	e.processed++
}

// Run executes events until the queue drains, Stop is called, or simulated
// time passes end (events at exactly end still run). It returns the time
// at which it stopped.
func (e *Engine) Run(end Time) Time {
	e.stopped = false
	for !e.stopped {
		src, at, ok := e.next()
		if !ok {
			break
		}
		if at > end {
			e.now = end
			break
		}
		e.fire(src)
	}
	if e.now < end && e.Pending() == 0 {
		// Queue drained before the horizon: advance the clock so rate
		// computations over the full window remain correct.
		e.now = end
	}
	return e.now
}

// Drain executes every remaining event regardless of time. Intended for
// tests; production runs always use Run with a horizon.
func (e *Engine) Drain() {
	for e.step() {
	}
}

// Every schedules fn to run every period, starting one period from now,
// until the returned Ticker is stopped. fn observes the tick time via
// Engine.Now.
//
// Ticks do not enter the event heap. Every ticker of one period shares
// a FIFO lane: a tick is always scheduled at now+period under a fresh
// sequence number, so each lane is already in (at, seq) order and the
// next event overall is the earliest of the heap head and the lane
// heads — the same total order, so runs stay bit-identical. Periodic
// timers (one retransmission scan per connection, epoch and driver
// ticks) make up most of a busy testbed's pending events; keeping them
// out of the heap keeps it shallow and spares each tick a sift.
func (e *Engine) Every(period Duration, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: Every with non-positive period")
	}
	t := &Ticker{engine: e, fn: fn, lane: e.lane(period)}
	t.schedule()
	return t
}

// lane returns the tick lane of a period, creating it on first use.
func (e *Engine) lane(period Duration) *tickLane {
	for _, l := range e.lanes {
		if l.period == period {
			return l
		}
	}
	l := &tickLane{period: period}
	e.lanes = append(e.lanes, l)
	return l
}

// tickLane queues the pending ticks of every ticker sharing one period.
type tickLane struct {
	period Duration
	q      FIFO[laneEntry]
}

type laneEntry struct {
	eventKey
	t *Ticker
}

// Ticker is a repeating event created by Engine.Every.
type Ticker struct {
	engine  *Engine
	fn      func()
	lane    *tickLane
	queued  bool // a tick is waiting in the lane
	stopped bool
}

// schedule queues the ticker's next tick one period from now.
func (t *Ticker) schedule() {
	e := t.engine
	e.ticks++
	t.queued = true
	t.lane.q.Push(laneEntry{eventKey{e.now.Add(t.lane.period), e.seq}, t})
	e.seq++
}

func (t *Ticker) tick() {
	t.fn()
	if !t.stopped {
		t.schedule()
	}
}

// Stop cancels future ticks. Safe to call multiple times, including
// from the ticker's own callback.
func (t *Ticker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	// The queued tick, if any, stays in its lane until it reaches the
	// head, where next discards it; it stops counting as pending now.
	if t.queued {
		t.queued = false
		t.engine.ticks--
	}
}

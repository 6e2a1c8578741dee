package runcache

import (
	"sync"
	"sync/atomic"

	"hic/internal/host"
	"hic/internal/obs"
)

// Flight collapses duplicate simulations of the same content-addressed
// key into one execution. Fleet distributions are discrete, so many
// hosts draw byte-identical core.Params; because every run is bit-
// deterministic for its Params, all of them can share one simulation's
// Results without changing any output.
//
// Two layers of collapsing:
//
//   - in-flight: concurrent Do calls for a key already being computed
//     park until the computation finishes and share its result;
//   - memo (optional): completed results are kept in-process so later
//     duplicates skip simulation entirely. Callers fronted by a Store
//     disable the memo — the store's write-through memory layer already
//     provides it — while store-less callers (store-less
//     core.RunMany, fleet runs without -cache) enable it. Memo size is
//     O(distinct keys), which for fleet workloads is the
//     archetype-catalog size, not the host count.
//
// Errors are returned to every caller that waited on the computation but
// are never memoized: a later Do for the same key recomputes.
type Flight struct {
	mu       sync.Mutex
	inflight map[string]*flightCall
	memo     map[string]host.Results
	collapse atomic.Uint64
}

type flightCall struct {
	done chan struct{}
	res  host.Results
	err  error
}

// NewFlight returns a Flight; memoize keeps completed results in-process
// (see the type comment for when to enable it).
func NewFlight(memoize bool) *Flight {
	f := &Flight{inflight: make(map[string]*flightCall)}
	if memoize {
		f.memo = make(map[string]host.Results)
	}
	return f
}

// Do returns the results for key, running compute at most once across
// concurrent and (with the memo enabled) repeated calls. Exactly one
// caller per key executes compute; the rest count as collapses.
func (f *Flight) Do(key string, compute func() (host.Results, error)) (host.Results, error) {
	f.mu.Lock()
	if f.memo != nil {
		if r, ok := f.memo[key]; ok {
			f.mu.Unlock()
			f.collapse.Add(1)
			emitCollapse(key, "memo")
			return r, nil
		}
	}
	if c, ok := f.inflight[key]; ok {
		f.mu.Unlock()
		f.collapse.Add(1)
		emitCollapse(key, "inflight")
		<-c.done
		return c.res, c.err
	}
	c := &flightCall{done: make(chan struct{})}
	f.inflight[key] = c
	f.mu.Unlock()

	c.res, c.err = compute()

	f.mu.Lock()
	delete(f.inflight, key)
	if c.err == nil && f.memo != nil {
		f.memo[key] = c.res
	}
	f.mu.Unlock()
	close(c.done)
	return c.res, c.err
}

// Collapses returns how many Do calls were served without running
// compute — the number of simulations dedup avoided.
func (f *Flight) Collapses() uint64 { return f.collapse.Load() }

// emitCollapse reports a dedup hit to the control plane when one is
// installed; the disabled path is one atomic load and a nil check.
func emitCollapse(key, why string) {
	if s := obs.Default(); s != nil {
		s.Emit(obs.Event{Kind: obs.KindCacheCollapse, Key: key, Why: why})
	}
}

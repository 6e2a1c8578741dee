package serve

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sync"
	"time"

	"hic/internal/cluster"
	"hic/internal/obs"
	"hic/internal/runcache"
	"hic/internal/stats"
)

// Options configures a coordinator.
type Options struct {
	// Store is the shared results cache. Required: the coordinator owns
	// the bytes (and the LRU eviction policy) and serves them to
	// workers at runcache.RemoteResultsPath.
	Store *runcache.Store
	// WarmStore, when non-nil, is the persistent warm-start store,
	// served to workers at runcache.RemoteWarmPath. Queries with
	// warm != off require it.
	WarmStore *runcache.Store
	// LeaseTimeout is how long a worker may sit on a range before the
	// coordinator re-dispenses it (0 = 30s). Completions from the
	// original holder after reassignment are rejected as duplicates —
	// first completion wins, so no range is ever double-counted.
	LeaseTimeout time.Duration
	// Obs, when non-nil, is the control plane sharing the coordinator's
	// mux: queries register as tracked runs (range completions advance
	// /progress), its endpoints are co-registered by Handler via
	// obs.(*Server).Register (host handlers winning conflicts), the
	// coordinator registers itself as a metric source (the federated
	// hic_worker_* series), and lease lifecycle events
	// (grant/done/expired, worker staleness WARNs) land on its event
	// stream.
	Obs *obs.Server
	// StaleAfter is how long a worker may go unseen before the registry
	// marks it stale — and, if it holds a lease, before the coordinator
	// WARNs (0 = LeaseTimeout/2, one reclaim cycle of early notice).
	StaleAfter time.Duration
	// Log receives one-line diagnostics (nil = silent).
	Log io.Writer
}

// Server is the coordinator: it owns the job queue, the lease protocol,
// the shared cache stores, and the range-ordered merge.
type Server struct {
	opts Options

	mu       sync.Mutex
	nextID   uint64
	workers  map[string]*workerState
	jobs     map[string]*job
	queries  uint64
	rangesOK uint64
}

// NewServer validates options and builds a coordinator. With an obs
// control plane configured, the coordinator registers itself as a
// metric source so one /metrics scrape shows the whole fleet's
// federated hic_worker_* series.
func NewServer(o Options) (*Server, error) {
	if o.Store == nil {
		return nil, fmt.Errorf("serve: Options.Store is required")
	}
	if o.LeaseTimeout <= 0 {
		o.LeaseTimeout = 30 * time.Second
	}
	s := &Server{
		opts:    o,
		workers: make(map[string]*workerState),
		jobs:    make(map[string]*job),
	}
	if o.Obs != nil {
		o.Obs.AddSource(s)
	}
	return s, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Log != nil {
		fmt.Fprintf(s.opts.Log, "serve: "+format+"\n", args...)
	}
}

// Handler returns the coordinator mux: query API, lease protocol,
// status, both cache mounts, and (when configured) the obs control
// plane on the same mux — one server, one port.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(QueryPath, s.handleQuery)
	mux.HandleFunc(RegisterPath, s.handleRegister)
	mux.HandleFunc(NextPath, s.handleNext)
	mux.HandleFunc(DonePath, s.handleDone)
	mux.HandleFunc(StatusPath, s.handleStatus)
	mux.HandleFunc(WorkersPath, s.handleWorkers)
	mux.Handle(runcache.RemoteResultsPath+"/",
		http.StripPrefix(runcache.RemoteResultsPath, runcache.BackendHandler(s.opts.Store.Backend())))
	if s.opts.WarmStore != nil {
		mux.Handle(runcache.RemoteWarmPath+"/",
			http.StripPrefix(runcache.RemoteWarmPath, runcache.BackendHandler(s.opts.WarmStore.Backend())))
	}
	if s.opts.Obs != nil {
		s.opts.Obs.Register(mux)
	}
	return mux
}

// shardRange is one dispensable unit of a job's fleet.
type shardRange struct {
	lo, hi   int
	worker   string // current lease holder ("" = pending)
	granted  time.Time
	deadline time.Time
	done     *RangePartial
}

// job is one in-flight query's sharding state. All fields are guarded
// by the owning Server's mu; signal has capacity 1 and is poked (never
// closed) whenever state the query handler waits on changes.
type job struct {
	id         string
	seq        uint64 // arrival order: the numeric part of id
	spec       QueryRequest
	ranges     []shardRange
	pending    []int // range ids not leased and not done, FIFO
	reassigned uint64
	duplicates uint64
	failed     string
	signal     chan struct{}

	// Prefetch phase: reps are the fleet's signature-representative host
	// indices, prefetch the leases chunking them ([lo, hi) index into
	// reps), prefetchPending the undispensed lease ids, and
	// prefetchLeft the not-yet-completed count — the soft barrier: this
	// job's ranges are not dispensed until it reaches zero (expired
	// prefetch leases are reclaimed like range leases, so a dead worker
	// delays the barrier by one lease timeout, never wedges it).
	// prefetchStats accumulates completed prefetch leases' calibration
	// accounting for the final merge.
	reps            []int
	prefetch        []shardRange
	prefetchPending []int
	prefetchLeft    int
	prefetchStats   cluster.Stats

	// trace collects the query's lifecycle spans (nil = untraced; every
	// queryTrace method no-ops on nil, so the disabled path costs a nil
	// check).
	trace *queryTrace
}

func (j *job) poke() {
	select {
	case j.signal <- struct{}{}:
	default:
	}
}

// reclaimExpired requeues every leased, unfinished range or prefetch
// lease whose deadline passed, attributes each expiry to the worker
// that held it, and returns the lease_expired events describing them
// (emit after unlocking). Called under the server lock from both the
// lease path (a polling worker picks the range right back up) and the
// query handler's ticker (so an expiry is detected even with no worker
// polling).
func (s *Server) reclaimExpired(j *job, now time.Time) []obs.Event {
	var evs []obs.Event
	expire := func(r *shardRange, id int, kind string) {
		if ws := s.workers[r.worker]; ws != nil {
			ws.expirations++
			if a := ws.active; a != nil && a.job == j.id && a.rangeID == id && a.kind == kind {
				ws.active = nil
			}
		}
		if s.opts.Obs != nil {
			evs = append(evs, obs.Event{
				Kind: obs.KindLeaseExpired, Run: "serve:" + j.id,
				Point: id, Key: r.worker, Route: kind,
				Why:   "lease deadline passed; requeued for reassignment",
				DurMS: float64(now.Sub(r.granted).Nanoseconds()) / 1e6,
			})
		}
		r.worker = ""
		j.reassigned++
	}
	for id := range j.ranges {
		r := &j.ranges[id]
		if r.done == nil && r.worker != "" && now.After(r.deadline) {
			expire(r, id, "range")
			j.pending = append(j.pending, id)
		}
	}
	for id := range j.prefetch {
		r := &j.prefetch[id]
		if r.done == nil && r.worker != "" && now.After(r.deadline) {
			expire(r, id, LeasePrefetch)
			j.prefetchPending = append(j.prefetchPending, id)
		}
	}
	return evs
}

// splitPrefetch chunks the signature representatives into about two
// prefetch leases per worker — wide enough to amortize lease round
// trips, narrow enough that every worker calibrates in parallel.
func splitPrefetch(reps, workers int) []shardRange {
	if reps == 0 {
		return nil
	}
	if workers < 1 {
		workers = 1
	}
	chunk := reps / (workers * 2)
	if chunk < 1 {
		chunk = 1
	}
	ranges := make([]shardRange, 0, (reps+chunk-1)/chunk)
	for lo := 0; lo < reps; lo += chunk {
		hi := lo + chunk
		if hi > reps {
			hi = reps
		}
		ranges = append(ranges, shardRange{lo: lo, hi: hi})
	}
	return ranges
}

// splitRanges carves [0, hosts) into contiguous ranges of rangeHosts
// (0 = about eight per worker, mirroring runner's chunk frontier).
func splitRanges(hosts, rangeHosts, workers int) []shardRange {
	if rangeHosts <= 0 {
		if workers < 1 {
			workers = 1
		}
		rangeHosts = hosts / (workers * 8)
		if rangeHosts < 1 {
			rangeHosts = 1
		}
	}
	ranges := make([]shardRange, 0, (hosts+rangeHosts-1)/rangeHosts)
	for lo := 0; lo < hosts; lo += rangeHosts {
		hi := lo + rangeHosts
		if hi > hosts {
			hi = hosts
		}
		ranges = append(ranges, shardRange{lo: lo, hi: hi})
	}
	return ranges
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req struct {
		Name string `json:"name"`
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	now := time.Now()
	s.mu.Lock()
	s.nextID++
	id := fmt.Sprintf("w%d", s.nextID)
	if req.Name != "" {
		id = fmt.Sprintf("w%d-%s", s.nextID, req.Name)
	}
	s.workers[id] = &workerState{id: id, name: req.Name, registered: now, lastSeen: now}
	s.mu.Unlock()
	s.logf("worker %s registered", id)
	writeJSON(w, map[string]string{"worker_id": id})
}

// jobsInOrder returns the jobs oldest first, by arrival sequence (the
// ids' string order would put q10 before q9). Call under s.mu.
func (s *Server) jobsInOrder() []*job {
	js := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		js = append(js, j)
	}
	slices.SortFunc(js, func(a, b *job) int { return cmp.Compare(a.seq, b.seq) })
	return js
}

func (s *Server) handleNext(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req struct {
		WorkerID string `json:"worker_id"`
		// BackoffMS is the worker's current idle poll backoff, for the
		// health registry (0 = working or polling at base cadence).
		BackoffMS float64 `json:"backoff_ms,omitempty"`
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	now := time.Now()
	var evs []obs.Event
	defer func() { s.emitEvents(evs) }()
	s.mu.Lock()
	defer s.mu.Unlock()
	ws, ok := s.workers[req.WorkerID]
	if !ok {
		http.Error(w, "unknown worker (register first)", http.StatusForbidden)
		return
	}
	ws.seen(now)
	ws.backoffMS = req.BackoffMS
	// grant records the lease on the registry and the trace, and queues
	// its lease_grant event.
	grant := func(j *job, rg *shardRange, rid int, kind string) {
		rg.worker = req.WorkerID
		rg.granted = now
		rg.deadline = now.Add(s.opts.LeaseTimeout)
		ws.active = &heldLease{job: j.id, rangeID: rid, kind: kind,
			lo: rg.lo, hi: rg.hi, since: now}
		ws.backoffMS = 0
		j.trace.grant(kind, now)
		if s.opts.Obs != nil {
			evs = append(evs, obs.Event{Kind: obs.KindLeaseGrant, Run: "serve:" + j.id,
				Point: rid, Key: req.WorkerID, Route: kind})
		}
	}
	// Oldest job first so queries complete in arrival order.
	for _, j := range s.jobsInOrder() {
		if j.failed != "" {
			continue
		}
		evs = append(evs, s.reclaimExpired(j, now)...)
		// Prefetch leases first; ranges of this job wait behind the
		// prefetch barrier so range execution starts against a hot cache
		// instead of racing the calibration it depends on. (Other jobs'
		// ranges still dispense — the barrier is per job.)
		if len(j.prefetchPending) > 0 {
			rid := j.prefetchPending[0]
			j.prefetchPending = j.prefetchPending[1:]
			rg := &j.prefetch[rid]
			grant(j, rg, rid, LeasePrefetch)
			writeJSON(w, Lease{Job: j.id, RangeID: rid, Kind: LeasePrefetch,
				Lo: rg.lo, Hi: rg.hi, Reps: j.reps[rg.lo:rg.hi], Spec: j.spec,
				Trace: j.traceID()})
			return
		}
		if j.prefetchLeft > 0 || len(j.pending) == 0 {
			continue
		}
		rid := j.pending[0]
		j.pending = j.pending[1:]
		rg := &j.ranges[rid]
		grant(j, rg, rid, "range")
		writeJSON(w, Lease{Job: j.id, RangeID: rid, Lo: rg.lo, Hi: rg.hi, Spec: j.spec,
			Trace: j.traceID()})
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// traceID returns the job id as the wire trace id when the query is
// traced, "" otherwise (the id doubles as the workers' enable flag).
func (j *job) traceID() string {
	if j.trace == nil {
		return ""
	}
	return j.id
}

// maxPartialBytes bounds one range completion's body. Points are ~100
// bytes each; 64 MiB covers a ~500k-point range with headroom.
const maxPartialBytes = 64 << 20

func (s *Server) handleDone(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var p RangePartial
	if err := json.NewDecoder(io.LimitReader(r.Body, maxPartialBytes)).Decode(&p); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	accepted := false
	now := time.Now()
	var evs []obs.Event
	defer func() { s.emitEvents(evs) }()
	// completionEvent queues the lease_done event for an accepted
	// completion; duplicate marks the reassignment race's losing side.
	completionEvent := func(j *job, rg *shardRange, kind string) {
		if s.opts.Obs == nil {
			return
		}
		evs = append(evs, obs.Event{Kind: obs.KindLeaseDone, Run: "serve:" + j.id,
			Point: p.RangeID, Key: p.Worker, Route: kind,
			DurMS: float64(now.Sub(rg.granted).Nanoseconds()) / 1e6})
	}
	duplicate := func(j *job) {
		j.duplicates++
		if ws := s.workers[p.Worker]; ws != nil {
			ws.seen(now)
			ws.duplicates++
		}
	}
	s.mu.Lock()
	j := s.jobs[p.Job]
	if j != nil && p.Prefetch {
		if p.RangeID >= 0 && p.RangeID < len(j.prefetch) {
			rg := &j.prefetch[p.RangeID]
			switch {
			case rg.done != nil:
				duplicate(j)
			default:
				// Prefetch failures are non-fatal: range execution
				// calibrates lazily on first touch, so the query loses
				// parallelism, not correctness.
				if p.Err != "" {
					s.logf("query %s: prefetch lease %d on %s failed (non-fatal): %s",
						j.id, p.RangeID, p.Worker, p.Err)
				}
				pc := p
				rg.done = &pc
				rg.worker = p.Worker
				sumStats(&j.prefetchStats, p.Stats)
				j.prefetchLeft--
				s.foldCompletion(&p, now)
				s.recordLeaseSpans(j, rg, &p, now)
				if j.prefetchLeft == 0 {
					j.trace.barrier(now)
				}
				completionEvent(j, rg, LeasePrefetch)
				accepted = true
			}
		}
		s.mu.Unlock()
		writeJSON(w, map[string]bool{"accepted": accepted})
		return
	}
	if j != nil && p.RangeID >= 0 && p.RangeID < len(j.ranges) {
		rg := &j.ranges[p.RangeID]
		switch {
		case rg.done != nil:
			// First completion won; this is the reassignment race's
			// losing side. Reject so no range is double-counted.
			duplicate(j)
		case p.Err != "":
			if j.failed == "" {
				j.failed = fmt.Sprintf("range [%d, %d) on %s: %s", p.Lo, p.Hi, p.Worker, p.Err)
			}
			if ws := s.workers[p.Worker]; ws != nil {
				ws.seen(now)
			}
			accepted = true
			j.poke()
		default:
			pc := p
			rg.done = &pc
			rg.worker = p.Worker
			s.foldCompletion(&p, now)
			s.recordLeaseSpans(j, rg, &p, now)
			j.trace.rangeDone(now)
			completionEvent(j, rg, "range")
			accepted = true
			s.rangesOK++
			j.poke()
		}
	}
	s.mu.Unlock()
	writeJSON(w, map[string]bool{"accepted": accepted})
}

// recordLeaseSpans adds the lease's spans to a traced query: the
// coordinator-observed envelope (grant to completion) on the worker's
// track, with the worker-reported execution window nested inside it
// (clamped to the envelope — worker clocks are not the coordinator's;
// on one box or NTP-disciplined hosts the clamp is a no-op). Called
// under the server lock; no-ops when the query is untraced.
func (s *Server) recordLeaseSpans(j *job, rg *shardRange, p *RangePartial, now time.Time) {
	if j.trace == nil {
		return
	}
	track := "worker " + p.Worker
	name := fmt.Sprintf("range %d [%d,%d)", p.RangeID, p.Lo, p.Hi)
	args := map[string]float64{"points": float64(len(p.Points))}
	if p.Prefetch {
		name = fmt.Sprintf("prefetch %d", p.RangeID)
		args = map[string]float64{"signatures": float64(p.Hi - p.Lo)}
	}
	for _, c := range p.Stats.CounterSamples() {
		switch c.Name {
		case "simulated_total", "collapsed_total", "fluid_routed_total",
			"anchor_runs_total", "anchor_transferred_total", "knee_probes_total":
			if c.Value != 0 {
				args[c.Name] = c.Value
			}
		}
	}
	j.trace.span(name, track, rg.granted, now, args)
	if p.ExecStartNs > 0 && p.ExecEndNs >= p.ExecStartNs {
		start, end := time.Unix(0, p.ExecStartNs), time.Unix(0, p.ExecEndNs)
		if start.Before(rg.granted) {
			start = rg.granted
		}
		if end.After(now) {
			end = now
		}
		j.trace.span("exec", track, start, end, nil)
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	type jobStatus struct {
		Job     string `json:"job"`
		Ranges  int    `json:"ranges"`
		Done    int    `json:"done"`
		Pending int    `json:"pending"`
	}
	out := struct {
		Workers  int         `json:"workers"`
		Queries  uint64      `json:"queries"`
		RangesOK uint64      `json:"ranges_completed"`
		Jobs     []jobStatus `json:"jobs"`
		Cache    struct {
			Entries int    `json:"entries"`
			Hits    uint64 `json:"hits"`
			Misses  uint64 `json:"misses"`
		} `json:"cache"`
	}{Workers: len(s.workers), Queries: s.queries, RangesOK: s.rangesOK}
	for _, j := range s.jobsInOrder() {
		done := 0
		for i := range j.ranges {
			if j.ranges[i].done != nil {
				done++
			}
		}
		out.Jobs = append(out.Jobs, jobStatus{Job: j.id, Ranges: len(j.ranges), Done: done, Pending: len(j.pending)})
	}
	s.mu.Unlock()
	cs := s.opts.Store.Stats()
	out.Cache.Entries, _ = s.opts.Store.Len()
	out.Cache.Hits, out.Cache.Misses = cs.Hits, cs.Misses
	writeJSON(w, out)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var q QueryRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&q); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := q.Validate(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if q.Warm != "" && q.Warm != "off" && s.opts.WarmStore == nil {
		http.Error(w, "serve: query wants warm start but the coordinator has no warm store", http.StatusBadRequest)
		return
	}

	start := time.Now()
	s.mu.Lock()
	s.queries++
	s.nextID++
	j := &job{
		id:     fmt.Sprintf("q%d", s.nextID),
		seq:    s.nextID,
		spec:   q,
		ranges: splitRanges(q.Hosts, q.RangeHosts, len(s.workers)),
		signal: make(chan struct{}, 1),
	}
	if q.Trace {
		j.trace = newQueryTrace(start)
	}
	for i := range j.ranges {
		j.pending = append(j.pending, i)
	}
	if q.Prefetchable() {
		// Param generation only (no simulation): one representative host
		// per distinct fidelity signature, chunked into prefetch leases.
		j.reps = cluster.SignatureReps(q.ClusterConfig())
		j.prefetch = splitPrefetch(len(j.reps), len(s.workers))
		for i := range j.prefetch {
			j.prefetchPending = append(j.prefetchPending, i)
		}
		j.prefetchLeft = len(j.prefetch)
	}
	s.jobs[j.id] = j
	nworkers := len(s.workers)
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.jobs, j.id)
		s.mu.Unlock()
	}()
	s.logf("query %s: %d hosts in %d ranges across %d workers (%d signatures in %d prefetch leases)",
		j.id, q.Hosts, len(j.ranges), nworkers, len(j.reps), len(j.prefetch))

	var orun *obs.Run
	if s.opts.Obs != nil {
		orun = s.opts.Obs.StartRun("serve:"+j.id, int64(len(j.ranges)))
		defer orun.Finish()
	}

	w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	writeLine := func(e QueryEvent) error {
		if err := enc.Encode(e); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}

	// The merge. Points fold in range order through the same aggregator
	// a single-process RunStream uses (cluster.Summarize's path), so
	// the quantile reservoir sees the identical insertion order and the
	// result is byte-identical to an unsharded run. The workers' moment
	// partials merge alongside, also in range order, as a cross-check.
	hasher := cluster.NewPointHasher()
	var folded []cluster.Point
	var utilMerged, dropMerged stats.Moments
	var sum cluster.Stats
	next, doneRanges, workersSeen := 0, 0, map[string]bool{}

	ticker := time.NewTicker(s.opts.LeaseTimeout / 4)
	defer ticker.Stop()
	var deadline <-chan time.Time
	if q.TimeoutSec > 0 {
		t := time.NewTimer(time.Duration(q.TimeoutSec * float64(time.Second)))
		defer t.Stop()
		deadline = t.C
	}
	fail := func(msg string) {
		s.logf("query %s failed: %s", j.id, msg)
		writeLine(QueryEvent{Kind: KindError, Error: msg}) //nolint:errcheck // already failing
	}

	for next < len(j.ranges) {
		select {
		case <-j.signal:
		case <-ticker.C:
			// Liveness with no polling workers: expire leases so the
			// next poll reassigns, notice worker-reported failures, and
			// WARN about stale workers before their leases expire.
			now := time.Now()
			s.mu.Lock()
			evs := s.reclaimExpired(j, now)
			evs = append(evs, s.checkStale(now)...)
			s.mu.Unlock()
			s.emitEvents(evs)
		case <-deadline:
			fail(fmt.Sprintf("query timed out after %gs with %d/%d ranges merged",
				q.TimeoutSec, doneRanges, len(j.ranges)))
			return
		case <-r.Context().Done():
			s.logf("query %s: client went away", j.id)
			return
		}

		// Collect the contiguous completed prefix under the lock, fold
		// and stream outside it.
		var ready []*RangePartial
		s.mu.Lock()
		failed := j.failed
		for next+len(ready) < len(j.ranges) {
			p := j.ranges[next+len(ready)].done
			if p == nil {
				break
			}
			ready = append(ready, p)
		}
		s.mu.Unlock()
		if failed != "" {
			fail(failed)
			return
		}
		if len(ready) > 0 {
			j.trace.fold(time.Now())
		}
		for _, p := range ready {
			for _, pt := range p.Points {
				hasher.Add(pt)
				folded = append(folded, pt)
				if q.Points {
					pt := pt
					if err := writeLine(QueryEvent{Kind: KindPoint, Point: &pt}); err != nil {
						return
					}
				}
			}
			utilMerged.Merge(p.Util)
			dropMerged.Merge(p.Drop)
			sumStats(&sum, p.Stats)
			workersSeen[p.Worker] = true
			next++
			doneRanges++
			orun.Advance(1)
			if err := writeLine(QueryEvent{Kind: KindRange, Range: &RangeDone{
				RangeID: next - 1, Lo: p.Lo, Hi: p.Hi, Worker: p.Worker,
				Done: doneRanges, Total: len(j.ranges),
			}}); err != nil {
				return
			}
		}
	}

	res := s.finishQuery(j, q, folded, hasher, utilMerged, dropMerged, sum, workersSeen, start)
	writeLine(QueryEvent{Kind: KindResult, Result: &res}) //nolint:errcheck // terminal line
	s.logf("query %s: merged %d points, hash %s, %.0f hosts/s",
		j.id, res.Points, res.AggregateHash, res.HostsPerSec)
}

// finishQuery assembles the merged result: scatter statistics from the
// point fold (authoritative), execution counters summed from partials,
// and the moment-merge cross-check.
func (s *Server) finishQuery(j *job, q QueryRequest, folded []cluster.Point,
	hasher *cluster.PointHasher, utilMerged, dropMerged stats.Moments,
	sum cluster.Stats, workersSeen map[string]bool, start time.Time) QueryResult {

	// Calibration performed under prefetch leases is part of the query's
	// execution accounting even though no range contains it.
	s.mu.Lock()
	sumStats(&sum, j.prefetchStats)
	prefetched := len(j.reps)
	s.mu.Unlock()

	merged := cluster.Summarize(folded)
	// Execution accounting lives only in the partials.
	merged.Simulated, merged.Collapsed, merged.CacheSkipped = sum.Simulated, sum.Collapsed, sum.CacheSkipped
	merged.FluidRouted, merged.EarlyStopped, merged.AnchorRuns = sum.FluidRouted, sum.EarlyStopped, sum.AnchorRuns
	merged.Audited, merged.AuditOverTol, merged.AuditMaxErr = sum.Audited, sum.AuditOverTol, sum.AuditMaxErr
	merged.AnchorTransferred, merged.AnchorRefined = sum.AnchorTransferred, sum.AnchorRefined
	merged.KneeProbes, merged.KneeBypassed = sum.KneeProbes, sum.KneeBypassed
	merged.AnchorLoaded, merged.AnchorPersisted = sum.AnchorLoaded, sum.AnchorPersisted
	merged.WarmStarted, merged.WarmCheckpoints = sum.WarmStarted, sum.WarmCheckpoints
	merged.WarmAudited, merged.WarmAuditOverTol, merged.WarmAuditMaxErr = sum.WarmAudited, sum.WarmAuditOverTol, sum.WarmAuditMaxErr

	skew := math.Max(
		math.Max(math.Abs(utilMerged.Mean()-merged.MeanUtilization),
			math.Abs(dropMerged.Mean()-merged.MeanDropRate)),
		math.Abs(float64(utilMerged.N())-float64(merged.Hosts)))

	elapsed := time.Since(start)
	s.mu.Lock()
	res := QueryResult{
		Stats:         merged,
		AggregateHash: hasher.Sum(),
		Points:        hasher.Count(),
		Ranges:        len(j.ranges),
		Workers:       len(workersSeen),
		Reassigned:    j.reassigned,
		Duplicates:    j.duplicates,
		Prefetched:    prefetched,
		MergeSkew:     skew,
		ElapsedMS:     float64(elapsed.Nanoseconds()) / 1e6,
	}
	s.mu.Unlock()
	if elapsed > 0 {
		res.HostsPerSec = float64(q.Hosts) / elapsed.Seconds()
	}
	if j.trace != nil {
		res.TraceID = j.id
		res.Trace, res.Phases = j.trace.finish(time.Now())
	}
	return res
}

// sumStats adds the execution counters of one partial into the running
// total (scatter statistics are recomputed from the folded points, not
// summed — range-local quantiles do not merge).
func sumStats(dst *cluster.Stats, p cluster.Stats) {
	dst.Simulated += p.Simulated
	dst.Collapsed += p.Collapsed
	dst.CacheSkipped += p.CacheSkipped
	dst.FluidRouted += p.FluidRouted
	dst.EarlyStopped += p.EarlyStopped
	dst.AnchorRuns += p.AnchorRuns
	dst.Audited += p.Audited
	dst.AuditOverTol += p.AuditOverTol
	dst.AuditMaxErr = math.Max(dst.AuditMaxErr, p.AuditMaxErr)
	dst.AnchorTransferred += p.AnchorTransferred
	dst.AnchorRefined += p.AnchorRefined
	dst.KneeProbes += p.KneeProbes
	dst.KneeBypassed += p.KneeBypassed
	dst.AnchorLoaded += p.AnchorLoaded
	dst.AnchorPersisted += p.AnchorPersisted
	dst.WarmStarted += p.WarmStarted
	dst.WarmCheckpoints += p.WarmCheckpoints
	dst.WarmAudited += p.WarmAudited
	dst.WarmAuditOverTol += p.WarmAuditOverTol
	dst.WarmAuditMaxErr = math.Max(dst.WarmAuditMaxErr, p.WarmAuditMaxErr)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client disconnects are not ours
}

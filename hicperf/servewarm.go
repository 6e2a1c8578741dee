package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hic/internal/obs"
	"hic/internal/runcache"
	"hic/internal/serve"
	"hic/internal/trace"
)

// serveClients is the closed loop's client count: one per CPU of the
// two-CPU box the workload was sized on, and no more, since load comes
// from one process.
const serveClients = 2

// serveQuery is the query the serve section of cmd/hicbench issues,
// with the fleet drawn from the workload seed.
func serveQuery(o opts) serve.QueryRequest {
	q := serve.QueryRequest{
		Hosts:     400,
		Seed:      o.seed,
		WarmupMS:  2,
		MeasureMS: 3,
		Fidelity:  "auto",
		Tol:       0.1,
		EarlyStop: true,
	}
	if o.small {
		q.Hosts = 24
	}
	// Fixed shard granularity, so the lease traffic per query does not
	// depend on the machine.
	q.RangeHosts = (q.Hosts + 15) / 16
	return q
}

// serveStack is a coordinator and two single-threaded workers in this
// process, talking over loopback HTTP as cmd/hicbench wires them.
type serveStack struct {
	base   string
	client *serve.Client
	meter  *httpMeter
	stores *backendMeter
	stop   func()
}

func startServe(o opts, tr *tracer) (*serveStack, error) {
	st := &serveStack{stores: &backendMeter{tr: tr}, meter: &httpMeter{tr: tr, routes: map[string]*routeStat{}}}
	var meter *backendMeter
	if tr != nil {
		meter = st.stores
	}
	cache, err := openStore(filepath.Join(o.tmpDir, "serve-cache"), meter)
	if err != nil {
		return nil, err
	}
	obsSrv := obs.NewServer(obs.Options{Warn: os.Stderr})
	srv, err := serve.NewServer(serve.Options{Store: cache, LeaseTimeout: 2 * time.Minute, Obs: obsSrv})
	if err != nil {
		obsSrv.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		obsSrv.Close()
		return nil, err
	}
	var h http.Handler = srv.Handler()
	if tr != nil {
		h = st.meter.wrap(h)
	}
	hs := &http.Server{Handler: h}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		hs.Serve(ln) //nolint:errcheck // returns on Close
	}()
	st.base = "http://" + ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	for i := 0; i < 2; i++ {
		w := serve.NewWorker(st.base, serve.WorkerOptions{Name: fmt.Sprintf("w%d", i), Threads: 1})
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx) //nolint:errcheck // ends with ctx
		}()
	}
	st.client = serve.NewClient(st.base, nil)
	st.stop = func() {
		cancel()
		hs.Close()
		wg.Wait()
		obsSrv.Close()
	}
	return st, nil
}

// serveLoop is serveClients closed-loop clients re-issuing q for d.
type serveLoop struct {
	lat     []time.Duration
	wall    time.Duration
	hashes  map[string]int
	phases  []*serve.PhaseWall
	spans   []trace.WallSpan
	errs    []error
	queries int
}

func runServeLoop(st *serveStack, q serve.QueryRequest, d time.Duration, tr *tracer) serveLoop {
	var out serveLoop
	out.hashes = map[string]int{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	seq := 0
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				mu.Lock()
				id := seq
				seq++
				mu.Unlock()
				sp := tr.begin("serve.query", id)
				t0 := time.Now()
				res, err := st.client.Query(context.Background(), q, nil)
				lat := time.Since(t0)
				tr.end(sp)
				mu.Lock()
				out.queries++
				if err != nil {
					out.errs = append(out.errs, err)
				} else {
					out.lat = append(out.lat, lat)
					out.hashes[res.AggregateHash]++
					if res.Phases != nil {
						out.phases = append(out.phases, res.Phases)
					}
					out.spans = append(out.spans, serve.WallSpans(res.Trace)...)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	out.wall = time.Since(start)
	return out
}

// checkServe adds the loop's checks: no errors and every query's hash
// equal to the priming query's.
func checkServe(r *report, loop serveLoop, want, label string) {
	r.attempted += loop.queries
	r.failed += len(loop.errs)
	detail := "none"
	if len(loop.errs) > 0 {
		detail = loop.errs[0].Error()
	}
	r.check(label+"queries_ok", len(loop.errs) == 0, "%d of %d queries failed; first error: %s", len(loop.errs), loop.queries, detail)
	r.check(label+"hash_equal_priming", len(loop.hashes) == 1 && loop.hashes[want] == len(loop.lat),
		"hashes %v, priming %s", loop.hashes, want)
}

// runServeWarm is the serve_warm workload: set-up starts the stack and
// issues one cold priming query; the timed part is a closed loop of two
// clients re-issuing it, so every range is answered from the run cache
// over HTTP and DES and calibration do nothing. A request is one query.
func runServeWarm(o opts) (*report, error) {
	r := newReport()
	q := serveQuery(o)
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	t0 := time.Now()
	st, err := startServe(o, tr)
	if err != nil {
		return nil, err
	}
	defer st.stop()
	prime, err := st.client.Query(context.Background(), q, nil)
	if err != nil {
		return nil, fmt.Errorf("priming query: %w", err)
	}
	r.values["setup_s"] = time.Since(t0).Seconds()
	if want, ok := pinnedDigest("serve_warm", o); ok {
		r.check("priming_pinned", prime.AggregateHash == want, "priming hash %s, pinned %s", prime.AggregateHash, want)
	}

	plain := runServeLoop(st, q, o.loopTime(), nil)
	checkServe(r, plain, prime.AggregateHash, "")
	if len(plain.lat) == 0 {
		return r, nil
	}
	setLatency(r, plain.lat, plain.wall, q.Hosts)
	if !o.trace {
		return r, nil
	}

	// Traced loop: the coordinator's own query tracing, the handler
	// middleware and the store meter on, plus client query spans.
	tq := q
	tq.Trace = true
	var traced serveLoop
	if err := profiled(r, o, "serve_warm", func() {
		st.meter.on.Store(true)
		st.stores.on.Store(true)
		traced = runServeLoop(st, tq, o.loopTime(), tr)
		st.meter.on.Store(false)
		st.stores.on.Store(false)
	}); err != nil {
		return nil, err
	}
	checkServe(r, traced, prime.AggregateHash, "traced_")
	if err := tr.write(filepath.Join(o.outDir, "serve_warm.trace.json"), "hicperf serve_warm", traced.spans); err != nil {
		return nil, err
	}
	if len(traced.lat) == 0 {
		return r, nil
	}

	r.zero("host.", "sim.", "des.", "model.", "fleet.", "fidelity.", "exec.", "cluster.", "runner.")
	r.values["trace_overhead"] = median(ms(traced.lat)) / median(ms(plain.lat))
	var queue, prefetch, execute, merge []float64
	for _, p := range traced.phases {
		queue = append(queue, p.QueueMS)
		prefetch = append(prefetch, p.PrefetchMS)
		execute = append(execute, p.ExecuteMS)
		merge = append(merge, p.MergeMS)
	}
	r.values["serve.queue_ms"] = median(queue)
	r.values["serve.prefetch_ms"] = median(prefetch)
	r.values["serve.execute_ms"] = median(execute)
	r.values["serve.merge_ms"] = median(merge)
	st.meter.report(r, len(traced.lat))
	st.stores.report(r)
	return r, nil
}

// routeStat is one coordinator route's traced traffic.
type routeStat struct {
	n, empty int
	dur      time.Duration
}

// httpMeter counts and times the coordinator's requests by route while
// on, and passes them straight through while off.
type httpMeter struct {
	tr *tracer
	on atomic.Bool

	mu     sync.Mutex
	routes map[string]*routeStat
}

// route names a request's endpoint: the lease protocol, the cache
// mounts, or the query API.
func route(path string) string {
	switch {
	case path == serve.NextPath:
		return "next"
	case path == serve.DonePath:
		return "done"
	case path == serve.QueryPath:
		return "query"
	case strings.HasPrefix(path, runcache.RemoteResultsPath), strings.HasPrefix(path, runcache.RemoteWarmPath):
		return "cache"
	}
	return "other"
}

// statusWriter records the status a handler wrote and keeps the
// streaming query response flushable.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (m *httpMeter) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !m.on.Load() {
			h.ServeHTTP(w, req)
			return
		}
		name := route(req.URL.Path)
		sp := m.tr.begin("http."+name, 0)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		t0 := time.Now()
		h.ServeHTTP(sw, req)
		d := time.Since(t0)
		m.tr.end(sp)
		m.mu.Lock()
		rs := m.routes[name]
		if rs == nil {
			rs = &routeStat{}
			m.routes[name] = rs
		}
		rs.n++
		rs.dur += d
		if sw.status == http.StatusNoContent {
			rs.empty++
		}
		m.mu.Unlock()
	})
}

// report sets the per-query protocol metrics over queries queries.
func (m *httpMeter) report(r *report, queries int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	get := func(name string) routeStat {
		if rs := m.routes[name]; rs != nil {
			return *rs
		}
		return routeStat{}
	}
	q := float64(queries)
	next, done, cache := get("next"), get("done"), get("cache")
	r.values["serve.next_req_per_query"] = float64(next.n) / q
	r.values["serve.done_req_per_query"] = float64(done.n) / q
	r.values["serve.cache_req_per_query"] = float64(cache.n) / q
	r.values["serve.empty_poll_frac"] = float64(next.empty) / float64(max(next.n, 1))
	var handler time.Duration
	for name, rs := range m.routes {
		if name != "query" {
			handler += rs.dur
		}
	}
	r.values["serve.handler_ms_per_query"] = float64(handler.Nanoseconds()) / 1e6 / q
}

// Command hicperf is the repository benchmark: it drives the simulator
// only through its public functions, under three workloads that stress
// different layers, and prints every end-to-end metric (tracing off)
// or every per-layer metric (a separate traced run) by name with its
// unit, next to the correctness checks that guard them.
//
//	go run . --workload des_points --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {"name": {"value": v, "unit": u}, ...}}
//
// A human-readable table of metrics and checks goes to standard error.
// README.md explains why each workload exists and which end-to-end
// metric each per-layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricSpec names one metric the benchmark reports. The lists below
// are the source of truth BENCHMARK.json mirrors (a test keeps the two
// in step).
type metricSpec struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are reported by every workload with tracing off; the
// meaning of a "request" on each workload is in README.md.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"request_ms_p50", "ms", "lower"},
	{"request_ms_p90", "ms", "lower"},
	{"hosts_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are reported by every workload's traced run. A layer the
// workload does not exercise reads 0 there.
var perLayer = []metricSpec{
	{"trace_overhead", "ratio", "lower"},
	{"runtime.gc_cpu_frac", "frac", "lower"},

	{"host.build_ms_p50", "ms", "lower"},
	{"sim.events_per_point", "count", "lower"},
	{"sim.events_per_s", "1/s", "higher"},
	{"sim.ns_per_event", "ns", "lower"},
	{"sim.host_ns_per_rx_packet", "ns", "lower"},
	{"des.allocs_per_point", "count", "lower"},
	{"des.bytes_per_point", "B", "lower"},

	{"cpu.sim", "frac", "lower"},
	{"cpu.host", "frac", "lower"},
	{"cpu.nic", "frac", "lower"},
	{"cpu.pcie", "frac", "lower"},
	{"cpu.iommu", "frac", "lower"},
	{"cpu.mem", "frac", "lower"},
	{"cpu.cpu", "frac", "lower"},
	{"cpu.transport", "frac", "lower"},
	{"cpu.metrics", "frac", "lower"},
	{"cpu.pkt", "frac", "lower"},
	{"cpu.fluid", "frac", "lower"},
	{"cpu.runtime", "frac", "lower"},
	{"cpu.stdlib", "frac", "lower"},
	{"cpu.other", "frac", "lower"},

	{"model.nic.rx_packets", "count", "higher"},
	{"model.nic.rx_drops", "count", "lower"},
	{"model.pcie.tx_tlps", "count", "higher"},
	{"model.iommu.iotlb_misses", "count", "lower"},
	{"model.iommu.walk_reads", "count", "lower"},
	{"model.mem.io_requests", "count", "higher"},
	{"model.transport.retx_packets", "count", "lower"},

	{"fleet.cold_hosts_per_s", "1/s", "higher"},
	{"fleet.warm_hosts_per_s", "1/s", "higher"},
	{"fidelity.err_max", "frac", "lower"},
	{"fidelity.plan_s", "s", "lower"},
	{"fidelity.des_per_host", "count", "lower"},
	{"exec.des_n", "count", "lower"},
	{"exec.des_s", "s", "lower"},
	{"exec.fluid_n", "count", "higher"},
	{"exec.fluid_s", "s", "lower"},
	{"exec.warm_n", "count", "higher"},
	{"exec.warm_s", "s", "lower"},
	{"fidelity.cold.anchor_runs", "count", "lower"},
	{"fidelity.cold.knee_probes", "count", "lower"},
	{"fidelity.cold.des_routed", "count", "lower"},
	{"fidelity.cold.fluid_routed", "count", "higher"},
	{"fidelity.cold.audited", "count", "lower"},
	{"fidelity.cold.anchor_loaded", "count", "higher"},
	{"fidelity.cold.warm_started", "count", "higher"},
	{"fidelity.warm.anchor_runs", "count", "lower"},
	{"fidelity.warm.knee_probes", "count", "lower"},
	{"fidelity.warm.des_routed", "count", "lower"},
	{"fidelity.warm.fluid_routed", "count", "higher"},
	{"fidelity.warm.audited", "count", "lower"},
	{"fidelity.warm.anchor_loaded", "count", "higher"},
	{"fidelity.warm.warm_started", "count", "higher"},
	{"cluster.dedup_frac", "frac", "higher"},
	{"runner.util", "frac", "higher"},
	{"runcache.load_n", "count", "lower"},
	{"runcache.load_ms", "ms", "lower"},
	{"runcache.store_n", "count", "lower"},
	{"runcache.store_ms", "ms", "lower"},
	{"runcache.hit_frac", "frac", "higher"},
	{"runcache.stored_mb", "MB", "lower"},

	{"serve.queue_ms", "ms", "lower"},
	{"serve.prefetch_ms", "ms", "lower"},
	{"serve.execute_ms", "ms", "lower"},
	{"serve.merge_ms", "ms", "lower"},
	{"serve.next_req_per_query", "count", "lower"},
	{"serve.done_req_per_query", "count", "lower"},
	{"serve.cache_req_per_query", "count", "lower"},
	{"serve.empty_poll_frac", "frac", "lower"},
	{"serve.handler_ms_per_query", "ms", "lower"},
}

// workloads maps each workload name to the function that runs it. Each
// sets the end-to-end metrics, and the per-layer ones too when
// opts.trace is set.
var workloads = map[string]func(opts) (*report, error){
	"des_points": runDESPoints,
	"fleet":      runFleet,
	"serve_warm": runServeWarm,
}

// opts are one invocation's settings.
type opts struct {
	seed    uint64
	seconds float64
	trace   bool
	// outDir receives the Chrome trace and CPU profile of traced runs.
	outDir string
	// tmpDir holds the run's throwaway caches; removed at exit.
	tmpDir string
	// small shrinks every workload to a smoke size (tests only).
	small bool
}

// report is what running a workload produces.
type report struct {
	attempted int
	failed    int
	values    map[string]float64
	checks    []check
}

// check is one correctness check printed beside the metrics; a note
// is printed the same way but cannot fail.
type check struct {
	name   string
	ok     bool
	note   bool
	detail string
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

func (r *report) note(name string, format string, args ...any) {
	r.checks = append(r.checks, check{name: name, ok: true, note: true, detail: fmt.Sprintf(format, args...)})
}

// zero reports 0 for every per-layer metric under the given prefixes
// that the workload left unset: layers it does not exercise.
func (r *report) zero(prefixes ...string) {
	for _, m := range perLayer {
		for _, p := range prefixes {
			if _, set := r.values[m.Name]; !set && strings.HasPrefix(m.Name, p) {
				r.values[m.Name] = 0
			}
		}
	}
}

func (r *report) correct() bool {
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	return len(r.checks) > 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// finish turns a report into the output line: exactly the metric list
// of the run's mode, each with its unit. A metric the workload did
// not set is a bug in it, reported as a failed check.
func finish(r *report, trace bool) output {
	specs := endToEnd
	if trace {
		specs = perLayer
	}
	out := output{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	var missing []string
	for _, s := range specs {
		v, ok := r.values[s.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, s.Name)
			v = 0
		}
		out.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	if len(missing) > 0 {
		r.check("metrics_complete", false, "missing or non-finite: %v", missing)
	}
	out.Correct = r.correct()
	return out
}

func main() {
	workload := flag.String("workload", "", "workload to run: des_points, fleet or serve_warm")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 15, "how long the timed part of the run lasts")
	traceFlag := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	outDir := flag.String("out-dir", filepath.Join(".bench_build", "hicperf"), "where traced runs write their Chrome trace and CPU profile")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "hicperf: need --workload des_points|fleet|serve_warm, --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}
	o := opts{seed: *seed, seconds: *seconds, trace: *traceFlag == 1, outDir: *outDir}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "hicperf: %v\n", err)
		os.Exit(1)
	}
	tmp, err := os.MkdirTemp(o.outDir, "tmp-"+*workload+"-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "hicperf: %v\n", err)
		os.Exit(1)
	}
	o.tmpDir = tmp
	rep, err := run(o)
	os.RemoveAll(tmp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hicperf: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	rep.values["peak_rss_mb"] = peakRSSMB()
	out := finish(rep, o.trace)
	printTable(*workload, o, rep, out)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hicperf: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// printTable writes the human-readable view to standard error.
func printTable(workload string, o opts, r *report, out output) {
	mode := "end-to-end"
	if o.trace {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(os.Stderr, "hicperf %s seed=%d seconds=%g %s on %s/%s, %d CPUs\n",
		workload, o.seed, o.seconds, mode, runtime.GOOS, runtime.GOARCH, runtime.NumCPU())
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := out.Metrics[n]
		fmt.Fprintf(os.Stderr, "  %-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(os.Stderr, "  %-32s %14.6g (%d of %d operations)\n", "failed_frac", frac, r.failed, r.attempted)
	for _, c := range r.checks {
		status := "ok  "
		switch {
		case !c.ok:
			status = "FAIL"
		case c.note:
			status = "note"
		}
		fmt.Fprintf(os.Stderr, "  check %s %-24s %s\n", status, c.name, c.detail)
	}
}

// timedLoop calls op until d has elapsed, at least min times, and
// returns each call's wall time. An error from op ends the loop.
func timedLoop(d time.Duration, min int, op func(i int) error) ([]time.Duration, time.Duration, error) {
	var lat []time.Duration
	start := time.Now()
	for i := 0; i < min || time.Since(start) < d; i++ {
		t0 := time.Now()
		if err := op(i); err != nil {
			return lat, time.Since(start), err
		}
		lat = append(lat, time.Since(t0))
	}
	return lat, time.Since(start), nil
}

// loopTime is how long each timed loop runs: all of --seconds, or half
// of it for each of the untraced and traced loops of a traced run.
func (o opts) loopTime() time.Duration {
	d := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		d /= 2
	}
	return d
}

// Package sweep provides a declarative parameter-sweep harness over
// core.Params: name the axes (field + values), and the sweep runs the
// cross product in parallel, emitting one row per point with the headline
// measurements. cmd/hicsweep exposes it as a JSON-driven tool, so new
// explorations need no new Go code.
package sweep

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"hic/internal/asciiplot"
	"hic/internal/core"
	"hic/internal/host"
	"hic/internal/obs"
	"hic/internal/observatory"
	"hic/internal/runcache"
	"hic/internal/runner"
	"hic/internal/sim"
	"hic/internal/telemetry"
)

// Axis is one swept dimension: a named parameter and its values.
type Axis struct {
	// Param names the swept knob; see Apply for the accepted names.
	Param string `json:"param"`
	// Values are the points along this axis.
	Values []float64 `json:"values"`
}

// Spec is a full sweep: a base scenario and the axes to cross.
type Spec struct {
	// Base is the starting scenario (zero value ⇒ core.DefaultParams(12)
	// with Threads overridable by an axis).
	Base core.Params `json:"base"`
	// Axes are crossed in order; the last axis varies fastest.
	Axes []Axis `json:"axes"`
}

// knownParams maps axis names to Params mutations.
var knownParams = map[string]func(*core.Params, float64){
	"threads":          func(p *core.Params, v float64) { p.Threads = int(v) },
	"senders":          func(p *core.Params, v float64) { p.Senders = int(v) },
	"region_mb":        func(p *core.Params, v float64) { p.RxRegionBytes = uint64(v) << 20 },
	"iommu":            func(p *core.Params, v float64) { p.IOMMU = v != 0 },
	"hugepages":        func(p *core.Params, v float64) { p.Hugepages = v != 0 },
	"antagonists":      func(p *core.Params, v float64) { p.AntagonistCores = int(v) },
	"host_target_us":   func(p *core.Params, v float64) { p.HostTarget = sim.Duration(v) * sim.Microsecond },
	"nic_buffer_kb":    func(p *core.Params, v float64) { p.NICBufferBytes = int(v) << 10 },
	"device_tlb":       func(p *core.Params, v float64) { p.DeviceTLBEntries = int(v) },
	"link_scale":       func(p *core.Params, v float64) { p.LinkLatencyScale = v },
	"io_reserved":      func(p *core.Params, v float64) { p.MemoryIOReservedShare = v },
	"offered_gbps":     func(p *core.Params, v float64) { p.OfferedGbps = v },
	"subrtt":           func(p *core.Params, v float64) { p.SubRTTHostECN = v != 0 },
	"strict_iommu":     func(p *core.Params, v float64) { p.StrictIOMMU = v != 0 },
	"cpu_cores":        func(p *core.Params, v float64) { p.CPUCores = int(v) },
	"remote_numa":      func(p *core.Params, v float64) { p.AntagonistRemoteNUMA = v != 0 },
	"per_queue_bufs":   func(p *core.Params, v float64) { p.PerQueueNICBuffers = v != 0 },
	"victim_conn_gbps": func(p *core.Params, v float64) { p.VictimConnGbps = v },
	"burst_duty":       func(p *core.Params, v float64) { p.BurstDuty = v },
	"seed":             func(p *core.Params, v float64) { p.Seed = uint64(v) },
}

// KnownParams lists the accepted axis names, sorted.
func KnownParams() []string {
	names := make([]string, 0, len(knownParams))
	for n := range knownParams {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Validate checks the spec before running.
func (s Spec) Validate() error {
	if len(s.Axes) == 0 {
		return fmt.Errorf("sweep: no axes")
	}
	total := 1
	for _, a := range s.Axes {
		if len(a.Values) == 0 {
			return fmt.Errorf("sweep: axis %q has no values", a.Param)
		}
		if _, ok := knownParams[a.Param]; !ok {
			return fmt.Errorf("sweep: unknown parameter %q (known: %s)",
				a.Param, strings.Join(KnownParams(), ", "))
		}
		total *= len(a.Values)
		if total > 4096 {
			return fmt.Errorf("sweep: cross product exceeds 4096 points")
		}
	}
	return nil
}

// Row is one sweep point's coordinates and measurements. Telemetry is
// non-nil only for RunDetailed sweeps; Incidents only for RunObserved
// sweeps.
type Row struct {
	Coords    []float64
	Results   core.Results
	Telemetry *telemetry.Summary
	// TelemetrySkippedFluid marks a detailed-sweep point that was
	// fluid-routed by the executor: the analytical solver has no packet
	// path, so there are no spans to record and Telemetry is nil. The
	// JSONL exporter skips these rows and reports the count instead of
	// emitting empty span records.
	TelemetrySkippedFluid bool
	// Incidents is the sim-time observatory report for this grid point
	// (RunObserved sweeps only): the congestion episodes the host
	// experienced, with root-cause attribution.
	Incidents *observatory.HostReport
}

// points enumerates the cross product and lowers each coordinate vector
// onto a Params.
func points(spec Spec) ([][]float64, []core.Params) {
	base := spec.Base
	if base.Threads == 0 {
		base = core.DefaultParams(12)
	}
	var coords [][]float64
	var rec func(prefix []float64, depth int)
	rec = func(prefix []float64, depth int) {
		if depth == len(spec.Axes) {
			coords = append(coords, append([]float64(nil), prefix...))
			return
		}
		for _, v := range spec.Axes[depth].Values {
			rec(append(prefix, v), depth+1)
		}
	}
	rec(nil, 0)

	ps := make([]core.Params, len(coords))
	for i, c := range coords {
		p := base
		for d, v := range c {
			knownParams[spec.Axes[d].Param](&p, v)
		}
		ps[i] = p
	}
	return coords, ps
}

// Run executes the cross product through exec (nil means pure DES; see
// core.Executor and internal/fidelity) and an optional content-addressed
// result cache: grid points whose Params ran before under the same
// version replay from the store, so editing one axis of a big sweep
// recomputes only the new points. Points run in parallel via
// core.RunMany; rows come back in axis order (last axis fastest).
func Run(spec Spec, exec core.Executor, cache *runcache.Store) ([]Row, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	coords, ps := points(spec)
	rs, err := core.RunMany(exec, ps, cache)
	if err != nil {
		return nil, err
	}
	rows := make([]Row, len(coords))
	for i := range coords {
		rows[i] = Row{Coords: coords[i], Results: rs[i]}
	}
	return rows, nil
}

// RunDetailed runs every grid point with per-point pipeline telemetry:
// span sampling at spanRate, with the Row carrying the telemetry
// summary (per-stage latency breakdown + drop attribution). Points run
// on the shared worker pool like Run; each point's spans stay
// deterministic because sampling draws from that point's own
// engine-forked RNG.
//
// exec (nil means pure DES) decides only which points the fluid solver
// serves: the analytical model has no packet path to instrument, so
// those rows return the fluid result with TelemetrySkippedFluid set and
// a nil Telemetry, instead of silently emitting empty span records.
// DES-routed points (including ones an early-stop rule would truncate)
// run full-window instrumented DES: telemetry sweeps exist to inspect
// the packet path, so the measurement window is never cut short here.
func RunDetailed(spec Spec, exec core.Executor, spanRate float64) ([]Row, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	coords, ps := points(spec)
	rows := make([]Row, len(coords))
	var orun *obs.Run // nil-safe
	if s := obs.Default(); s != nil {
		orun = s.StartRun("sweep-telemetry", int64(len(ps)))
		defer orun.Finish()
	}
	err := runner.Shared().Map(len(ps), func(i int, a *runner.Arena) error {
		defer orun.Advance(1)
		version, run, err := core.PlanVia(exec, ps[i])
		if err != nil {
			return err
		}
		if strings.HasPrefix(version, core.FluidVersion) {
			res, err := run(a)
			if err != nil {
				return err
			}
			rows[i] = Row{Coords: coords[i], Results: res, TelemetrySkippedFluid: true}
			return nil
		}
		sess, err := core.Start(ps[i], a)
		if err != nil {
			return err
		}
		spans := sess.Testbed.EnableSpans(spanRate)
		res, _ := sess.Run(host.StopRule{})
		sum := spans.Summary()
		rows[i] = Row{Coords: coords[i], Results: res, Telemetry: &sum}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RunObserved is Run with the sim-time observatory attached to every
// grid point: each point executes full DES (the observatory watches the
// simulated datapath, which the fluid solver and the run cache cannot
// reproduce) and its Row carries the incident report — congestion
// episodes with peak severity, drop counts, and root-cause attribution.
// Sampling is passive, so Results are bit-identical to Run's.
func RunObserved(spec Spec, ocfg observatory.Config) ([]Row, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	coords, ps := points(spec)
	rows := make([]Row, len(coords))
	var orun *obs.Run // nil-safe
	if s := obs.Default(); s != nil {
		orun = s.StartRun("sweep-observatory", int64(len(ps)))
		defer orun.Finish()
	}
	err := runner.Shared().Map(len(ps), func(i int, a *runner.Arena) error {
		defer orun.Advance(1)
		sess, err := core.Start(ps[i], a)
		if err != nil {
			return err
		}
		mon := observatory.Attach(sess.Testbed, ocfg)
		res, _ := sess.Run(host.StopRule{})
		rep := mon.Report()
		for j := range rep.Episodes {
			rep.Episodes[j].Host = i
		}
		rows[i] = Row{Coords: coords[i], Results: res, Incidents: rep}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// IncidentsJSONL renders one JSON object per observed sweep point: the
// axis coordinates, the headline measurements, and the incident report
// (episodes carry the grid-point index in their host field). One line
// per grid point for streaming/grepping downstream.
func IncidentsJSONL(spec Spec, rows []Row) (string, error) {
	var b strings.Builder
	for _, r := range rows {
		point := make(map[string]any, len(spec.Axes)+3)
		for d, a := range spec.Axes {
			point[a.Param] = r.Coords[d]
		}
		point["gbps"] = r.Results.AppThroughputGbps
		point["drop_pct"] = r.Results.DropRatePct
		point["incidents"] = r.Incidents
		line, err := json.Marshal(point)
		if err != nil {
			return "", fmt.Errorf("sweep: encoding incident row: %w", err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// TelemetryJSONL renders one JSON object per sweep point: the axis
// coordinates, the headline measurements, and the telemetry summary.
// One line per grid point, so downstream tooling can stream or grep it.
// Fluid-routed points (TelemetrySkippedFluid) carry no spans and are
// skipped rather than written as empty records; when any were skipped a
// final trailer line {"telemetry_skipped_fluid": N} reports the count
// so the omission is visible in the artifact itself.
func TelemetryJSONL(spec Spec, rows []Row) (string, error) {
	var b strings.Builder
	skipped := 0
	for _, r := range rows {
		if r.TelemetrySkippedFluid {
			skipped++
			continue
		}
		point := make(map[string]any, len(spec.Axes)+3)
		for d, a := range spec.Axes {
			point[a.Param] = r.Coords[d]
		}
		point["gbps"] = r.Results.AppThroughputGbps
		point["drop_pct"] = r.Results.DropRatePct
		point["telemetry"] = r.Telemetry
		line, err := json.Marshal(point)
		if err != nil {
			return "", fmt.Errorf("sweep: encoding telemetry row: %w", err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	if skipped > 0 {
		fmt.Fprintf(&b, "{\"telemetry_skipped_fluid\": %d}\n", skipped)
	}
	return b.String(), nil
}

// CSV renders the rows with one column per axis plus the headline
// measurement columns.
func CSV(spec Spec, rows []Row) string {
	cols := make([]string, 0, len(spec.Axes)+7)
	for _, a := range spec.Axes {
		cols = append(cols, a.Param)
	}
	cols = append(cols, "gbps", "drop_pct", "misses_per_pkt", "membw_gbps",
		"hostdelay_p99_us", "read_p99_us", "fairness")
	var cells [][]string
	for _, r := range rows {
		row := make([]string, 0, len(cols))
		for _, c := range r.Coords {
			row = append(row, fmt.Sprintf("%g", c))
		}
		res := r.Results
		row = append(row,
			fmt.Sprintf("%.2f", res.AppThroughputGbps),
			fmt.Sprintf("%.3f", res.DropRatePct),
			fmt.Sprintf("%.3f", res.IOTLBMissesPerPacket),
			fmt.Sprintf("%.2f", res.MemoryBandwidthGBps),
			fmt.Sprintf("%.1f", float64(res.HostDelayP99)/1000),
			fmt.Sprintf("%.1f", float64(res.ReadLatencyP99)/1000),
			fmt.Sprintf("%.3f", res.FairnessIndex),
		)
		cells = append(cells, row)
	}
	return asciiplot.CSV(cols, cells)
}

// Table renders the rows as an aligned text table.
func Table(spec Spec, rows []Row) string {
	csv := CSV(spec, rows)
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	cols := strings.Split(lines[0], ",")
	var cells [][]string
	for _, l := range lines[1:] {
		cells = append(cells, strings.Split(l, ","))
	}
	return asciiplot.FormatTable(cols, cells)
}

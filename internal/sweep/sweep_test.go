package sweep

import (
	"encoding/json"
	"strings"
	"testing"

	"hic/internal/core"
	"hic/internal/observatory"
	"hic/internal/runner"
	"hic/internal/sim"
)

func quickBase() core.Params {
	p := core.DefaultParams(4)
	p.Senders = 8
	p.Warmup = 2 * sim.Millisecond
	p.Measure = 3 * sim.Millisecond
	return p
}

func TestValidate(t *testing.T) {
	cases := []struct {
		spec Spec
		ok   bool
	}{
		{Spec{}, false},
		{Spec{Axes: []Axis{{Param: "threads", Values: nil}}}, false},
		{Spec{Axes: []Axis{{Param: "bogus", Values: []float64{1}}}}, false},
		{Spec{Axes: []Axis{{Param: "threads", Values: []float64{2, 4}}}}, true},
	}
	for i, c := range cases {
		err := c.spec.Validate()
		if (err == nil) != c.ok {
			t.Errorf("case %d: err = %v, ok = %v", i, err, c.ok)
		}
	}
	// Cross-product explosion guard.
	big := make([]float64, 100)
	spec := Spec{Axes: []Axis{
		{Param: "threads", Values: big},
		{Param: "senders", Values: big},
	}}
	if err := spec.Validate(); err == nil {
		t.Error("10000-point sweep accepted")
	}
}

func TestKnownParamsComplete(t *testing.T) {
	names := KnownParams()
	if len(names) != len(knownParams) {
		t.Errorf("KnownParams returned %d of %d", len(names), len(knownParams))
	}
	for i := 1; i < len(names); i++ {
		if names[i] <= names[i-1] {
			t.Errorf("names not sorted: %v", names)
		}
	}
}

func TestRunCrossProductOrder(t *testing.T) {
	spec := Spec{
		Base: quickBase(),
		Axes: []Axis{
			{Param: "threads", Values: []float64{2, 4}},
			{Param: "iommu", Values: []float64{1, 0}},
		},
	}
	rows, err := Run(spec, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	wantCoords := [][]float64{{2, 1}, {2, 0}, {4, 1}, {4, 0}}
	for i, r := range rows {
		for d := range wantCoords[i] {
			if r.Coords[d] != wantCoords[i][d] {
				t.Fatalf("row %d coords = %v, want %v", i, r.Coords, wantCoords[i])
			}
		}
		if r.Results.Goodput == 0 {
			t.Errorf("row %d produced no goodput", i)
		}
	}
	// CPU-bound points: 4 threads ≈ 2× the 2-thread throughput.
	if !(rows[2].Results.AppThroughputGbps > 1.5*rows[0].Results.AppThroughputGbps) {
		t.Errorf("thread scaling missing: %v vs %v",
			rows[0].Results.AppThroughputGbps, rows[2].Results.AppThroughputGbps)
	}
}

func TestCSVAndTable(t *testing.T) {
	spec := Spec{
		Base: quickBase(),
		Axes: []Axis{{Param: "threads", Values: []float64{2}}},
	}
	rows, err := Run(spec, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	csv := CSV(spec, rows)
	if !strings.HasPrefix(csv, "threads,gbps,") {
		t.Errorf("CSV header = %q", strings.SplitN(csv, "\n", 2)[0])
	}
	if strings.Count(csv, "\n") != 2 {
		t.Errorf("CSV rows wrong:\n%s", csv)
	}
	table := Table(spec, rows)
	if !strings.Contains(table, "threads") || !strings.Contains(table, "---") {
		t.Errorf("table malformed:\n%s", table)
	}
}

func TestEveryKnownParamApplies(t *testing.T) {
	// Applying each knob must yield a runnable scenario (value chosen to
	// be safe for every knob).
	safe := map[string]float64{
		"threads": 2, "senders": 4, "region_mb": 8, "iommu": 1, "hugepages": 1,
		"antagonists": 2, "host_target_us": 100, "nic_buffer_kb": 512,
		"device_tlb": 128, "link_scale": 0.5, "io_reserved": 0.1,
		"offered_gbps": 10, "subrtt": 1, "strict_iommu": 0, "cpu_cores": 2,
		"remote_numa": 1, "per_queue_bufs": 1, "victim_conn_gbps": 0.05,
		"burst_duty": 0.5, "seed": 3,
	}
	for name := range knownParams {
		v, ok := safe[name]
		if !ok {
			t.Fatalf("no safe value for %q; update the test", name)
		}
		p := quickBase()
		knownParams[name](&p, v)
		if _, err := core.Run(p); err != nil {
			t.Errorf("param %q with value %v: %v", name, v, err)
		}
	}
}

func TestRunDetailedTelemetry(t *testing.T) {
	spec := Spec{
		Base: quickBase(),
		Axes: []Axis{{Param: "antagonists", Values: []float64{0, 8}}},
	}
	rows, err := RunDetailed(spec, nil, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	for i, r := range rows {
		if r.Telemetry == nil {
			t.Fatalf("row %d has no telemetry", i)
		}
		if r.Telemetry.SampleRate != 0.05 {
			t.Errorf("row %d sample rate = %v", i, r.Telemetry.SampleRate)
		}
		if r.Telemetry.Spans == 0 {
			t.Errorf("row %d sampled no spans", i)
		}
	}

	jsonl, err := TelemetryJSONL(spec, rows)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(jsonl), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d JSONL lines, want 2", len(lines))
	}
	for i, line := range lines {
		var point map[string]any
		if err := json.Unmarshal([]byte(line), &point); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", i, err)
		}
		for _, key := range []string{"antagonists", "gbps", "drop_pct", "telemetry"} {
			if _, ok := point[key]; !ok {
				t.Errorf("line %d missing key %q", i, key)
			}
		}
	}
	// The antagonised point should attribute its drops to the memory bus.
	var antag map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &antag); err != nil {
		t.Fatal(err)
	}
	if antag["antagonists"].(float64) != 8 {
		t.Fatalf("row order changed: %v", antag["antagonists"])
	}
}

// Plain Run must keep Telemetry nil — detailed mode is opt-in.
func TestRunLeavesTelemetryNil(t *testing.T) {
	spec := Spec{
		Base: quickBase(),
		Axes: []Axis{{Param: "threads", Values: []float64{2}}},
	}
	rows, err := Run(spec, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Telemetry != nil {
		t.Error("plain Run attached telemetry")
	}
}

// fluidForZeroAntagonists routes antagonist-free points to a fake fluid
// plan (FluidVersion-salted, canned results) and everything else to
// pure DES — the shape RunDetailed must recognize and skip.
type fluidForZeroAntagonists struct{}

func (fluidForZeroAntagonists) Plan(p core.Params) (string, func(*runner.Arena) (core.Results, error), error) {
	if p.AntagonistCores == 0 {
		return core.FluidVersion + "-test", func(a *runner.Arena) (core.Results, error) {
			return core.Results{AppThroughputGbps: 42}, nil
		}, nil
	}
	return core.DES{}.Plan(p)
}

func TestRunDetailedViaSkipsFluidTelemetry(t *testing.T) {
	spec := Spec{
		Base: quickBase(),
		Axes: []Axis{{Param: "antagonists", Values: []float64{0, 4}}},
	}
	rows, err := RunDetailed(spec, fluidForZeroAntagonists{}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}

	fluid, des := rows[0], rows[1]
	if !fluid.TelemetrySkippedFluid {
		t.Error("fluid-routed row not marked TelemetrySkippedFluid")
	}
	if fluid.Telemetry != nil {
		t.Error("fluid-routed row carries a telemetry summary")
	}
	if fluid.Results.AppThroughputGbps != 42 {
		t.Errorf("fluid-routed row lost its results: %+v", fluid.Results)
	}
	if des.TelemetrySkippedFluid {
		t.Error("DES row marked skipped")
	}
	if des.Telemetry == nil {
		t.Fatal("DES row has no telemetry summary")
	}

	jsonl, err := TelemetryJSONL(spec, rows)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(jsonl), "\n")
	if len(lines) != 2 {
		t.Fatalf("JSONL = %d lines, want 2 (one DES point + trailer):\n%s", len(lines), jsonl)
	}
	var point map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &point); err != nil {
		t.Fatalf("point line: %v", err)
	}
	if point["antagonists"] != 4.0 {
		t.Errorf("surviving point = %v, want the antagonists=4 one", point["antagonists"])
	}
	if point["telemetry"] == nil {
		t.Error("point line has no telemetry object")
	}
	var trailer map[string]int
	if err := json.Unmarshal([]byte(lines[1]), &trailer); err != nil {
		t.Fatalf("trailer line: %v", err)
	}
	if trailer["telemetry_skipped_fluid"] != 1 {
		t.Errorf("trailer = %v, want telemetry_skipped_fluid=1", trailer)
	}
}

func TestRunDetailedNoExecUnchanged(t *testing.T) {
	spec := Spec{
		Base: quickBase(),
		Axes: []Axis{{Param: "antagonists", Values: []float64{0}}},
	}
	rows, err := RunDetailed(spec, nil, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].TelemetrySkippedFluid || rows[0].Telemetry == nil {
		t.Errorf("nil-executor sweep must instrument every point: %+v", rows[0].TelemetrySkippedFluid)
	}
}

// TestRunObservedAndIncidentsJSONL: an observed sweep attaches the
// observatory to every grid point, its Results stay identical to a
// plain sweep, and the JSONL export carries one line per point with
// the incident report inline.
func TestRunObservedAndIncidentsJSONL(t *testing.T) {
	spec := Spec{Base: quickBase(), Axes: []Axis{
		{Param: "antagonists", Values: []float64{0, 8}},
	}}
	plain, err := Run(spec, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := RunObserved(spec, observatory.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	for i, r := range rows {
		if r.Results != plain[i].Results {
			t.Errorf("point %d: observed Results differ from plain sweep (sampling must be passive)", i)
		}
		if r.Incidents == nil || r.Incidents.Samples == 0 {
			t.Fatalf("point %d carries no incident report", i)
		}
		for _, e := range r.Incidents.Episodes {
			if e.Host != i {
				t.Errorf("point %d episode stamped host %d", i, e.Host)
			}
		}
	}

	jsonl, err := IncidentsJSONL(spec, rows)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(jsonl), "\n")
	if len(lines) != 2 {
		t.Fatalf("JSONL has %d lines, want 2", len(lines))
	}
	for i, l := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(l), &obj); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		for _, k := range []string{"antagonists", "gbps", "drop_pct", "incidents"} {
			if _, ok := obj[k]; !ok {
				t.Errorf("line %d missing %q: %s", i, k, l)
			}
		}
	}
}

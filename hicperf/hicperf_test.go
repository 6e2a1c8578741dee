package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// TestWorkloadsSmoke runs every workload at smoke size in its traced
// mode, which also runs the untraced variant first, and checks that
// every named metric is emitted with its unit, that every correctness
// check passes — including the traced run's output hashes equal to the
// untraced run's — and that no operation failed.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations for about a minute")
	}
	for name, run := range workloads {
		t.Run(name, func(t *testing.T) {
			o := opts{seed: 3, seconds: 0.5, trace: true, small: true, outDir: t.TempDir(), tmpDir: t.TempDir()}
			rep, err := run(o)
			if err != nil {
				t.Fatal(err)
			}
			rep.values["peak_rss_mb"] = peakRSSMB()
			for _, mode := range []bool{false, true} {
				out := finish(rep, mode)
				specs := endToEnd
				if mode {
					specs = perLayer
				}
				if len(out.Metrics) != len(specs) {
					t.Errorf("trace=%v: %d metrics, want %d", mode, len(out.Metrics), len(specs))
				}
				for _, s := range specs {
					if m, ok := out.Metrics[s.Name]; !ok || m.Unit != s.Unit {
						t.Errorf("trace=%v: metric %s = %+v, want unit %s", mode, s.Name, m, s.Unit)
					}
				}
			}
			for _, c := range rep.checks {
				if !c.ok {
					t.Errorf("check %s failed: %s", c.name, c.detail)
				}
			}
			if rep.attempted == 0 || rep.failed != 0 {
				t.Errorf("attempted %d, failed %d", rep.attempted, rep.failed)
			}
			for _, s := range endToEnd {
				if rep.values[s.Name] <= 0 {
					t.Errorf("end-to-end metric %s = %g, want > 0", s.Name, rep.values[s.Name])
				}
			}
		})
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json, which names the
// command, workloads and metrics to whatever runs the benchmark, in step with the metric and workload lists the program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricSpec            `json:"end_to_end"`
		PerLayer  []metricSpec            `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for n := range workloads {
		want = append(want, n)
	}
	sort.Strings(names)
	sort.Strings(want)
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
	for _, c := range []struct {
		label     string
		got, want []metricSpec
	}{{"end_to_end", bj.EndToEnd, endToEnd}, {"per_layer", bj.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, program reports %d", c.label, len(c.got), len(c.want))
			continue
		}
		for i := range c.want {
			if c.got[i] != c.want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", c.label, i, c.got[i], c.want[i])
			}
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"hic/internal/nic.(*NIC).rootComplexChain.func1": "nic",
		"hic/internal/transport/swift.(*Swift).OnAck":    "transport",
		"hic/internal/fidelity.(*Router).Plan":           "other",
		"runtime.mallocgc":                               "runtime",
		"internal/runtime/maps.(*Map).getWithKey":        "runtime",
		"sort.Slice":            "stdlib",
		"encoding/json.Marshal": "stdlib",
		"example.com/x.F":       "other",
		"main.runPoint":         "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

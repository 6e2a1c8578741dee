package main

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
)

func TestSectionsDefaultSelectsAll(t *testing.T) {
	c, err := parseArgs(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(c.sections, sections) {
		t.Errorf("default selects %v, want all of %v", c.sections, sections)
	}
}

func TestSectionsSelectOnly(t *testing.T) {
	for _, name := range []string{"warm_start", "serve", "cold_path"} {
		c, err := parseArgs([]string{"-sections", name})
		if err != nil {
			t.Fatalf("-sections %s: %v", name, err)
		}
		if !slices.Equal(c.sections, []string{name}) {
			t.Errorf("-sections %s selects %v, want only %s", name, c.sections, name)
		}
	}
}

func TestSectionsRunInReportOrder(t *testing.T) {
	c, err := parseArgs([]string{"-sections", "serve,engine,serve"})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"engine", "serve"}; !slices.Equal(c.sections, want) {
		t.Errorf("-sections serve,engine,serve selects %v, want %v", c.sections, want)
	}
}

func TestSectionsUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-sections", "engine,bogus"},
		{"-sections", ""},
		{"-sections", "serve", "-serve-hosts", "0"},
		{"-no-such-flag"},
	} {
		if code := run(args); code != 2 {
			t.Errorf("run %q = exit %d, want 2 (usage error)", args, code)
		}
	}
}

// TestCompareReadsRetiredFields keeps older reports gateable: a
// baseline written while hicbench still measured the legacy engine,
// the heap packet path, the pools-off fig6 run and the goroutine-per-
// host fleet parses, and its current-path numbers compare clean.
func TestCompareReadsRetiredFields(t *testing.T) {
	old := filepath.Join(t.TempDir(), "old.json")
	if err := os.WriteFile(old, []byte(`{
  "engine": {"new": {"ns_per_op": 126}, "legacy": {"ns_per_op": 642, "allocs_per_op": 2}, "speedup_ratio": 5.1},
  "packet_path": {"pooled": {"ns_per_op": 21}, "heap": {"ns_per_op": 104, "allocs_per_op": 2}},
  "fig6_scenario": {"events_per_sec": 3.5e6, "allocs_per_op": 6288, "bytes_per_op": 860048},
  "fig6_scenario_no_pools": {"events_per_sec": 1.8e6},
  "fleet": {"hosts": 10000, "hosts_per_sec": 30.7, "peak_mem_bytes": 23166976,
    "baseline_hosts": 256, "baseline_hosts_per_sec": 2.7, "baseline_peak_mem_bytes": 1668243456, "speedup_ratio": 11.2}
}`), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := readReport(old)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Engine.New.NsPerOp != 126 || rep.PacketPath.Pooled.NsPerOp != 21 || rep.Fleet.HostsPerSec != 30.7 {
		t.Errorf("current-path fields not read: %+v", rep)
	}
	if code := runCompare(old, old, 0.25); code != 0 {
		t.Errorf("self compare of a report with retired fields = exit %d, want 0", code)
	}
}

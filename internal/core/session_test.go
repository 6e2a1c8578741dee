package core_test

import (
	"strings"
	"testing"

	"hic/internal/core"
	"hic/internal/host"
	"hic/internal/obs"
)

// TestSessionFoldsFleetRollup: every completed simulation folds into
// the control plane's /metrics fleet rollup, whichever steps its
// session composed — a plain run, an early-stopped run and an
// instrumented run each count once.
func TestSessionFoldsFleetRollup(t *testing.T) {
	if testing.Short() {
		t.Skip("runs DES")
	}
	srv := obs.NewServer(obs.Options{})
	obs.Set(srv)
	defer obs.Set(nil)

	if _, err := core.Run(goldenParams("fig3", 1)); err != nil {
		t.Fatal(err)
	}
	estop := &core.EarlyStop{Rule: host.DefaultStopRule()}
	if _, err := core.RunOnVia(estop, goldenParams("fig6", 1), nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if estop.Stopped.Load() != 1 {
		t.Fatalf("early-stop point ran its full window; the test needs a stopped run")
	}
	s, err := core.Start(goldenParams("fig3", 7), nil)
	if err != nil {
		t.Fatal(err)
	}
	spans := s.Testbed.EnableSpans(0.01)
	s.Run(host.StopRule{})
	if spans.Tracer.Sampled() == 0 {
		t.Fatal("instrumented point sampled no spans")
	}

	var b strings.Builder
	if err := srv.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "\nhic_fleet_runs_total 3\n") {
		t.Errorf("fleet rollup missed runs; want hic_fleet_runs_total 3 in:\n%s", b.String())
	}
}

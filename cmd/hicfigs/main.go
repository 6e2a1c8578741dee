// Command hicfigs regenerates the paper's figures (3–6) and the §4
// extension ablations as tables, CSV, and ASCII plots.
//
// Usage:
//
//	hicfigs                  # run every experiment
//	hicfigs -fig 3           # one experiment (3,4,5,6,target,buffer,ats,cxl,mba,subrtt,cc)
//	hicfigs -fig 6 -csv      # emit CSV instead of a table
//	hicfigs -quick           # shrunken sweeps for a fast smoke run
//	hicfigs -outdir results  # also write <outdir>/<id>.csv per experiment
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"hic/internal/asciiplot"
	"hic/internal/core"
	"hic/internal/experiments"
	"hic/internal/fidelity"
	"hic/internal/obs"
	"hic/internal/observatory"
	"hic/internal/runcache"
	"hic/internal/runner"
	"hic/internal/sim"
)

func main() {
	fig := flag.String("fig", "all", "experiment id: all or a comma list of "+strings.Join(experiments.Order, ", "))
	quick := flag.Bool("quick", false, "shrunken sweeps and windows")
	csv := flag.Bool("csv", false, "print CSV instead of aligned tables")
	plot := flag.Bool("plot", true, "print ASCII plots under each table")
	seed := flag.Uint64("seed", 1, "base seed")
	replicates := flag.Int("replicates", 1, "runs per point with derived seeds (fig3 cells become mean±ci95)")
	measureMS := flag.Int("measure-ms", 0, "override measurement window (ms)")
	outdir := flag.String("outdir", "", "also write per-experiment CSV files here")
	incidents := flag.Bool("incidents", false, "run the fig6 antagonist point with the sim-time observatory and print its congestion episodes, then exit")
	cacheFlags := runcache.RegisterFlags(flag.CommandLine)
	fid := fidelity.RegisterFlags(flag.CommandLine, fidelity.ModeDES)
	obsFlags := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()

	opt := experiments.Options{
		Seed:       *seed,
		Quick:      *quick,
		Replicates: *replicates,
	}
	if *measureMS > 0 {
		opt.Measure = sim.Duration(*measureMS) * sim.Millisecond
	}
	if *incidents {
		if err := printFig6Incidents(os.Stdout, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "hicfigs: %v\n", err)
			os.Exit(1)
		}
		return
	}
	store, err := cacheFlags.Open()
	if err != nil {
		fmt.Fprintf(os.Stderr, "hicfigs: %v\n", err)
		os.Exit(1)
	}
	if store != nil {
		opt.Cache = store
		defer func() { fmt.Fprintf(os.Stderr, "run cache: %s\n", store.Summary()) }()
	}
	// Default -fidelity=des keeps published figures exact; Router returns
	// nil in that case and the pre-fidelity path runs byte-identically.
	router, err := fid.Router(opt.Cache, nil, nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hicfigs: %v\n", err)
		os.Exit(1)
	}
	if router != nil {
		opt.Exec = router
		defer func() {
			c := router.Counters()
			fmt.Fprintf(os.Stderr, "fidelity: %d fluid, %d DES (%d early-stopped), %d anchors\n",
				c.FluidRouted, c.DESRouted, c.EarlyStopped, c.AnchorRuns)
			if c.AnchorLoaded+c.AnchorPersisted+c.WarmStarted+c.WarmCheckpoints > 0 {
				fmt.Fprintf(os.Stderr, "warm start: %d anchors loaded, %d persisted, %d warm-started, %d checkpoints; warm-audited %d max-err %.4f (%d over tol)\n",
					c.AnchorLoaded, c.AnchorPersisted, c.WarmStarted, c.WarmCheckpoints,
					c.WarmAudited, c.WarmAuditMaxErr, c.WarmAuditOverTol)
			}
		}()
	}
	var warmStore *runcache.Store
	if router != nil {
		warmStore = router.WarmStore()
	}
	runcache.PruneStores(os.Stderr, cacheFlags.MaxMB, store, warmStore)

	var ids []string
	if *fig == "all" {
		ids = experiments.Order
	} else {
		for _, id := range strings.Split(*fig, ",") {
			if _, ok := experiments.Registry[id]; !ok {
				fmt.Fprintf(os.Stderr, "hicfigs: unknown experiment %q (known: %s)\n",
					id, strings.Join(experiments.Order, ", "))
				os.Exit(2)
			}
			ids = append(ids, id)
		}
	}

	var orun *obs.Run // nil-safe
	if srv, err := obsFlags.Start(os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "hicfigs: %v\n", err)
		os.Exit(1)
	} else if srv != nil {
		defer srv.Close()
		srv.AddSource(runner.Shared())
		if opt.Cache != nil {
			srv.AddSource(opt.Cache)
		}
		if router != nil {
			srv.AddSource(router)
		}
		if warmStore != nil {
			srv.AddSource(warmStore)
		}
		// One registry run with one phase per experiment: /progress shows
		// which figure is executing even though the per-figure point count
		// is internal to each experiment.
		orun = srv.StartRun("figs", int64(len(ids)), ids...)
		defer orun.Finish()
	}

	for _, id := range ids {
		orun.SetPhase(id)
		t, err := experiments.Registry[id](opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hicfigs: experiment %s: %v\n", id, err)
			os.Exit(1)
		}
		if *csv {
			fmt.Print(t.CSVString())
		} else {
			fmt.Println(t.Render())
			if *plot {
				if p := t.PlotString(); p != "" {
					fmt.Println(p)
				}
			}
		}
		if *outdir != "" {
			if err := os.MkdirAll(*outdir, 0o755); err != nil {
				fmt.Fprintf(os.Stderr, "hicfigs: %v\n", err)
				os.Exit(1)
			}
			path := filepath.Join(*outdir, t.ID+".csv")
			if err := os.WriteFile(path, []byte(t.CSVString()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "hicfigs: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
		orun.Advance(1)
	}
}

// printFig6Incidents runs the paper's Figure 6 memory-antagonist point
// with the sim-time observatory attached and prints the congestion
// episodes it detected — the incident-level view of the mechanism the
// figure averages over a whole window.
func printFig6Incidents(w io.Writer, seed uint64) error {
	p := core.DefaultParams(12)
	p.AntagonistCores = 8
	p.Seed = seed
	res, rep, err := core.RunObserved(p, observatory.DefaultConfig())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "fig6 antagonist point (seed %d): %.2f Gbps, %.3f%% drops, %d samples, %d episodes, %s congested\n",
		seed, res.AppThroughputGbps, res.DropRatePct, rep.Samples, len(rep.Episodes), sim.Duration(rep.CongestedNs))
	if len(rep.Episodes) == 0 {
		return nil
	}
	rows := make([][]string, 0, len(rep.Episodes))
	for _, e := range rep.Episodes {
		blind := ""
		if e.CCBlind {
			blind = "yes"
		}
		rows = append(rows, []string{
			fmt.Sprintf("%.3f", float64(e.Start)/1e6),
			fmt.Sprintf("%.3f", float64(e.Duration())/1e6),
			fmt.Sprintf("%.2f", e.PeakBufferFrac),
			fmt.Sprintf("%d", e.Drops),
			fmt.Sprintf("%s %.0f%%", e.Cause, e.CauseShare*100),
			blind,
		})
	}
	fmt.Fprint(w, asciiplot.FormatTable(
		[]string{"start_ms", "dur_ms", "peak_fill", "drops", "cause", "cc_blind"}, rows))
	return nil
}

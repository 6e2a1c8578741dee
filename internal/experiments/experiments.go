// Package experiments defines one runnable definition per figure of the
// paper's evaluation (Figures 3–6; Figure 1 lives in internal/cluster
// because it sweeps hosts, not parameters), plus the §4 "looking
// forward" extensions as ablations. Every definition sweeps scenarios
// through core.RunMany and renders a Table whose rows are the same
// series the paper plots.
package experiments

import (
	"fmt"
	"math"

	"hic/internal/asciiplot"
	"hic/internal/core"
	"hic/internal/runcache"
	"hic/internal/sim"
	"hic/internal/stats"
)

// Options control sweep fidelity.
type Options struct {
	// Seed is the base seed; each point derives its own.
	Seed uint64
	// Warmup and Measure override the per-point windows (0 = default:
	// 20 ms + 30 ms).
	Warmup, Measure sim.Duration
	// Quick shrinks sweeps and windows for tests and smoke runs.
	Quick bool
	// Replicates > 1 runs every point that many times with derived
	// seeds; numeric cells in Fig3/Fig6 then read "mean±ci95".
	Replicates int
	// Cache, when non-nil, memoizes every point through the
	// content-addressed run cache: repeated figure runs replay stored
	// results instead of re-simulating (hicfigs -cache).
	Cache *runcache.Store
	// Exec, when non-nil, routes grid points through an execution
	// strategy (see core.Executor and internal/fidelity). Published
	// figures use nil — pure DES — so their numbers stay exact;
	// Replicates always run pure DES regardless, because replication
	// measures seed noise and the fluid solver is seed-independent.
	Exec core.Executor
}

// replicated runs p Replicates times (pure DES) and returns all results.
func (o Options) replicated(p core.Params) ([]core.Results, error) {
	return core.RunMany(nil, core.Replicas(p, o.Replicates), o.Cache)
}

// runMany sweeps the points through the options' executor and cache.
// Every figure definition funnels its grid through here.
func (o Options) runMany(ps []core.Params) ([]core.Results, error) {
	return core.RunMany(o.Exec, ps, o.Cache)
}

// pull extracts one field across replicated results.
func pull(rs []core.Results, f func(core.Results) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}

func (o Options) params(threads int) core.Params {
	p := core.DefaultParams(threads)
	if o.Seed != 0 {
		p.Seed = o.Seed
	}
	if o.Warmup > 0 {
		p.Warmup = o.Warmup
	}
	if o.Measure > 0 {
		p.Measure = o.Measure
	}
	if o.Quick {
		p.Warmup, p.Measure = 4*sim.Millisecond, 6*sim.Millisecond
	}
	return p
}

func (o Options) pick(full, quick []int) []int {
	if o.Quick {
		return quick
	}
	return full
}

// Table is a rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string

	xlabels []string
	plots   []asciiplot.Series
}

// Render returns the aligned-text table.
func (t *Table) Render() string {
	return fmt.Sprintf("== %s: %s ==\n%s", t.ID, t.Title,
		asciiplot.FormatTable(t.Columns, t.Rows))
}

// CSVString returns the table as CSV.
func (t *Table) CSVString() string { return asciiplot.CSV(t.Columns, t.Rows) }

// PlotString returns an ASCII plot of the table's headline series.
func (t *Table) PlotString() string {
	if len(t.plots) == 0 {
		return ""
	}
	return asciiplot.LinePlot(t.Title, t.xlabels, t.plots, 12)
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// Fig3 reproduces Figure 3: application throughput, drop rate and IOTLB
// misses per packet versus receiver cores, with the IOMMU on and off,
// plus the paper's Little's-law model evaluated at the measured miss
// rates (credit-limited regime, threads ≥ 10).
func Fig3(o Options) (*Table, error) {
	threads := o.pick([]int{2, 4, 6, 8, 10, 12, 14, 16}, []int{2, 8, 12})
	t := &Table{
		ID:    "fig3",
		Title: "Throughput / drops / IOTLB misses vs receiver cores (IOMMU on vs off)",
		Columns: []string{"cores", "on_gbps", "off_gbps", "modeled_gbps", "max_gbps",
			"on_drop_pct", "off_drop_pct", "on_misses_per_pkt", "on_hostdelay_p50_us"},
	}
	var onSeries, offSeries, modelSeries []float64
	for _, th := range threads {
		onP := o.params(th)
		offP := onP
		offP.IOMMU = false
		ons, err := o.replicated(onP)
		if err != nil {
			return nil, err
		}
		offs, err := o.replicated(offP)
		if err != nil {
			return nil, err
		}
		tput := func(r core.Results) float64 { return r.AppThroughputGbps }
		misses := stats.Summarize(pull(ons, func(r core.Results) float64 { return r.IOTLBMissesPerPacket }))
		modeled := ""
		mval := 0.0
		if th >= 10 {
			b, err := core.ModeledThroughput(onP, misses.Mean)
			if err != nil {
				return nil, err
			}
			mval = b.Gbps()
			modeled = f1(mval)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(th),
			stats.MeanCI(pull(ons, tput), 1),
			stats.MeanCI(pull(offs, tput), 1),
			modeled, f1(core.MaxAchievable.Gbps()),
			stats.MeanCI(pull(ons, func(r core.Results) float64 { return r.DropRatePct }), 2),
			stats.MeanCI(pull(offs, func(r core.Results) float64 { return r.DropRatePct }), 2),
			stats.MeanCI(pull(ons, func(r core.Results) float64 { return r.IOTLBMissesPerPacket }), 2),
			f1(float64(ons[0].HostDelayP50) / 1000),
		})
		t.xlabels = append(t.xlabels, fmt.Sprint(th))
		onSeries = append(onSeries, stats.Summarize(pull(ons, tput)).Mean)
		offSeries = append(offSeries, stats.Summarize(pull(offs, tput)).Mean)
		if modeled != "" {
			modelSeries = append(modelSeries, mval)
		} else {
			modelSeries = append(modelSeries, math.NaN())
		}
	}
	t.plots = []asciiplot.Series{
		{Name: "IOMMU ON", Values: onSeries},
		{Name: "IOMMU OFF", Values: offSeries},
		{Name: "modeled", Values: modelSeries},
	}
	return t, nil
}

// Fig4 reproduces Figure 4: the hugepage ablation. Disabling 2 MB
// mappings multiplies the registered-page count by 512 and makes each
// 4 KB-MTU packet span two pages.
func Fig4(o Options) (*Table, error) {
	threads := o.pick([]int{2, 4, 6, 8, 10, 12, 14, 16}, []int{2, 8, 12})
	var ps []core.Params
	for _, th := range threads {
		huge := o.params(th)
		small := huge
		small.Hugepages = false
		ps = append(ps, huge, small)
	}
	rs, err := o.runMany(ps)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "fig4",
		Title: "Hugepages enabled vs disabled (IOMMU on)",
		Columns: []string{"cores", "huge_gbps", "4k_gbps", "huge_drop_pct", "4k_drop_pct",
			"huge_misses_per_pkt", "4k_misses_per_pkt"},
	}
	var hs, ss []float64
	for i, th := range threads {
		huge, small := rs[2*i], rs[2*i+1]
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(th), f1(huge.AppThroughputGbps), f1(small.AppThroughputGbps),
			f2(huge.DropRatePct), f2(small.DropRatePct),
			f2(huge.IOTLBMissesPerPacket), f2(small.IOTLBMissesPerPacket),
		})
		t.xlabels = append(t.xlabels, fmt.Sprint(th))
		hs = append(hs, huge.AppThroughputGbps)
		ss = append(ss, small.AppThroughputGbps)
	}
	t.plots = []asciiplot.Series{
		{Name: "hugepages", Values: hs},
		{Name: "4K pages", Values: ss},
	}
	return t, nil
}

// Fig5 reproduces Figure 5: Rx memory region size sweep at 12 receiver
// cores — provisioning for larger BDPs enlarges the IOTLB working set.
func Fig5(o Options) (*Table, error) {
	sizesMB := o.pick([]int{4, 8, 12, 16}, []int{4, 16})
	const threads = 12
	var ps []core.Params
	for _, mb := range sizesMB {
		on := o.params(threads)
		on.RxRegionBytes = uint64(mb) << 20
		off := on
		off.IOMMU = false
		ps = append(ps, on, off)
	}
	rs, err := o.runMany(ps)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "fig5",
		Title: "Throughput vs Rx memory region size (12 cores)",
		Columns: []string{"region_mb", "on_gbps", "off_gbps", "on_drop_pct", "off_drop_pct",
			"on_misses_per_pkt"},
	}
	var on, off []float64
	for i, mb := range sizesMB {
		ron, roff := rs[2*i], rs[2*i+1]
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(mb), f1(ron.AppThroughputGbps), f1(roff.AppThroughputGbps),
			f2(ron.DropRatePct), f2(roff.DropRatePct), f2(ron.IOTLBMissesPerPacket),
		})
		t.xlabels = append(t.xlabels, fmt.Sprintf("%dMB", mb))
		on = append(on, ron.AppThroughputGbps)
		off = append(off, roff.AppThroughputGbps)
	}
	t.plots = []asciiplot.Series{
		{Name: "IOMMU ON", Values: on},
		{Name: "IOMMU OFF", Values: off},
	}
	return t, nil
}

// Fig6 reproduces Figure 6: memory-bus antagonism at 12 receiver cores,
// with the IOMMU off (left panel) and on (center panel), reporting
// throughput, total achieved memory bandwidth and drop rates.
func Fig6(o Options) (*Table, error) {
	cores := o.pick([]int{0, 1, 2, 4, 6, 8, 10, 12, 14, 15}, []int{0, 8, 15})
	const threads = 12
	var ps []core.Params
	for _, ac := range cores {
		on := o.params(threads)
		on.AntagonistCores = ac
		off := on
		off.IOMMU = false
		ps = append(ps, on, off)
	}
	rs, err := o.runMany(ps)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "fig6",
		Title: "Memory antagonism: throughput / memory bandwidth / drops (12 cores)",
		Columns: []string{"antag_cores", "on_gbps", "off_gbps", "on_membw_gbps", "off_membw_gbps",
			"on_drop_pct", "off_drop_pct"},
	}
	var on, off []float64
	for i, ac := range cores {
		ron, roff := rs[2*i], rs[2*i+1]
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(ac), f1(ron.AppThroughputGbps), f1(roff.AppThroughputGbps),
			f1(ron.MemoryBandwidthGBps), f1(roff.MemoryBandwidthGBps),
			f2(ron.DropRatePct), f2(roff.DropRatePct),
		})
		t.xlabels = append(t.xlabels, fmt.Sprint(ac))
		on = append(on, ron.AppThroughputGbps)
		off = append(off, roff.AppThroughputGbps)
	}
	t.plots = []asciiplot.Series{
		{Name: "IOMMU ON", Values: on},
		{Name: "IOMMU OFF", Values: off},
	}
	return t, nil
}

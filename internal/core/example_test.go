package core_test

import (
	"fmt"
	"log"

	"hic/internal/core"
	"hic/internal/sim"
)

// Example reproduces one point of Figure 3 — the paper's baseline at 12
// receiver cores with the IOMMU enabled — through the public API. (No
// Output comment: simulation wall time makes this compile-checked
// documentation rather than a golden test.)
func Example() {
	p := core.DefaultParams(12)
	res, err := core.Run(p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("throughput %.1f Gbps, drops %.2f%%, %.2f IOTLB misses/packet\n",
		res.AppThroughputGbps, res.DropRatePct, res.IOTLBMissesPerPacket)
}

// ExampleRunMany sweeps Figure 6's antagonist axis in parallel.
func ExampleRunMany() {
	var ps []core.Params
	for _, antag := range []int{0, 8, 15} {
		p := core.DefaultParams(12)
		p.AntagonistCores = antag
		ps = append(ps, p)
	}
	rs, err := core.RunMany(nil, ps, nil)
	if err != nil {
		log.Fatal(err)
	}
	for i, r := range rs {
		fmt.Printf("antagonists=%d: %.1f Gbps\n", ps[i].AntagonistCores, r.AppThroughputGbps)
		_ = i
	}
}

// ExampleParams_Build drives the testbed manually for time-series work.
func ExampleParams_Build() {
	p := core.DefaultParams(8)
	tb, err := p.Build()
	if err != nil {
		log.Fatal(err)
	}
	rec := tb.EnableTrace(100 * sim.Microsecond)
	tb.Run(p.Warmup, p.Measure)
	fmt.Printf("recorded %d samples across %d series\n", rec.Len(), len(rec.Names()))
}

// iommu_sweep walks through the paper's §3.1 characterization with the
// public API: the receiver-core sweep that exposes the IOTLB working-set
// knee, and the analytical Little's-law bound next to the simulation.
//
//	go run ./examples/iommu_sweep
package main

import (
	"fmt"
	"log"

	"hic/internal/core"
	"hic/internal/model"
	"hic/internal/sim"
)

func main() {
	fmt.Println("IOMMU-induced host congestion (§3.1)")
	fmt.Println()
	fmt.Printf("IOTLB working set per thread: %d entries (12 MB / 2 MB hugepages + metadata pools)\n",
		model.IOTLBWorkingSet(1, 12<<20, 2<<20, 10))
	fmt.Printf("the 128-entry IOTLB overflows above %d threads\n\n", 128/16)

	fmt.Printf("%6s  %9s  %9s  %9s  %7s  %11s\n",
		"cores", "on Gbps", "off Gbps", "model", "drop %", "misses/pkt")
	for _, threads := range []int{4, 8, 10, 12, 16} {
		on := core.DefaultParams(threads)
		on.Warmup, on.Measure = 10*sim.Millisecond, 15*sim.Millisecond
		off := on
		off.IOMMU = false
		rs, err := core.RunMany(nil, []core.Params{on, off}, nil)
		if err != nil {
			log.Fatal(err)
		}
		ron, roff := rs[0], rs[1]
		modeled := "-"
		if threads >= 10 {
			b, err := core.ModeledThroughput(on, ron.IOTLBMissesPerPacket)
			if err != nil {
				log.Fatal(err)
			}
			modeled = fmt.Sprintf("%.1f", b.Gbps())
		}
		fmt.Printf("%6d  %9.1f  %9.1f  %9s  %7.2f  %11.2f\n",
			threads, ron.AppThroughputGbps, roff.AppThroughputGbps, modeled,
			ron.DropRatePct, ron.IOTLBMissesPerPacket)
	}

	fmt.Println()
	fmt.Printf("why congestion control stays blind: a 1 MB NIC buffer drains in\n")
	fmt.Printf("%v at 88.8 Gbps — under Swift's 100 µs host target — so the\n",
		model.EffectiveRxDelayBudget(1<<20, sim.Gbps(88.8)).Round(sim.Microsecond))
	fmt.Printf("protocol cannot react above ≈%.0f Gbps of app throughput.\n",
		core.BlindThreshold.Gbps())
}

package nic

import (
	"testing"

	"hic/internal/iommu"
	"hic/internal/mem"
	"hic/internal/metrics"
	"hic/internal/pcie"
	"hic/internal/pkt"
	"hic/internal/sim"
)

// TestRxDMAChainZeroAllocs gates the per-packet receive path: once the
// NIC's rxDMA free list (and the IOMMU's and engine's) is warm, a packet
// travels admission → credits → link → translate/access ×3 → root
// complex → delivery without a single heap allocation.
func TestRxDMAChainZeroAllocs(t *testing.T) {
	e := sim.NewEngine(1)
	reg := metrics.NewRegistry()
	memory, err := mem.New(e, reg, mem.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	mmu, err := iommu.New(e, memory, reg, iommu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	link, err := pcie.New(e, reg, pcie.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	planner := newTestPlanner(1, 12<<20)
	base := planner.base(0)
	if err := mmu.MapRegion(base, 12<<20, iommu.Page4K); err != nil {
		t.Fatal(err)
	}
	if err := mmu.MapRegion(base+12<<20, 3*4096, iommu.Page4K); err != nil {
		t.Fatal(err)
	}
	var n *NIC
	delivered := 0
	n, err = New(e, reg, link, mmu, memory, planner, DefaultConfig(1), func(p *pkt.Packet) {
		delivered++
		n.ReplenishDescriptors(p.Queue, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	// A small burst first, so the free lists hold several in-flight
	// chains' worth of state.
	burst := make([]*pkt.Packet, 8)
	for i := range burst {
		burst[i] = dataPacket(uint64(i), 0)
		n.Receive(burst[i])
	}
	e.Run(e.Now().Add(100 * sim.Microsecond))
	if delivered != len(burst) {
		t.Fatalf("warm-up delivered %d of %d packets", delivered, len(burst))
	}
	p := burst[0]
	before := delivered
	if allocs := testing.AllocsPerRun(200, func() {
		n.Receive(p)
		e.Run(e.Now().Add(20 * sim.Microsecond))
	}); allocs != 0 {
		t.Errorf("rx DMA chain allocates %.1f objects/packet, want 0", allocs)
	}
	if delivered-before != 201 {
		t.Fatalf("delivered %d packets in 201 runs", delivered-before)
	}
	if mmu.Stats().Misses == 0 {
		t.Error("payload addresses never missed the IOTLB; the walk path went untested")
	}
}

package iommu

import (
	"strings"
	"testing"

	"hic/internal/sim"
)

func TestDMASpanningAdjacentMappingsDoesNotFault(t *testing.T) {
	e, u := newIOMMU(t, DefaultConfig())
	if err := u.MapRegion(0, 2*4096, Page4K); err != nil {
		t.Fatal(err)
	}
	if err := u.MapRegion(2*4096, 2*4096, Page4K); err != nil {
		t.Fatal(err)
	}
	// Pages 1 and 2: the DMA starts in the first mapping and runs into
	// the adjacent second one.
	res := translate(e, u, 0x1800, 4096)
	if res.Fault != nil {
		t.Fatalf("DMA across adjacent mappings faulted: %v", res.Fault)
	}
	if res.Pages != 2 || res.Misses != 2 {
		t.Errorf("result = %+v, want 2 pages, 2 cold misses", res)
	}
	if st := u.Stats(); st.Faults != 0 || st.Translations != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDMARunningIntoUnmappedSpaceFaultsAtFirstUnmappedPage(t *testing.T) {
	e, u := newIOMMU(t, DefaultConfig())
	if err := u.MapRegion(0, 2*4096, Page4K); err != nil {
		t.Fatal(err)
	}
	// Pages 1, 2 and 3: page 1 is mapped, page 2 (0x2000) is the first
	// unmapped one, and the DMA must stop there.
	res := translate(e, u, 0x1000, 3*4096)
	if res.Fault == nil {
		t.Fatal("DMA into unmapped space did not fault")
	}
	if !strings.Contains(res.Fault.Error(), "0x2000") {
		t.Errorf("fault %q does not name the first unmapped page 0x2000", res.Fault)
	}
	if res.Pages != 3 || res.Misses != 1 {
		t.Errorf("result = %+v, want 3 pages planned, 1 miss before the fault", res)
	}
	if st := u.Stats(); st.Faults != 1 || st.Translations != 1 {
		t.Errorf("stats = %+v, want 1 fault after 1 translation", st)
	}
}

// TestTranslateZeroAllocs gates the translation hot path: once the
// IOMMU's op free list and the engine's event free list are warm, a
// translation allocates nothing — on an IOTLB hit, on a miss with a
// page walk, and across a multi-page DMA.
func TestTranslateZeroAllocs(t *testing.T) {
	e, u := newIOMMU(t, DefaultConfig())
	const pages = 1024 // 8× the IOTLB: cycling through them always misses
	if err := u.MapRegion(0, pages*4096, Page4K); err != nil {
		t.Fatal(err)
	}
	completed := 0
	done := func(r TranslationResult) {
		if r.Fault != nil {
			t.Fatal(r.Fault)
		}
		completed++
	}
	run := func(iova uint64, size int) {
		u.Translate(iova, size, done)
		e.Run(e.Now().Add(20 * sim.Microsecond))
	}
	next := uint64(0)
	cases := []struct {
		name string
		op   func()
	}{
		{"hit", func() { run(0x40, 64) }},
		{"miss+walk", func() { next = (next + 1) % pages; run(next*4096, 64) }},
		{"multi-page", func() { next = (next + 3) % (pages - 3); run(next*4096+0x800, 2*4096) }},
	}
	for _, c := range cases {
		before := completed
		if allocs := testing.AllocsPerRun(200, c.op); allocs != 0 {
			t.Errorf("%s translation allocates %.1f objects/op, want 0", c.name, allocs)
		}
		if completed == before {
			t.Fatalf("%s: no translation completed", c.name)
		}
	}
	if st := u.Stats(); st.Hits == 0 || st.Misses == 0 || st.WalkReads == 0 {
		t.Errorf("stats %+v: want hits, misses and walk reads all exercised", st)
	}
}

package core_test

import (
	"fmt"
	"testing"

	"hic/internal/core"
	"hic/internal/host"
	"hic/internal/observatory"
)

// TestObservatoryPassiveOnGoldens proves sampling is passive: with the
// observatory attached, all four pinned scenarios still hash to the
// pre-rewrite golden Results bit-for-bit. The sampler only reads
// datapath state and draws no engine randomness, so the event sequence
// is untouched.
func TestObservatoryPassiveOnGoldens(t *testing.T) {
	for _, seed := range []uint64{1, 7} {
		for _, name := range []string{"fig3", "fig6"} {
			s, err := core.Start(goldenParams(name, seed), nil)
			if err != nil {
				t.Fatalf("%s seed=%d: %v", name, seed, err)
			}
			mon := observatory.Attach(s.Testbed, observatory.DefaultConfig())
			r, _ := s.Run(host.StopRule{})
			rep := mon.Report()
			key := fmt.Sprintf("%s/seed=%d", name, seed)
			if got := resultHash(r); got != goldenHashes[key] {
				t.Errorf("%s with observatory hashes %s, want %s (sampling is not passive)",
					key, got, goldenHashes[key])
			}
			if rep == nil || rep.Samples == 0 {
				t.Errorf("%s: observatory attached but took no samples", key)
			}
		}
	}
}

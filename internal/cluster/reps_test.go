package cluster

import (
	"fmt"
	"slices"
	"testing"

	"hic/internal/fidelity"
	"hic/internal/sim"
)

// signatureRepsFullScan is the encode-every-host scan SignatureReps
// replaced, kept as the oracle: one fidelity signature per scanned
// host, first occurrence wins.
func signatureRepsFullScan(cfg Config) []int {
	n := min(cfg.Hosts, rosterScanCap)
	seen := make(map[string]bool)
	var reps []int
	for h := 0; h < n; h++ {
		p, _ := HostScenario(cfg, h)
		if k := fidelity.SignatureKey(p); !seen[k] {
			seen[k] = true
			reps = append(reps, h)
		}
	}
	return reps
}

// TestSignatureRepsMatchesFullScan pins the cell-keyed scan to the full
// scan: the same representative indices in the same order, across
// seeds, fleet sizes on both sides of rosterScanCap, and both window
// settings (the windows are part of every signature).
func TestSignatureRepsMatchesFullScan(t *testing.T) {
	windows := []struct{ warmup, measure sim.Duration }{
		{0, 0},
		{2 * sim.Millisecond, 3 * sim.Millisecond},
	}
	for seed := uint64(1); seed <= 8; seed++ {
		for _, hosts := range []int{1, 7, 400, 10000, 70000} {
			for _, w := range windows {
				cfg := Config{Hosts: hosts, Seed: seed, Warmup: w.warmup, Measure: w.measure}
				t.Run(fmt.Sprintf("seed%d/hosts%d/win%v+%v", seed, hosts, w.warmup, w.measure), func(t *testing.T) {
					got, want := SignatureReps(cfg), signatureRepsFullScan(cfg)
					if !slices.Equal(got, want) {
						t.Fatalf("SignatureReps = %v\nfull scan     = %v", got, want)
					}
				})
			}
		}
	}
}

func BenchmarkSignatureReps(b *testing.B) {
	cfg := Config{Hosts: 400, Seed: 1, Warmup: 2 * sim.Millisecond, Measure: 3 * sim.Millisecond}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SignatureReps(cfg)
	}
}

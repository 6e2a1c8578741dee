package metrics

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzHistogram checks quantile sanity on arbitrary observations: the
// histogram must never panic, quantiles must be monotone, and bucket
// lower bounds must never exceed the recorded maximum. It also reads the
// input as raw float64 bit patterns and checks the Frexp bucketing
// against the defining Log2 formula bit for bit.
func FuzzHistogram(f *testing.F) {
	f.Add([]byte{1, 2, 3})
	seeds := []float64{0, 0.5, math.Nextafter(1, 0), 1, math.SmallestNonzeroFloat64,
		0x1p-1022 / 3, math.MaxFloat64, math.Inf(1), math.NaN()}
	for _, k := range []int{1, 2, 10, 31, 52, 53, 64, 500, 1023} {
		p := math.Ldexp(1, k)
		seeds = append(seeds, math.Nextafter(p, 0), math.Nextafter(math.Nextafter(p, 0), 0), p)
	}
	raw := make([]byte, 0, 8*len(seeds))
	for _, v := range seeds {
		raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v))
	}
	f.Add(raw)
	f.Fuzz(func(t *testing.T, raw []byte) {
		h := NewHistogram(16)
		for i := 0; i+1 < len(raw); i += 2 {
			v := float64(uint16(raw[i])<<8|uint16(raw[i+1])) * 37.5
			h.Observe(v)
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := h.Quantile(q)
			if v < prev {
				t.Fatalf("quantiles not monotone at %v", q)
			}
			prev = v
		}
		if h.Count() > 0 && h.Quantile(0.5) > h.Max() {
			t.Fatal("median above max")
		}
		for i := 0; i+8 <= len(raw); i += 8 {
			v := math.Float64frombits(binary.LittleEndian.Uint64(raw[i:]))
			for _, sb := range []int{2, 7, 16} {
				d := NewHistogram(sb)
				if got, want := d.bucketIndex(v), d.bucketIndexLog2(v); got != want {
					t.Fatalf("subBuckets %d: bucketIndex(%v) = %d, Log2 formula gives %d", sb, v, got, want)
				}
			}
		}
	})
}

// TestBucketIndexMatchesLog2NearOctaves sweeps the ulps around every
// power of two, where Log2 rounding makes the two formulas disagree
// unless the mantissa guard defers.
func TestBucketIndexMatchesLog2NearOctaves(t *testing.T) {
	h := NewHistogram(16)
	for k := 0; k < 1024; k++ {
		for _, dir := range []float64{0, math.Inf(1)} {
			v := math.Ldexp(1, k)
			for i := 0; i < 64 && !math.IsInf(v, 0); i++ {
				if got, want := h.bucketIndex(v), h.bucketIndexLog2(v); got != want {
					t.Fatalf("bucketIndex(%v) = %d, Log2 formula gives %d", v, got, want)
				}
				v = math.Nextafter(v, dir)
			}
		}
	}
}

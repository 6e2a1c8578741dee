package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"hic/internal/core"
	"hic/internal/sim"
)

// canonicalFmt is the fmt-based encoding Canonical replaced, kept as
// the oracle: Canonical must reproduce it byte for byte, because cache
// entries on disk, roster keys and golden hashes all address it.
func canonicalFmt(p core.Params) string {
	var b strings.Builder
	f := func(name string, v any) {
		fmt.Fprintf(&b, "%s=%v;", name, v)
	}
	f("Seed", p.Seed)
	f("Threads", p.Threads)
	f("Senders", p.Senders)
	f("RxRegionBytes", p.RxRegionBytes)
	f("IOMMU", p.IOMMU)
	f("Hugepages", p.Hugepages)
	f("AntagonistCores", p.AntagonistCores)
	f("CC", string(p.CC))
	f("FixedCwnd", p.FixedCwnd)
	f("HostTarget", int64(p.HostTarget))
	f("NICBufferBytes", p.NICBufferBytes)
	f("DeviceTLBEntries", p.DeviceTLBEntries)
	f("StrictIOMMU", p.StrictIOMMU)
	f("LinkLatencyScale", p.LinkLatencyScale)
	f("MemoryIOReservedShare", p.MemoryIOReservedShare)
	f("SubRTTHostECN", p.SubRTTHostECN)
	f("FabricECNThresholdBytes", p.FabricECNThresholdBytes)
	f("CPUCores", p.CPUCores)
	f("InitialActiveCores", p.InitialActiveCores)
	f("DynamicCoreScaling", p.DynamicCoreScaling)
	f("AntagonistRemoteNUMA", p.AntagonistRemoteNUMA)
	f("CopyReadFraction", p.CopyReadFraction)
	f("PerQueueNICBuffers", p.PerQueueNICBuffers)
	f("VictimConnGbps", p.VictimConnGbps)
	f("SenderHostModel", p.SenderHostModel)
	f("SenderAntagonistCores", p.SenderAntagonistCores)
	f("OfferedGbps", p.OfferedGbps)
	f("BurstDuty", p.BurstDuty)
	f("BurstPeriod", int64(p.BurstPeriod))
	f("Warmup", int64(p.Warmup))
	f("Measure", int64(p.Measure))
	return b.String()
}

// fuzzParams spreads a handful of fuzz values over every Params field
// by kind, so a field added later is fuzzed without a new fuzz
// argument: unsigned fields take seed, signed ones (durations
// included) alternate a and b, floats alternate x and y, bools read
// successive bits of bits, and strings take cc.
func fuzzParams(seed uint64, a, b int64, x, y float64, bits uint32, cc string) core.Params {
	var p core.Params
	v := reflect.ValueOf(&p).Elem()
	var ni, nf, nb int
	for i := 0; i < v.NumField(); i++ {
		fv := v.Field(i)
		switch fv.Kind() {
		case reflect.Uint64:
			fv.SetUint(seed)
		case reflect.Int, reflect.Int64:
			fv.SetInt([]int64{a, b}[ni%2])
			ni++
		case reflect.Float64:
			fv.SetFloat([]float64{x, y}[nf%2])
			nf++
		case reflect.Bool:
			fv.SetBool(bits>>(nb%32)&1 == 1)
			nb++
		case reflect.String:
			fv.SetString(cc)
		default:
			panic("fuzzParams: unhandled Params field kind " + fv.Kind().String())
		}
	}
	return p
}

// FuzzCanonical checks the strconv encoding against the fmt oracle on
// arbitrary field values. The seeds cover the float edge cases (NaN,
// ±Inf, −0, the largest and smallest magnitudes, integral values on
// both sides of 1e6 where %g switches to exponent form, 1e20 and 1e21),
// negative durations, the largest Seed, non-ASCII and invalid
// UTF-8 CC strings, and random bit patterns.
func FuzzCanonical(f *testing.F) {
	type seed struct {
		seed uint64
		a, b int64
		x, y float64
		bits uint32
		cc   string
	}
	seeds := []seed{
		{1, 12, 40, 0, 1, 0x5, "swift"},
		{0, 0, 0, math.NaN(), math.Inf(1), 0, ""},
		{math.MaxUint64, -1, math.MinInt64, math.Inf(-1), math.Copysign(0, -1), math.MaxUint32, "dctcp"},
		{7, math.MaxInt64, -int64(sim.Millisecond), math.MaxFloat64, math.SmallestNonzeroFloat64, 0xaaaa, "swïft"},
		{3, 1 << 40, -3 * int64(sim.Microsecond), 1e20, 1e21, 0x5555, "\xff\xfe;="},
		{9, 4, 8, 1e-5, 123456789.125, 0x1, "日本"},
		{2, 6, 24, 1e-4, 0.1, 0x2, "reno"},
		{4, 1, 2, 999999, 1e6, 0x3, "swift"},
		{5, -1, -2, -999999, -1e6, 0x4, "swift"},
		{6, 0, 0, 60, -3, 0x6, "swift"},
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 64; i++ {
		seeds = append(seeds, seed{r.Uint64(), int64(r.Uint64()), int64(r.Uint64()),
			math.Float64frombits(r.Uint64()), math.Float64frombits(r.Uint64()),
			r.Uint32(), "swift"})
	}
	for _, s := range seeds {
		f.Add(s.seed, s.a, s.b, s.x, s.y, s.bits, s.cc)
	}
	f.Fuzz(func(t *testing.T, seed uint64, a, b int64, x, y float64, bits uint32, cc string) {
		p := fuzzParams(seed, a, b, x, y, bits, cc)
		if got, want := p.Canonical(), canonicalFmt(p); got != want {
			t.Fatalf("Canonical() differs from the fmt encoding:\n got %q\nwant %q", got, want)
		}
	})
}

var canonicalSink string

// fleetLikeParams is a typical fleet host's scenario: every field at a
// realistic value, so the allocation gate and benchmark see the common
// encoding length.
func fleetLikeParams() core.Params {
	p := core.DefaultParams(12)
	p.Seed = math.MaxUint64 / 3
	p.AntagonistCores = 8
	p.OfferedGbps = 60
	p.BurstDuty = 0.35
	p.BurstPeriod = 2 * sim.Millisecond
	p.Warmup, p.Measure = 2*sim.Millisecond, 3*sim.Millisecond
	return p
}

// TestCanonicalAllocs gates Canonical at one allocation per call (the
// returned string): it keys every cache lookup and every signature, so
// a warm serve query calls it thousands of times.
func TestCanonicalAllocs(t *testing.T) {
	for _, p := range []core.Params{core.DefaultParams(8), fleetLikeParams()} {
		if n := testing.AllocsPerRun(200, func() { canonicalSink = p.Canonical() }); n > 1 {
			t.Errorf("Canonical() makes %.1f allocations per call, want <= 1", n)
		}
	}
}

func BenchmarkCanonical(b *testing.B) {
	p := fleetLikeParams()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		canonicalSink = p.Canonical()
	}
}

package core

import (
	"strconv"

	"hic/internal/runcache"
)

// SimVersion salts every cache key. Bump it whenever a change anywhere
// in the simulator can alter the Results produced for a given Params —
// engine semantics, component timing, congestion-control behavior, or
// the Results schema itself. Old cache entries then simply stop being
// addressed; no explicit invalidation pass is needed.
const SimVersion = "hic-sim-2"

// ParamsFieldCount pins the number of fields in Params. A test asserts
// it by reflection: adding a Params field without extending Canonical
// below (and bumping this constant) would silently alias distinct
// scenarios to one cache key.
const ParamsFieldCount = 31

// canonicalCap pre-sizes Canonical's buffer: the field names and
// separators take 449 bytes, and typical values fit in the rest,
// so one allocation (the returned string) is the common case.
const canonicalCap = 640

// Canonical renders every Params field into a stable, unambiguous
// string. Field order is fixed, values are printed in fmt's %v form
// (shortest round-trip 'g' form for floats), and entries are
// ';'-separated with explicit names so no two distinct Params can
// collide textually. The encoding is appended with strconv into one
// pre-sized buffer: it keys every cache lookup and signature, so it
// must stay cheap, and its bytes must never change (cache entries on
// disk and golden hashes address it).
func (p Params) Canonical() string {
	b := make([]byte, 0, canonicalCap)
	name := func(n string) { b = append(append(b, n...), '=') }
	u := func(n string, v uint64) { name(n); b = append(strconv.AppendUint(b, v, 10), ';') }
	i := func(n string, v int64) { name(n); b = append(strconv.AppendInt(b, v, 10), ';') }
	t := func(n string, v bool) { name(n); b = append(strconv.AppendBool(b, v), ';') }
	f := func(n string, v float64) { name(n); b = append(strconv.AppendFloat(b, v, 'g', -1, 64), ';') }
	u("Seed", p.Seed)
	i("Threads", int64(p.Threads))
	i("Senders", int64(p.Senders))
	u("RxRegionBytes", p.RxRegionBytes)
	t("IOMMU", p.IOMMU)
	t("Hugepages", p.Hugepages)
	i("AntagonistCores", int64(p.AntagonistCores))
	name("CC")
	b = append(append(b, p.CC...), ';')
	f("FixedCwnd", p.FixedCwnd)
	i("HostTarget", int64(p.HostTarget))
	i("NICBufferBytes", int64(p.NICBufferBytes))
	i("DeviceTLBEntries", int64(p.DeviceTLBEntries))
	t("StrictIOMMU", p.StrictIOMMU)
	f("LinkLatencyScale", p.LinkLatencyScale)
	f("MemoryIOReservedShare", p.MemoryIOReservedShare)
	t("SubRTTHostECN", p.SubRTTHostECN)
	i("FabricECNThresholdBytes", int64(p.FabricECNThresholdBytes))
	i("CPUCores", int64(p.CPUCores))
	i("InitialActiveCores", int64(p.InitialActiveCores))
	t("DynamicCoreScaling", p.DynamicCoreScaling)
	t("AntagonistRemoteNUMA", p.AntagonistRemoteNUMA)
	f("CopyReadFraction", p.CopyReadFraction)
	t("PerQueueNICBuffers", p.PerQueueNICBuffers)
	f("VictimConnGbps", p.VictimConnGbps)
	t("SenderHostModel", p.SenderHostModel)
	i("SenderAntagonistCores", int64(p.SenderAntagonistCores))
	f("OfferedGbps", p.OfferedGbps)
	f("BurstDuty", p.BurstDuty)
	i("BurstPeriod", int64(p.BurstPeriod))
	i("Warmup", int64(p.Warmup))
	i("Measure", int64(p.Measure))
	return string(b)
}

// CacheKey content-addresses the scenario: sha256 over the simulator
// version salt and the canonical parameter encoding.
func (p Params) CacheKey() string {
	return runcache.Key(SimVersion, p.Canonical())
}

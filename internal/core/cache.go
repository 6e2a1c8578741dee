package core

import (
	"fmt"
	"strings"

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

// Canonical renders every Params field into a stable, unambiguous
// string. Field order is fixed, values are printed with %v (shortest
// round-trip form for floats), and entries are ';'-separated with
// explicit names so no two distinct Params can collide textually.
func (p Params) Canonical() string {
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

// CacheKey content-addresses the scenario: sha256 over the simulator
// version salt and the canonical parameter encoding.
func (p Params) CacheKey() string {
	return runcache.Key(SimVersion, p.Canonical())
}

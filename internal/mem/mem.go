// Package mem models the host memory subsystem of one NUMA node: a memory
// controller fed by DDR channels whose bandwidth is shared — first come,
// first served, blind to the source — between CPU cores and the NIC's DMA
// engine (via the PCIe root complex).
//
// The paper (§3.2) explains memory-bus-induced host congestion through the
// load–latency curve of this closed-loop system: as offered load approaches
// the achievable bandwidth, the service time of every request (including
// the PCIe writes that carry arriving packets, and the page-table walks the
// IOMMU performs) inflates steeply. We reproduce exactly that mechanism:
//
//   - CPU traffic (STREAM antagonists, receive-path copies) is fluid: each
//     source registers an offered byte rate, re-evaluated every epoch.
//   - IO traffic (DMA writes, IOMMU page-walk reads) is discrete: each
//     request occupies a FIFO virtual server whose rate is the bandwidth
//     left over after the CPU's grab, plus a per-access latency multiplied
//     by the current load factor.
//   - When total offered load exceeds capacity, CPUs acquire up to
//     CPUMaxShare of the bus (the imbalance the paper observes); the NIC
//     gets the remainder, unless an MBA-style reservation (§4(c)) guarantees
//     it a minimum share.
package mem

import (
	"fmt"
	"math"

	"hic/internal/metrics"
	"hic/internal/sim"
)

// Config describes one NUMA node's memory subsystem. The defaults mirror
// the paper's testbed: 6 DDR4-2400 channels = 115.2 GB/s theoretical,
// ~100 GB/s achievable, ~90 ns loaded-to-idle DRAM access.
type Config struct {
	// TheoreticalBW is the aggregate channel bandwidth (paper: 115.2 GB/s).
	TheoreticalBW sim.BitsPerSecond
	// Efficiency is the achievable fraction of TheoreticalBW once refresh,
	// turnarounds and bank conflicts are accounted for (~0.87).
	Efficiency float64
	// BaseLatency is the uncontended DRAM access latency.
	BaseLatency sim.Duration
	// MaxLoadFactor caps the latency multiplier at saturation.
	MaxLoadFactor float64
	// LoadCurveA scales the pre-saturation latency growth A·ρ⁸/(1−ρ):
	// DRAM controllers sustain high utilization with modest latency
	// growth until very near capacity, unlike an M/M/1 queue.
	LoadCurveA float64
	// LoadCurveB scales the post-saturation growth B·(ρ−1): overload
	// queues requests and every extra offered byte deepens the wait.
	LoadCurveB float64
	// CPUMaxShare is the largest fraction of achievable bandwidth the CPU
	// side can grab under contention (paper: CPUs out-compete the NIC).
	CPUMaxShare float64
	// IOReservedShare guarantees the IO side a minimum fraction of
	// achievable bandwidth (0 = off). This models the §4(c) MBA/MPAM-style
	// QoS extension and is used by the ext-mba experiment.
	IOReservedShare float64
	// Epoch is the re-evaluation period for fluid demand accounting.
	Epoch sim.Duration
}

// DefaultConfig returns the paper-testbed configuration.
func DefaultConfig() Config {
	return Config{
		TheoreticalBW: sim.GBpsRate(115.2),
		Efficiency:    0.87,
		BaseLatency:   90 * sim.Nanosecond,
		MaxLoadFactor: 3.5,
		LoadCurveA:    0.15,
		LoadCurveB:    3,
		CPUMaxShare:   0.82,
		Epoch:         5 * sim.Microsecond,
	}
}

func (c Config) validate() error {
	if c.TheoreticalBW <= 0 {
		return fmt.Errorf("mem: non-positive theoretical bandwidth")
	}
	if c.Efficiency <= 0 || c.Efficiency > 1 {
		return fmt.Errorf("mem: efficiency %v outside (0,1]", c.Efficiency)
	}
	if c.BaseLatency <= 0 {
		return fmt.Errorf("mem: non-positive base latency")
	}
	if c.CPUMaxShare <= 0 || c.CPUMaxShare > 1 {
		return fmt.Errorf("mem: CPUMaxShare %v outside (0,1]", c.CPUMaxShare)
	}
	if c.IOReservedShare < 0 || c.IOReservedShare >= 1 {
		return fmt.Errorf("mem: IOReservedShare %v outside [0,1)", c.IOReservedShare)
	}
	if c.Epoch <= 0 {
		return fmt.Errorf("mem: non-positive epoch")
	}
	if c.MaxLoadFactor < 1 {
		return fmt.Errorf("mem: MaxLoadFactor %v < 1", c.MaxLoadFactor)
	}
	if c.LoadCurveA < 0 || c.LoadCurveB < 0 {
		return fmt.Errorf("mem: negative load-curve coefficient")
	}
	return nil
}

// Controller is the memory controller for one NUMA node.
type Controller struct {
	engine *sim.Engine
	cfg    Config

	// Fluid CPU-side demand, bytes/second per source, sorted by source.
	cpuDemand []cpuSource
	cpuTotal  float64 // sum of cpuDemand

	// Discrete IO-side virtual server.
	ioBusyUntil  sim.Time
	ioEpochBytes uint64  // IO bytes requested during the current epoch
	ioOffered    float64 // smoothed IO offered load, bytes/second

	// Derived allocation, recomputed every epoch or on demand change.
	cpuAchieved   float64 // bytes/second actually granted to CPU side
	ioServiceRate float64 // bytes/second available to the IO server
	loadFactor    float64 // latency multiplier from the load–latency curve

	// Measurement.
	cpuServedBytes float64 // integral of cpuAchieved over time
	lastAccount    sim.Time
	ioServed       *metrics.Counter
	ioRequests     *metrics.Counter
	ioQueue        *metrics.Gauge
	latencyHist    *metrics.Histogram // per-access latency, ns
}

// New constructs a controller and starts its accounting ticker.
func New(engine *sim.Engine, reg *metrics.Registry, cfg Config) (*Controller, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	c := &Controller{
		engine:      engine,
		cfg:         cfg,
		loadFactor:  1,
		lastAccount: engine.Now(),
		ioServed:    reg.Counter("mem.io.bytes"),
		ioRequests:  reg.Counter("mem.io.requests"),
		ioQueue:     reg.Gauge("mem.io.queue"),
		latencyHist: reg.Histogram("mem.access.latency.ns"),
	}
	c.recompute()
	engine.Every(cfg.Epoch, c.epoch)
	return c, nil
}

// cpuSource is one registered fluid CPU-side demand.
type cpuSource struct {
	source string
	rate   float64 // offered bytes/second
}

// capacity returns the achievable bandwidth in bytes/second.
func (c *Controller) capacity() float64 {
	return c.cfg.TheoreticalBW.BytesPerSecond() * c.cfg.Efficiency
}

// SetCPUDemand registers (or updates) a fluid CPU-side demand source. A
// zero rate removes the source. Rates are offered load; the controller
// decides how much is achieved.
func (c *Controller) SetCPUDemand(source string, bytesPerSecond float64) {
	if bytesPerSecond < 0 {
		bytesPerSecond = 0
	}
	c.accountCPU()
	i := 0
	for i < len(c.cpuDemand) && c.cpuDemand[i].source < source {
		i++
	}
	found := i < len(c.cpuDemand) && c.cpuDemand[i].source == source
	switch {
	case found && bytesPerSecond == 0:
		c.cpuDemand = append(c.cpuDemand[:i], c.cpuDemand[i+1:]...)
	case found:
		c.cpuDemand[i].rate = bytesPerSecond
	case bytesPerSecond != 0:
		c.cpuDemand = append(c.cpuDemand, cpuSource{})
		copy(c.cpuDemand[i+1:], c.cpuDemand[i:])
		c.cpuDemand[i] = cpuSource{source: source, rate: bytesPerSecond}
	}
	// Sum in sorted source order: float addition is not associative, so
	// a fixed order keeps runs reproducible in the last bits.
	c.cpuTotal = 0
	for _, d := range c.cpuDemand {
		c.cpuTotal += d.rate
	}
	c.recompute()
}

// accountCPU integrates achieved CPU bandwidth up to now.
func (c *Controller) accountCPU() {
	now := c.engine.Now()
	dt := now.Sub(c.lastAccount).Seconds()
	if dt > 0 {
		c.cpuServedBytes += c.cpuAchieved * dt
	}
	c.lastAccount = now
}

// epoch folds the IO bytes observed during the last epoch into the
// smoothed offered-load estimate and recomputes the allocation.
func (c *Controller) epoch() {
	c.accountCPU()
	inst := float64(c.ioEpochBytes) / c.cfg.Epoch.Seconds()
	c.ioEpochBytes = 0
	const alpha = 0.3 // EWMA smoothing for the IO offered-load estimate
	c.ioOffered = alpha*inst + (1-alpha)*c.ioOffered
	c.recompute()
}

// recompute derives the allocation and load factor from current demands.
//
// Allocation: the CPU side achieves its offered load up to
// capacity·min(CPUMaxShare, 1−IOReservedShare); the IO virtual server runs
// at whatever remains. This encodes the paper's observation that under
// contention the CPUs acquire the larger fraction of the bus.
//
// Load factor: a closed-loop load–latency curve 1/(1−ρ), with ρ computed
// from total offered load and capped so the multiplier never exceeds
// MaxLoadFactor. Every discrete access pays BaseLatency·loadFactor.
func (c *Controller) recompute() {
	cap := c.capacity()
	cpuLimit := cap * math.Min(c.cfg.CPUMaxShare, 1-c.cfg.IOReservedShare)
	c.cpuAchieved = math.Min(c.cpuTotal, cpuLimit)
	c.ioServiceRate = cap - c.cpuAchieved
	// FCFS never starves a requester completely: even with the CPUs
	// allowed the whole bus, interleaved IO requests win some slots.
	minIO := cap * 0.01
	if r := cap * c.cfg.IOReservedShare; r > minIO {
		minIO = r
	}
	if c.ioServiceRate < minIO {
		c.ioServiceRate = minIO
	}

	rho := (c.cpuTotal + c.ioOffered) / cap
	if rho < 0 {
		rho = 0
	}
	// With an MBA-style reservation, the IO side rides its own lane:
	// its latency follows the lane's utilization, not the (throttled)
	// CPU side's queue — that is the point of the QoS mechanism.
	if r := c.cfg.IOReservedShare; r > 0 {
		lane := c.ioOffered / (cap * r)
		if lane < rho {
			rho = lane
		}
	}
	// Closed-loop load–latency curve with a DRAM-like knee: latency is
	// near-flat until ~90% utilization, grows as A·ρ⁸/(1−ρ) approaching
	// saturation, and linearly in the overload depth beyond it, capped
	// at MaxLoadFactor.
	rhoC := math.Min(rho, 0.95)
	lf := 1 + c.cfg.LoadCurveA*math.Pow(rhoC, 8)/(1-rhoC)
	if rho > 1 {
		lf += c.cfg.LoadCurveB * (rho - 1)
	}
	if lf > c.cfg.MaxLoadFactor {
		lf = c.cfg.MaxLoadFactor
	}
	c.loadFactor = lf
}

// AccessLatency returns the current per-access DRAM latency (base latency
// scaled by the load factor). IOMMU page walks use this directly.
func (c *Controller) AccessLatency() sim.Duration {
	return sim.Duration(float64(c.cfg.BaseLatency) * c.loadFactor)
}

// LoadFactor returns the current latency multiplier (≥1).
func (c *Controller) LoadFactor() float64 { return c.loadFactor }

// IOOffered returns the smoothed IO offered-load estimate (bytes/s) —
// the memory controller's slow state, captured into steady-state
// checkpoints so a warm start begins at the donor's converged demand
// estimate instead of re-learning it over many EWMA epochs.
func (c *Controller) IOOffered() float64 { return c.ioOffered }

// PrimeIOOffered seeds the smoothed IO offered-load estimate from a
// donor run and recomputes the bandwidth allocation, so the first
// accesses of a warm-started run already pay converged contention
// latency. Negative values are ignored.
func (c *Controller) PrimeIOOffered(bytesPerSecond float64) {
	if bytesPerSecond < 0 {
		return
	}
	c.ioOffered = bytesPerSecond
	c.recompute()
}

// QueueDelay returns the current backlog of the IO virtual server: how
// long a request issued now would wait before its transfer begins. Spans
// annotate their memory stages with it, and drop attribution reads it as
// the instantaneous "DRAM queue wait" signal.
func (c *Controller) QueueDelay() sim.Duration {
	d := c.ioBusyUntil.Sub(c.engine.Now())
	if d < 0 {
		return 0
	}
	return d
}

// Utilization returns total offered load over achievable capacity. Values
// above 1 indicate overload.
func (c *Controller) Utilization() float64 {
	return (c.cpuTotal + c.ioOffered) / c.capacity()
}

// CPUOffered returns the current total fluid CPU demand in bytes/second.
func (c *Controller) CPUOffered() float64 { return c.cpuTotal }

// CPUAchieved returns the bandwidth currently granted to the CPU side.
func (c *Controller) CPUAchieved() float64 { return c.cpuAchieved }

// IOServiceRate returns the bandwidth currently available to IO requests.
func (c *Controller) IOServiceRate() float64 { return c.ioServiceRate }

// request serves one discrete IO access of n bytes through the FIFO
// virtual server and invokes done when it completes. The latency is
// queueing (server busy time) + transfer at the IO service rate + one
// loaded DRAM access.
func (c *Controller) request(n int, done func()) {
	if n < 0 {
		panic("mem: negative request size")
	}
	now := c.engine.Now()
	c.ioRequests.Inc()
	c.ioEpochBytes += uint64(n)

	rate := c.ioServiceRate
	if rate <= 0 {
		rate = 1 // fully starved: crawl rather than divide by zero
	}
	transfer := sim.Duration(float64(n) / rate * 1e9)
	access := c.AccessLatency()

	start := c.ioBusyUntil
	if start < now {
		start = now
	}
	// The server is occupied for the transfer only; the per-access DRAM
	// latency pipelines across banks and adds to completion time without
	// consuming bandwidth.
	c.ioBusyUntil = start.Add(transfer)
	finish := start.Add(transfer + access)
	c.ioQueue.Set(int64(finish.Sub(now)))

	total := finish.Sub(now)
	c.latencyHist.Observe(float64(total))
	c.ioServed.Add(uint64(n))
	c.engine.At(finish, done)
}

// Write performs a DMA-side memory write of n bytes (a PCIe posted write
// landing in DRAM), invoking done at completion.
func (c *Controller) Write(n int, done func()) { c.request(n, done) }

// Read performs an IO-side memory read of n bytes (page-table walk steps,
// descriptor fetches), invoking done at completion.
func (c *Controller) Read(n int, done func()) { c.request(n, done) }

// IOServedBytes returns the total bytes served to the IO side so far.
func (c *Controller) IOServedBytes() uint64 { return c.ioServed.Value() }

// CPUServedBytes returns the integral of achieved CPU bandwidth so far.
func (c *Controller) CPUServedBytes() float64 {
	c.accountCPU()
	return c.cpuServedBytes
}

// TotalBandwidthGBps returns the total achieved memory bandwidth since
// since (a sim.Time), in GB/s — the quantity Figure 6's top panels plot.
func (c *Controller) TotalBandwidthGBps(since sim.Time, sinceIOBytes uint64, sinceCPUBytes float64) float64 {
	dt := c.engine.Now().Sub(since).Seconds()
	if dt <= 0 {
		return 0
	}
	io := float64(c.ioServed.Value() - sinceIOBytes)
	cpu := c.CPUServedBytes() - sinceCPUBytes
	return (io + cpu) / dt / 1e9
}

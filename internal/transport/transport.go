// Package transport implements the reliable transport running between the
// sender machines and the receiver host: per-connection congestion-
// controlled data streams (the paper's 16 KB remote reads segmented into
// 4 KB-MTU packets), per-packet acknowledgements carrying the delay
// signals congestion control consumes, and timeout-based loss recovery.
//
// Congestion control is pluggable through the CongestionControl
// interface; the swift and dctcp subpackages provide the paper's
// protocol and the TCP-like baseline respectively.
package transport

import (
	"cmp"
	"fmt"
	"slices"

	"hic/internal/metrics"
	"hic/internal/pkt"
	"hic/internal/sim"
)

// AckInfo is the signal set delivered to congestion control on every ACK.
type AckInfo struct {
	// Now is the ACK arrival time at the sender.
	Now sim.Time
	// RTT is the full send→ack round trip.
	RTT sim.Duration
	// FabricDelay is the forward one-way fabric component.
	FabricDelay sim.Duration
	// HostDelay is the receiver-host component (NIC arrival → delivery),
	// the signal Swift's host target compares against.
	HostDelay sim.Duration
	// ECN is the fabric congestion mark (DCTCP baseline).
	ECN bool
	// HostECN is the sub-RTT host congestion mark (§4 extension).
	HostECN bool
	// AckedBytes is the payload acknowledged.
	AckedBytes int
}

// CongestionControl is the per-connection congestion controller.
type CongestionControl interface {
	// OnAck processes one acknowledgement.
	OnAck(info AckInfo)
	// OnLoss reports a timeout-detected loss.
	OnLoss(now sim.Time)
	// Cwnd returns the congestion window in packets (may be fractional;
	// values below 1 mean the connection paces slower than 1 packet/RTT).
	Cwnd() float64
	// Name identifies the protocol in reports.
	Name() string
}

// Config describes a connection.
type Config struct {
	// MTU is the data payload per packet (paper: 4 KB).
	MTU int
	// ReadSize is the RPC read size (paper: 16 KB) — an accounting
	// granularity: ReadSize/MTU packets complete one read.
	ReadSize int
	// RTOMin is the minimum retransmission timeout.
	RTOMin sim.Duration
	// RTOSRTTFactor scales smoothed RTT into the timeout.
	RTOSRTTFactor float64
	// RetxScan is the period of the retransmission scan.
	RetxScan sim.Duration
	// MaxInflightPackets caps the window regardless of cwnd (descriptor
	// and buffer provisioning at the receiver).
	MaxInflightPackets int
	// AppRateLimit caps the connection's offered load in bits/second
	// (0 = unlimited). Application-limited senders are how a host can
	// run well below its access-link rate — and still drop packets when
	// the host interconnect capacity falls below even that (Figure 1's
	// low-utilization drops).
	AppRateLimit sim.BitsPerSecond
}

// DefaultConfig returns the paper-workload connection configuration.
func DefaultConfig() Config {
	return Config{
		MTU:                4096,
		ReadSize:           16 << 10,
		RTOMin:             200 * sim.Microsecond,
		RTOSRTTFactor:      3,
		RetxScan:           50 * sim.Microsecond,
		MaxInflightPackets: 256,
	}
}

func (c Config) validate() error {
	if c.MTU <= 0 {
		return fmt.Errorf("transport: MTU must be positive")
	}
	if c.ReadSize < c.MTU {
		return fmt.Errorf("transport: ReadSize %d < MTU %d", c.ReadSize, c.MTU)
	}
	if c.RTOMin <= 0 || c.RetxScan <= 0 {
		return fmt.Errorf("transport: RTOMin and RetxScan must be positive")
	}
	if c.RTOSRTTFactor < 1 {
		return fmt.Errorf("transport: RTOSRTTFactor %v < 1", c.RTOSRTTFactor)
	}
	if c.MaxInflightPackets <= 0 {
		return fmt.Errorf("transport: MaxInflightPackets must be positive")
	}
	if c.AppRateLimit < 0 {
		return fmt.Errorf("transport: negative AppRateLimit")
	}
	return nil
}

// sentInfo is one outstanding sequence.
type sentInfo struct {
	seq       uint64
	at        sim.Time
	payload   int
	retx      int
	laterAcks int // acks for higher sequences seen since (re)send
}

// inflightSet holds a connection's outstanding sequences by value in
// ascending seq order, so loss recovery walks them in order without
// copying or sorting, and without allocating once the backing array has
// grown to the connection's peak window. New sequences always exceed
// every outstanding one (a retransmission reuses its entry), so add is
// an append; acks retire entries mostly from the front.
type inflightSet struct {
	buf  []sentInfo
	head int // live entries are buf[head:]
}

func (s *inflightSet) len() int { return len(s.buf) - s.head }

// entries returns the outstanding sequences in ascending seq order.
// Entries may be updated in place; the slice is valid until the next
// add or remove.
func (s *inflightSet) entries() []sentInfo { return s.buf[s.head:] }

// add appends e, whose seq must exceed every outstanding seq.
func (s *inflightSet) add(e sentInfo) {
	if len(s.buf) == cap(s.buf) && s.head > 0 {
		n := copy(s.buf, s.buf[s.head:])
		s.buf, s.head = s.buf[:n], 0
	}
	s.buf = append(s.buf, e)
}

// find returns seq's index in entries(), or -1 if it is not outstanding.
func (s *inflightSet) find(seq uint64) int {
	i, ok := slices.BinarySearchFunc(s.entries(), seq, func(e sentInfo, seq uint64) int {
		return cmp.Compare(e.seq, seq)
	})
	if !ok {
		return -1
	}
	return i
}

// remove retires entries()[i], shifting whichever side is shorter.
func (s *inflightSet) remove(i int) {
	at := s.head + i
	if i < s.len()/2 {
		copy(s.buf[s.head+1:at+1], s.buf[s.head:at])
		s.buf[s.head] = sentInfo{}
		s.head++
	} else {
		copy(s.buf[at:], s.buf[at+1:])
		s.buf = s.buf[:len(s.buf)-1]
	}
	if s.head == len(s.buf) {
		s.buf, s.head = s.buf[:0], 0
	}
}

// fastRetxDupAcks is the dup-ack threshold for fast retransmit: once this
// many later packets are acknowledged while a sequence is outstanding,
// the packet is declared lost without waiting for the RTO.
const fastRetxDupAcks = 3

// Conn is the sender side of one connection (one sender machine ↔ one
// receiver thread). It models an infinite stream of 16 KB remote reads:
// the sender always has payload available and the congestion controller
// alone sets the rate.
type Conn struct {
	engine *sim.Engine
	cfg    Config
	cc     CongestionControl
	flow   uint32
	sender int
	queue  int
	emit   func(sender int, p *pkt.Packet)

	nextSeq   uint64
	nextID    uint64
	inflight  inflightSet
	srtt      sim.Duration
	pool      *pkt.Pool // packet free list; data packets are drawn here
	trySendFn func()    // c.trySend bound once, for pacing timers

	// Per-read (RPC) completion tracking for tail-latency measurement.
	reads map[uint64]readState

	paceUntil sim.Time // earliest next send when cwnd < 1
	appUntil  sim.Time // earliest next send under the app rate limit
	inactive  bool     // application idle (burst off-phase)

	sent      *metrics.Counter
	ackedB    *metrics.Counter
	retx      *metrics.Counter
	losses    *metrics.Counter
	rttHist   *metrics.Histogram
	hostDHist *metrics.Histogram
	readHist  *metrics.Histogram // ns, 16KB read issue → fully acked
}

// NewConn creates a connection. emit injects a packet into the fabric on
// behalf of this connection's sender machine.
func NewConn(engine *sim.Engine, reg *metrics.Registry, cfg Config, cc CongestionControl,
	flow uint32, sender, queue int, emit func(sender int, p *pkt.Packet)) (*Conn, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cc == nil || emit == nil {
		return nil, fmt.Errorf("transport: cc and emit are required")
	}
	c := &Conn{
		engine:    engine,
		cfg:       cfg,
		cc:        cc,
		flow:      flow,
		sender:    sender,
		queue:     queue,
		emit:      emit,
		reads:     make(map[uint64]readState),
		srtt:      20 * sim.Microsecond, // prior until measured
		sent:      reg.Counter("transport.sent.packets"),
		ackedB:    reg.Counter("transport.acked.bytes"),
		retx:      reg.Counter("transport.retx.packets"),
		losses:    reg.Counter("transport.losses"),
		rttHist:   reg.Histogram("transport.rtt.ns"),
		hostDHist: reg.Histogram("transport.host.delay.ns"),
		readHist:  reg.Histogram("transport.read.latency.ns"),
	}
	c.trySendFn = c.trySend
	engine.Every(cfg.RetxScan, c.scanRetransmits)
	return c, nil
}

// SetPool installs the run's packet free list: new data packets
// (including retransmissions) are drawn from it instead of the heap. The
// connection never releases — ownership of an emitted packet passes to
// the fabric and onward to whichever component sees it die.
func (c *Conn) SetPool(pool *pkt.Pool) { c.pool = pool }

// Start begins transmission.
func (c *Conn) Start() { c.trySend() }

// CC exposes the connection's congestion controller.
func (c *Conn) CC() CongestionControl { return c.cc }

// Flow returns the connection's flow identifier.
func (c *Conn) Flow() uint32 { return c.flow }

// SRTT returns the smoothed RTT estimate.
func (c *Conn) SRTT() sim.Duration { return c.srtt }

// InflightPackets returns the current outstanding packet count.
func (c *Conn) InflightPackets() int { return c.inflight.len() }

// WarmState is a connection's serializable congestion state — the part
// of steady state that takes many RTTs to re-learn on a cold start and
// therefore dominates the ramp a warm-started simulation skips.
type WarmState struct {
	Cwnd float64      `json:"cwnd"`
	SRTT sim.Duration `json:"srtt"`
}

// CwndPrimer is implemented by congestion controllers whose window can
// be seeded from a converged donor run (Swift, DCTCP). Fixed-window
// controllers deliberately do not implement it: their window is part of
// the scenario, not learned state.
type CwndPrimer interface {
	SetCwnd(cwnd float64)
}

// WarmState captures the connection's congestion state for a steady-
// state checkpoint.
func (c *Conn) WarmState() WarmState {
	return WarmState{Cwnd: c.cc.Cwnd(), SRTT: c.srtt}
}

// Prime seeds the connection with donor congestion state. Call before
// Start: the first transmissions then pace at the donor's converged
// window and RTT estimate instead of the configured initial window. The
// controller's own clamps stay authoritative, and non-positive donor
// values are ignored.
func (c *Conn) Prime(ws WarmState) {
	if ws.SRTT > 0 {
		c.srtt = ws.SRTT
	}
	if ws.Cwnd > 0 {
		if p, ok := c.cc.(CwndPrimer); ok {
			p.SetCwnd(ws.Cwnd)
		}
	}
}

// SetActive pauses (false) or resumes (true) the application. While
// inactive the connection sends nothing new; in-flight packets drain
// normally. Bursty workloads toggle this — and because the congestion
// window survives the idle phase, reactivation slams the receiver at the
// old rate, the burst behaviour behind Figure 1's low-utilization drops.
func (c *Conn) SetActive(active bool) {
	if c.inactive == !active {
		return
	}
	c.inactive = !active
	if active {
		c.trySend()
	}
}

// trySend transmits as long as the congestion window allows. For cwnd<1
// it paces: one packet every srtt/cwnd.
func (c *Conn) trySend() {
	if c.inactive {
		return
	}
	for {
		cwnd := c.cc.Cwnd()
		limit := int(cwnd)
		if limit > c.cfg.MaxInflightPackets {
			limit = c.cfg.MaxInflightPackets
		}
		now := c.engine.Now()
		if c.cfg.AppRateLimit > 0 && now < c.appUntil {
			c.engine.At(c.appUntil, c.trySendFn)
			return
		}
		if cwnd < 1 {
			if c.inflight.len() > 0 {
				return // sub-1 window: at most one packet outstanding
			}
			if now < c.paceUntil {
				c.engine.At(c.paceUntil, c.trySendFn)
				return
			}
			// ±15% deterministic jitter desynchronizes the hundreds of
			// sub-1-cwnd flows sharing the access link; without it their
			// sawtooths can resonate and underutilize the link.
			interval := c.engine.RNG().Jitter(sim.Duration(float64(c.srtt)/cwnd), 0.15)
			c.paceUntil = now.Add(interval)
			c.sendOne()
			return
		}
		if c.inflight.len() >= limit {
			return
		}
		c.sendOne()
	}
}

func (c *Conn) sendOne() {
	if c.cfg.AppRateLimit > 0 {
		c.appUntil = c.engine.Now().Add(c.cfg.AppRateLimit.TransmitTime(c.cfg.MTU))
	}
	seq := c.nextSeq
	c.nextSeq++
	p := c.pool.Data(c.nextID, c.flow, c.queue, seq, c.cfg.MTU)
	c.nextID++
	p.ReqID = seq / uint64(c.cfg.ReadSize/c.cfg.MTU)
	if r := c.reads[p.ReqID]; !r.started {
		// First packet of a 16 KB read: the RPC clock starts here
		// (retransmissions do not reset it).
		r.start, r.started = c.engine.Now(), true
		c.reads[p.ReqID] = r
	}
	c.inflight.add(sentInfo{seq: seq, at: c.engine.Now(), payload: c.cfg.MTU})
	c.sent.Inc()
	c.emit(c.sender, p)
}

// completeReadPacket advances RPC accounting for an acked sequence and
// records the read's completion latency when its last packet arrives.
func (c *Conn) completeReadPacket(seq uint64) {
	per := c.cfg.ReadSize / c.cfg.MTU
	req := seq / uint64(per)
	r := c.reads[req]
	r.acked++
	if r.acked < per {
		c.reads[req] = r
		return
	}
	if r.started {
		c.readHist.Observe(float64(c.engine.Now().Sub(r.start)))
	}
	delete(c.reads, req)
}

// readState tracks one 16 KB read in flight.
type readState struct {
	start   sim.Time // first packet sent
	started bool
	acked   int // packets acknowledged so far
}

// OnAck processes an acknowledgement arriving from the fabric.
func (c *Conn) OnAck(a *pkt.Packet) {
	i := c.inflight.find(a.AckSeq)
	if i < 0 {
		return // duplicate ack for an already-retired packet
	}
	info := c.inflight.entries()[i]
	c.inflight.remove(i)
	c.completeReadPacket(a.AckSeq)
	now := c.engine.Now()
	rtt := now.Sub(info.at)
	if info.retx == 0 {
		// Karn's rule: only un-retransmitted samples update the RTT.
		if c.srtt == 0 {
			c.srtt = rtt
		} else {
			c.srtt = c.srtt/8*7 + rtt/8
		}
		c.rttHist.Observe(float64(rtt))
		c.hostDHist.Observe(float64(a.EchoHostDelay))
	}
	c.fastRetransmit(a.AckSeq)
	c.ackedB.Add(uint64(a.AckedBytes))
	c.cc.OnAck(AckInfo{
		Now:         now,
		RTT:         rtt,
		FabricDelay: a.EchoFabric,
		HostDelay:   a.EchoHostDelay,
		ECN:         a.EchoECN,
		HostECN:     a.HostECN,
		AckedBytes:  a.AckedBytes,
	})
	c.trySend()
}

// fastRetransmit counts later-sequence acknowledgements against each
// still-outstanding earlier sequence; at the dup-ack threshold the packet
// is resent immediately and the loss reported to congestion control.
// Loss episodes then end within ~1 RTT instead of a full RTO.
func (c *Conn) fastRetransmit(ackedSeq uint64) {
	lost := false
	es := c.inflight.entries()
	for i := 0; i < len(es) && es[i].seq < ackedSeq; i++ {
		info := &es[i]
		info.laterAcks++
		if info.laterAcks < fastRetxDupAcks {
			continue
		}
		lost = true
		info.at = c.engine.Now()
		info.retx++
		info.laterAcks = 0
		c.resend(info)
	}
	if lost {
		c.losses.Inc()
		c.cc.OnLoss(c.engine.Now())
	}
}

// resend retransmits an outstanding sequence as a fresh packet.
func (c *Conn) resend(info *sentInfo) {
	c.retx.Inc()
	p := c.pool.Data(c.nextID, c.flow, c.queue, info.seq, info.payload)
	c.nextID++
	p.ReqID = info.seq / uint64(c.cfg.ReadSize/c.cfg.MTU)
	c.emit(c.sender, p)
}

// rto returns the current retransmission timeout.
func (c *Conn) rto() sim.Duration {
	rto := sim.Duration(float64(c.srtt) * c.cfg.RTOSRTTFactor)
	if rto < c.cfg.RTOMin {
		rto = c.cfg.RTOMin
	}
	return rto
}

// scanRetransmits resends packets whose timeout has expired and informs
// congestion control of the loss (once per scan; the controller applies
// its own per-RTT clamp).
func (c *Conn) scanRetransmits() {
	now := c.engine.Now()
	rto := c.rto()
	lost := false
	es := c.inflight.entries()
	for i := range es {
		info := &es[i]
		// Exponential backoff per retransmission: the smoothed RTT lags
		// badly when host queues balloon (Karn's rule excludes
		// retransmitted samples), and without backoff a too-short RTO
		// spirals into a spurious-retransmission storm.
		backoff := info.retx
		if backoff > 6 {
			backoff = 6
		}
		if now.Sub(info.at) < rto<<uint(backoff) {
			continue
		}
		lost = true
		// Karn's rule keeps retransmitted samples out of srtt, but when
		// every packet times out srtt would never learn the true RTT
		// and the too-short RTO would fire forever. A timeout is itself
		// a lower-bound RTT observation: pull srtt up to the elapsed
		// wait.
		if elapsed := now.Sub(info.at); elapsed > c.srtt {
			c.srtt = elapsed
		}
		info.at = now
		info.retx++
		info.laterAcks = 0
		c.resend(info)
	}
	if lost {
		c.losses.Inc()
		c.cc.OnLoss(now)
		c.trySend()
	}
}

// Stats is a snapshot of sender-side connection activity.
type Stats struct {
	SentPackets   uint64
	AckedBytes    uint64
	Retransmits   uint64
	LossEvents    uint64
	InflightCount int
}

// Stats returns current counters.
func (c *Conn) Stats() Stats {
	return Stats{
		SentPackets:   c.sent.Value(),
		AckedBytes:    c.ackedB.Value(),
		Retransmits:   c.retx.Value(),
		LossEvents:    c.losses.Value(),
		InflightCount: c.inflight.len(),
	}
}

// Package fabric models the network between the sender machines and the
// receiver host: per-sender egress links, a switch whose output port
// feeds the receiver's access link, and the reverse path carrying ACKs.
//
// The switch port is provisioned with a deep buffer and optional ECN
// marking; in the paper's experiments the fabric is deliberately not the
// bottleneck — all interesting queueing and every drop happens at the
// host — and the defaults here preserve that property while still
// modelling serialization and propagation delay faithfully (they set the
// RTT that bounds how fast congestion control can react).
package fabric

import (
	"fmt"

	"hic/internal/metrics"
	"hic/internal/pkt"
	"hic/internal/sim"
)

// Config describes the fabric.
type Config struct {
	// SenderLinkRate is each sender machine's egress rate.
	SenderLinkRate sim.BitsPerSecond
	// AccessLinkRate is the receiver's access link (paper: 100 Gbps).
	AccessLinkRate sim.BitsPerSecond
	// PropagationDelay is the one-way propagation + switching latency.
	PropagationDelay sim.Duration
	// SwitchBufferBytes is the receiver-facing output-port buffer.
	SwitchBufferBytes int
	// ECNThresholdBytes marks packets that arrive to a deeper queue
	// (DCTCP-style). Zero disables marking.
	ECNThresholdBytes int
}

// DefaultConfig returns a datacenter-like fabric: 100 Gbps links, ~5 µs
// one-way delay (≈20 µs base RTT with host turnaround), deep buffers.
func DefaultConfig() Config {
	return Config{
		SenderLinkRate:    sim.Gbps(100),
		AccessLinkRate:    sim.Gbps(100),
		PropagationDelay:  5 * sim.Microsecond,
		SwitchBufferBytes: 8 << 20,
	}
}

func (c Config) validate() error {
	if c.SenderLinkRate <= 0 || c.AccessLinkRate <= 0 {
		return fmt.Errorf("fabric: link rates must be positive")
	}
	if c.PropagationDelay < 0 {
		return fmt.Errorf("fabric: negative propagation delay")
	}
	if c.SwitchBufferBytes <= 0 {
		return fmt.Errorf("fabric: SwitchBufferBytes must be positive")
	}
	if c.ECNThresholdBytes < 0 {
		return fmt.Errorf("fabric: negative ECN threshold")
	}
	return nil
}

// Network connects senders to one receiver host.
type Network struct {
	engine *sim.Engine
	cfg    Config

	toReceiver func(*pkt.Packet)
	toSender   func(sender int, p *pkt.Packet)
	pool       *pkt.Pool // packet free list; switch drops release here

	senderBusy []sim.Time // per-sender egress serialization
	portBusy   sim.Time   // receiver-facing switch port
	portQueue  int        // bytes queued at the switch port

	// Event callbacks bound once at construction; each hop schedules
	// one with its packet as the argument, so forwarding allocates
	// nothing per packet.
	arriveFn func(any)
	departFn func(any)
	ackHops  []ackHop // per sender: the reverse-path delivery

	delivered   *metrics.Counter
	deliveredB  *metrics.Counter
	switchDrops *metrics.Counter
	ecnMarks    *metrics.Counter
	portGauge   *metrics.Gauge
	fabricDelay *metrics.Histogram // ns, sender egress → receiver NIC
}

// New constructs the fabric for the given number of senders. toReceiver
// delivers data packets into the receiver NIC; toSender delivers ACKs
// back to a sender's transport.
func New(engine *sim.Engine, reg *metrics.Registry, senders int, cfg Config,
	toReceiver func(*pkt.Packet), toSender func(sender int, p *pkt.Packet)) (*Network, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if senders <= 0 {
		return nil, fmt.Errorf("fabric: need at least one sender")
	}
	if toReceiver == nil || toSender == nil {
		return nil, fmt.Errorf("fabric: delivery callbacks are required")
	}
	n := &Network{
		engine:      engine,
		cfg:         cfg,
		toReceiver:  toReceiver,
		toSender:    toSender,
		senderBusy:  make([]sim.Time, senders),
		delivered:   reg.Counter("fabric.delivered.packets"),
		deliveredB:  reg.Counter("fabric.delivered.bytes"),
		switchDrops: reg.Counter("fabric.switch.drops"),
		ecnMarks:    reg.Counter("fabric.ecn.marks"),
		portGauge:   reg.Gauge("fabric.port.queue.bytes"),
		fabricDelay: reg.Histogram("fabric.delay.ns"),
		ackHops:     make([]ackHop, senders),
	}
	n.arriveFn = n.arriveAtPort
	n.departFn = n.depart
	for s := range n.ackHops {
		h := &n.ackHops[s]
		h.n, h.sender = n, s
		h.fn = h.deliver
	}
	return n, nil
}

// ackHop delivers acks at the end of one sender's reverse path.
type ackHop struct {
	n      *Network
	sender int
	fn     func(any)
}

func (h *ackHop) deliver(p any) { h.n.toSender(h.sender, p.(*pkt.Packet)) }

// Senders returns the number of attached senders.
func (n *Network) Senders() int { return len(n.senderBusy) }

// SetPool installs the run's packet free list. A switch tail drop is a
// point where a packet dies, so the fabric releases it there. Nil
// disables releasing (packets are then garbage for the GC).
func (n *Network) SetPool(pool *pkt.Pool) { n.pool = pool }

// SendToReceiver carries a data packet from sender onto the fabric:
// sender egress serialization, propagation, then the receiver-facing
// switch port (queueing, optional ECN, tail drop), the access link, and
// finally delivery into the receiver NIC.
func (n *Network) SendToReceiver(sender int, p *pkt.Packet) {
	if sender < 0 || sender >= len(n.senderBusy) {
		panic(fmt.Sprintf("fabric: sender %d out of range", sender))
	}
	p.SentAt = n.engine.Now()

	// Sender egress serialization.
	start := n.senderBusy[sender]
	if now := n.engine.Now(); start < now {
		start = now
	}
	egressDone := start.Add(n.cfg.SenderLinkRate.TransmitTime(p.WireBytes))
	n.senderBusy[sender] = egressDone

	n.engine.AtArg(egressDone.Add(n.cfg.PropagationDelay), n.arriveFn, p)
}

// arriveAtPort runs the receiver-facing switch output port.
func (n *Network) arriveAtPort(a any) {
	p := a.(*pkt.Packet)
	if n.portQueue+p.WireBytes > n.cfg.SwitchBufferBytes {
		n.switchDrops.Inc()
		n.pool.Release(p)
		return
	}
	if n.cfg.ECNThresholdBytes > 0 && n.portQueue >= n.cfg.ECNThresholdBytes {
		p.ECN = true
		n.ecnMarks.Inc()
	}
	n.portQueue += p.WireBytes
	n.portGauge.Set(int64(n.portQueue))

	start := n.portBusy
	if now := n.engine.Now(); start < now {
		start = now
	}
	finish := start.Add(n.cfg.AccessLinkRate.TransmitTime(p.WireBytes))
	n.portBusy = finish
	n.engine.AtArg(finish, n.departFn, p)
}

// depart hands a packet that has crossed the access link to the
// receiver NIC.
func (n *Network) depart(a any) {
	p := a.(*pkt.Packet)
	n.portQueue -= p.WireBytes
	n.portGauge.Set(int64(n.portQueue))
	n.delivered.Inc()
	n.deliveredB.Add(uint64(p.WireBytes))
	p.EchoFabric = n.engine.Now().Sub(p.SentAt)
	n.fabricDelay.Observe(float64(p.EchoFabric))
	n.toReceiver(p)
}

// SendToSender carries an ACK from the receiver back to a sender. The
// reverse path is uncongested (ACKs are tiny); it contributes propagation
// delay plus ack serialization on the access link's reverse direction.
func (n *Network) SendToSender(sender int, p *pkt.Packet) {
	if sender < 0 || sender >= len(n.senderBusy) {
		panic(fmt.Sprintf("fabric: sender %d out of range", sender))
	}
	delay := n.cfg.PropagationDelay + n.cfg.AccessLinkRate.TransmitTime(p.WireBytes)
	n.engine.AfterArg(delay, n.ackHops[sender].fn, p)
}

// PortQueueBytes returns the current switch output-port occupancy.
func (n *Network) PortQueueBytes() int { return n.portQueue }

// SwitchDrops returns drops at the switch port (should stay zero in the
// paper's host-bottlenecked scenarios).
func (n *Network) SwitchDrops() uint64 { return n.switchDrops.Value() }

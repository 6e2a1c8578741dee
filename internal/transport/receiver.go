package transport

import (
	"fmt"

	"hic/internal/metrics"
	"hic/internal/pkt"
	"hic/internal/sim"
)

// Receiver is the receiver-host transport endpoint: it consumes packets
// the CPU has finished processing, de-duplicates retransmissions, counts
// application goodput (completed 16 KB reads), and emits per-packet
// acknowledgements carrying the delay signals back to the senders.
type Receiver struct {
	engine  *sim.Engine
	cfg     Config
	sendAck func(*pkt.Packet)

	nextAckID uint64
	pool      *pkt.Pool // packet free list; acks are drawn here
	// seen de-duplicates (flow, seq) within a sliding window per flow.
	seen map[uint32]*seqWindow

	goodput    *metrics.Counter // distinct payload bytes delivered
	dupes      *metrics.Counter
	reads      *metrics.Counter // completed ReadSize units
	readsPer   map[uint32]uint64
	goodputPer map[uint32]uint64 // distinct payload bytes per flow
}

// seqWindow remembers recently seen sequence numbers of one flow: a
// ring of windowSpan bits indexed by seq mod windowSpan. The ring starts
// small and doubles to cover each new maximum until it reaches
// windowSpan. Until then no slot has wrapped, so every seen seq sits at
// the same bit in the small ring as in the full one and growth is a
// plain copy; a short-lived flow never pays for the full span.
type seqWindow struct {
	bits []uint64
	max  uint64
}

const windowSpan = 1 << 16 // sequence numbers tracked per flow

func newSeqWindow() *seqWindow {
	return &seqWindow{bits: make([]uint64, 1)}
}

// observe marks seq as seen; it reports whether seq was already present.
// Sequence numbers older than the window are treated as duplicates (they
// can only be ancient retransmissions).
func (w *seqWindow) observe(seq uint64) bool {
	if seq > w.max {
		w.grow(seq)
		// Clear the slots between max and seq (they leave the window).
		for s := w.max + 1; s <= seq && s-w.max <= windowSpan; s++ {
			w.bits[(s/64)%uint64(len(w.bits))] &^= 1 << (s % 64)
		}
		w.max = seq
	} else if w.max-seq >= windowSpan {
		return true
	}
	idx := (seq / 64) % uint64(len(w.bits))
	mask := uint64(1) << (seq % 64)
	dup := w.bits[idx]&mask != 0
	w.bits[idx] |= mask
	return dup
}

// grow widens a partial ring to cover seq, up to the full span.
func (w *seqWindow) grow(seq uint64) {
	n := uint64(len(w.bits))
	if n == windowSpan/64 || seq < 64*n {
		return
	}
	for n < windowSpan/64 && seq >= 64*n {
		n *= 2
	}
	grown := make([]uint64, n)
	copy(grown, w.bits)
	w.bits = grown
}

// NewReceiver constructs the receiver endpoint. sendAck transmits an ACK
// through the receiver host's NIC TX path.
func NewReceiver(engine *sim.Engine, reg *metrics.Registry, cfg Config, sendAck func(*pkt.Packet)) (*Receiver, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if sendAck == nil {
		return nil, fmt.Errorf("transport: sendAck is required")
	}
	return &Receiver{
		engine:     engine,
		cfg:        cfg,
		sendAck:    sendAck,
		seen:       make(map[uint32]*seqWindow),
		readsPer:   make(map[uint32]uint64),
		goodputPer: make(map[uint32]uint64),
		goodput:    reg.Counter("app.goodput.bytes"),
		dupes:      reg.Counter("app.duplicate.packets"),
		reads:      reg.Counter("app.reads.completed"),
	}, nil
}

// SetPool installs the run's packet free list: acks are drawn from it
// instead of the heap. The receiver does not release the delivered data
// packet itself — Deliver's caller still owns it and releases it after
// Deliver returns (the receiver only reads it).
func (r *Receiver) SetPool(pool *pkt.Pool) { r.pool = pool }

// Deliver consumes one fully processed packet. It is wired as the CPU
// pool's completion callback.
func (r *Receiver) Deliver(p *pkt.Packet) {
	if p.Kind != pkt.Data {
		panic(fmt.Sprintf("transport: receiver got non-data packet %v", p.Kind))
	}
	w := r.seen[p.Flow]
	if w == nil {
		w = newSeqWindow()
		r.seen[p.Flow] = w
	}
	if w.observe(p.Seq) {
		r.dupes.Inc()
	} else {
		r.goodput.Add(uint64(p.PayloadBytes))
		r.goodputPer[p.Flow] += uint64(p.PayloadBytes)
		// A read completes every ReadSize/MTU distinct packets.
		r.readsPer[p.Flow]++
		if per := uint64(r.cfg.ReadSize / r.cfg.MTU); r.readsPer[p.Flow]%per == 0 {
			r.reads.Inc()
		}
	}
	ack := r.pool.Ack(r.nextAckID, p)
	r.nextAckID++
	ack.EchoFabric = p.EchoFabric
	ack.EchoHostDelay = p.EchoHostDelay
	r.sendAck(ack)
}

// GoodputByFlow returns a copy of per-flow distinct payload bytes,
// cumulative since the start of the run. Fairness analyses snapshot it
// around the measurement window.
func (r *Receiver) GoodputByFlow() map[uint32]uint64 {
	out := make(map[uint32]uint64, len(r.goodputPer))
	for f, b := range r.goodputPer {
		out[f] = b
	}
	return out
}

// GoodputBytes returns distinct payload bytes delivered to applications.
func (r *Receiver) GoodputBytes() uint64 { return r.goodput.Value() }

// CompletedReads returns the number of completed ReadSize reads.
func (r *Receiver) CompletedReads() uint64 { return r.reads.Value() }

// DuplicatePackets returns de-duplicated retransmission deliveries.
func (r *Receiver) DuplicatePackets() uint64 { return r.dupes.Value() }

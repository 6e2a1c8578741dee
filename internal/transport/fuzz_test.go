package transport

import "testing"

// fullSeqWindow is the fixed-span window seqWindow must behave exactly
// like: a windowSpan-bit ring allocated up front.
type fullSeqWindow struct {
	bits []uint64
	max  uint64
}

func (w *fullSeqWindow) observe(seq uint64) bool {
	if seq > w.max {
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

// FuzzSeqWindow drives the duplicate-detection window with arbitrary
// sequence streams: it must never panic, must agree with an exact set
// within the window span, and must answer exactly like the fixed-span
// window it grows into.
func FuzzSeqWindow(f *testing.F) {
	f.Add([]byte{1, 2, 3, 1})
	f.Add([]byte{200, 255, 255, 255, 255, 3, 0, 130, 1})
	f.Fuzz(func(t *testing.T, raw []byte) {
		w := newSeqWindow()
		ref := &fullSeqWindow{bits: make([]uint64, windowSpan/64)}
		seen := map[uint64]bool{}
		seq := uint64(0)
		for i, b := range raw {
			switch {
			case b < 100:
				seq += uint64(b)
			case b < 128:
				// Step back: retransmissions and reordering.
				if back := uint64(b-100) << 4; back <= seq {
					seq -= back
				}
			default:
				// Occasional large jumps exercise slot recycling.
				seq += uint64(b) << 9
			}
			dup := w.observe(seq)
			if seen[seq] && !dup {
				t.Fatalf("seq %d seen before but reported fresh", seq)
			}
			if want := ref.observe(seq); dup != want {
				t.Fatalf("step %d: seq %d dup=%v, fixed-span window says %v", i, seq, dup, want)
			}
			seen[seq] = true
		}
	})
}

// FuzzInflightSet drives the seq-ordered inflight store with arbitrary
// send/ack streams and checks it against a map: same membership, same
// entries, always in ascending seq order.
func FuzzInflightSet(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 2, 0, 5, 1})
	f.Fuzz(func(t *testing.T, raw []byte) {
		var s inflightSet
		ref := map[uint64]int{} // seq → payload
		next := uint64(0)
		for _, b := range raw {
			if b < 96 {
				s.add(sentInfo{seq: next, payload: int(b)})
				ref[next] = int(b)
				next++
				continue
			}
			// Retire a sequence somewhere in the sent range.
			seq := uint64(b-96) % (next + 1)
			i := s.find(seq)
			if _, ok := ref[seq]; ok != (i >= 0) {
				t.Fatalf("find(%d) = %d, map has it: %v", seq, i, ok)
			}
			if i >= 0 {
				s.remove(i)
				delete(ref, seq)
			}
		}
		es := s.entries()
		if len(es) != len(ref) || s.len() != len(ref) {
			t.Fatalf("%d entries, map has %d", len(es), len(ref))
		}
		for i, e := range es {
			if i > 0 && es[i-1].seq >= e.seq {
				t.Fatalf("entries out of order at %d: %d then %d", i, es[i-1].seq, e.seq)
			}
			if p, ok := ref[e.seq]; !ok || p != e.payload {
				t.Fatalf("entry seq %d payload %d, map has %d (present %v)", e.seq, e.payload, p, ok)
			}
		}
	})
}

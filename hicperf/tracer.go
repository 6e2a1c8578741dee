package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"hic/internal/trace"
)

// span is one traced call at a layer boundary. Parent is the index of
// the span open on the same goroutine when this one began (-1 at the
// root); ID is shared by every span of one host or query.
type span struct {
	Name       string
	ID         int
	Parent     int
	Start, End int64 // Unix nanoseconds
	gid        uint64
}

// tracer keeps spans in memory until the run ends. The library passes
// no context through its call chains, so parents are linked by
// goroutine: each goroutine has a stack of open spans. A nil *tracer
// records nothing.
type tracer struct {
	mu    sync.Mutex
	spans []span
	open  map[uint64][]int
}

func newTracer() *tracer { return &tracer{open: map[uint64][]int{}} }

// goid parses the current goroutine's id from its stack header
// ("goroutine 17 [running]:"). It costs a microsecond or two, which the
// traced run's trace_overhead includes.
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}

// begin opens a span and returns its handle for end. A negative id
// takes the enclosing span's.
func (t *tracer) begin(name string, id int) int {
	if t == nil {
		return -1
	}
	g := goid()
	now := time.Now().UnixNano()
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if st := t.open[g]; len(st) > 0 {
		parent = st[len(st)-1]
		if id < 0 {
			id = t.spans[parent].ID
		}
	}
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: now, gid: g})
	i := len(t.spans) - 1
	t.open[g] = append(t.open[g], i)
	return i
}

// end closes the span begin returned.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &t.spans[i]
	sp.End = now
	st := t.open[sp.gid]
	for k := len(st) - 1; k >= 0; k-- {
		if st[k] == i {
			st = append(st[:k], st[k+1:]...)
			break
		}
	}
	if len(st) == 0 {
		delete(t.open, sp.gid)
	} else {
		t.open[sp.gid] = st
	}
}

// layerTime is the aggregate of every closed span with one name.
type layerTime struct {
	n           int
	total, self time.Duration
	durs        []time.Duration
}

// layers aggregates closed spans by name. A span's self time is its
// duration minus that of its direct children.
func (t *tracer) layers() map[string]*layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, sp := range t.spans {
		if sp.End != 0 && sp.Parent >= 0 {
			child[sp.Parent] += sp.End - sp.Start
		}
	}
	out := map[string]*layerTime{}
	for i, sp := range t.spans {
		if sp.End == 0 {
			continue
		}
		l := out[sp.Name]
		if l == nil {
			l = &layerTime{}
			out[sp.Name] = l
		}
		d := time.Duration(sp.End - sp.Start)
		l.n++
		l.total += d
		l.self += d - time.Duration(child[i])
		l.durs = append(l.durs, d)
	}
	return out
}

// rootBusy sums the durations of closed root spans other than skip:
// the time pool goroutines spent inside traced layer calls.
func (t *tracer) rootBusy(skip string) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var d time.Duration
	for _, sp := range t.spans {
		if sp.End != 0 && sp.Parent < 0 && sp.Name != skip {
			d += time.Duration(sp.End - sp.Start)
		}
	}
	return d
}

// write renders the spans, plus any extra spans the program itself
// produced, as a Chrome trace with one track per goroutine.
func (t *tracer) write(path, process string, extra []trace.WallSpan) error {
	t.mu.Lock()
	ws := make([]trace.WallSpan, 0, len(t.spans)+len(extra))
	for _, sp := range t.spans {
		if sp.End == 0 {
			continue
		}
		ws = append(ws, trace.WallSpan{
			Name:    sp.Name,
			Track:   fmt.Sprintf("goroutine %d", sp.gid),
			StartNs: sp.Start,
			EndNs:   sp.End,
			Args:    map[string]float64{"id": float64(sp.ID), "parent": float64(sp.Parent)},
		})
	}
	t.mu.Unlock()
	ws = append(ws, extra...)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := trace.WriteChromeWallSpans(&buf, process, ws); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// Chrome trace_event export. Event and WriteEvents are the repo's one
// trace_event encoder: telemetry's sim-time span exporter and the
// wall-clock span writer below both render through them, so every
// Perfetto-loadable file the tools write shares one record layout and
// one envelope.
//
// Wall-clock span export: a sharded query's lifecycle (queue wait,
// prefetch barrier, per-worker range leases, merge), a benchmark's
// instrumented phases, or a decoded packet capture is a set of
// WallSpans; WriteChromeWallSpans renders them as one process with one
// track per span track name.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Event is one trace_event record. Field order (and json.Marshal's
// sorted map keys for Args) keeps the output byte-stable.
type Event struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	Ts    float64        `json:"ts"` // microseconds since the trace origin
	Dur   float64        `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	ID    string         `json:"id,omitempty"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// WriteEvents emits the trace_event envelope, one event per line.
func WriteEvents(w io.Writer, events []Event) error {
	if _, err := io.WriteString(w, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	for i, ev := range events {
		if i > 0 {
			if _, err := io.WriteString(w, ",\n"); err != nil {
				return err
			}
		}
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n]}\n")
	return err
}

// WallSpan is one wall-clock slice on a named track. Times are Unix
// nanoseconds; the writer normalizes them so the earliest span starts
// at ts=0 (absolute wall epochs overflow the float64 microseconds the
// trace_event format carries).
type WallSpan struct {
	// Name is the slice label ("queue", "range 3 [120,180)", ...).
	Name string `json:"name"`
	// Track groups spans onto one Perfetto track ("coordinator",
	// "worker w1-a", ...); tracks render in first-appearance order.
	Track string `json:"track"`
	// StartNs and EndNs bound the slice in Unix nanoseconds.
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
	// Args annotate the slice (points merged, anchor runs, ...).
	Args map[string]float64 `json:"args,omitempty"`
}

// WriteChromeWallSpans renders wall-clock spans as Chrome trace_event
// JSON (the format chrome://tracing and Perfetto load): one process
// named process, one thread per distinct Track (tid assigned in
// first-appearance order, named via thread_name metadata), and each
// span a complete "X" slice. Timestamps are microseconds relative to
// the earliest span start, so traces are byte-stable across reruns of
// identical relative timing. Output is deterministic for a given span
// slice (json.Marshal sorts Args keys).
func WriteChromeWallSpans(w io.Writer, process string, spans []WallSpan) error {
	events := []Event{{
		Name: "process_name", Ph: "M", Pid: 1, Cat: "__metadata",
		Args: map[string]any{"name": process},
	}}

	tids := make(map[string]int)
	var origin int64
	for i, sp := range spans {
		if _, ok := tids[sp.Track]; !ok {
			tids[sp.Track] = len(tids) + 1
			events = append(events, Event{
				Name: "thread_name", Ph: "M", Pid: 1, Tid: tids[sp.Track], Cat: "__metadata",
				Args: map[string]any{"name": sp.Track},
			})
		}
		if i == 0 || sp.StartNs < origin {
			origin = sp.StartNs
		}
	}

	for _, sp := range spans {
		if sp.EndNs < sp.StartNs {
			return fmt.Errorf("trace: span %q on %q ends before it starts", sp.Name, sp.Track)
		}
		var args map[string]any
		if len(sp.Args) > 0 {
			args = make(map[string]any, len(sp.Args))
			for k, v := range sp.Args {
				args[k] = v
			}
		}
		events = append(events, Event{
			Name: sp.Name, Cat: "serve", Ph: "X",
			Ts:  float64(sp.StartNs-origin) / 1e3,
			Dur: float64(sp.EndNs-sp.StartNs) / 1e3,
			Pid: 1, Tid: tids[sp.Track], Args: args,
		})
	}
	return WriteEvents(w, events)
}

// SortWallSpans orders spans by start time, then track, then name —
// the canonical order the serve coordinator emits, stable so equal
// traces render (and hash) identically.
func SortWallSpans(spans []WallSpan) {
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].StartNs != spans[j].StartNs {
			return spans[i].StartNs < spans[j].StartNs
		}
		if spans[i].Track != spans[j].Track {
			return spans[i].Track < spans[j].Track
		}
		return spans[i].Name < spans[j].Name
	})
}

package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"hic/internal/pkt"
	"hic/internal/trace"
)

// TestFlightTrace renders two captured packets on different receive
// queues: one process, one named track per queue in first-appearance
// order, one complete slice per packet timed from the first send.
func TestFlightTrace(t *testing.T) {
	a := pkt.NewData(1, 7, 1, 1, 4096)
	a.SentAt, a.NICArrival = 2000, 7500
	b := pkt.NewData(2, 7, 0, 2, 4096)
	b.SentAt, b.NICArrival = 1000, 6000
	var buf bytes.Buffer
	if err := trace.WriteChromeWallSpans(&buf, "hic capture", []trace.WallSpan{flight(a), flight(b)}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	// 1 process metadata + 2 thread metadata + 2 slices.
	if len(doc.TraceEvents) != 5 {
		t.Fatalf("got %d events, want 5", len(doc.TraceEvents))
	}
	if got := doc.TraceEvents[1].Args["name"]; got != "rx-queue-1" {
		t.Errorf("first track = %v, want rx-queue-1 (first appearance)", got)
	}
	first, second := doc.TraceEvents[3], doc.TraceEvents[4]
	if first.Ph != "X" || first.Ts != 1 || first.Dur != 5.5 || first.Tid != 1 || first.Args["seq"] != 1.0 {
		t.Errorf("first slice = %+v, want X at 1µs for 5.5µs on tid 1", first)
	}
	if second.Ts != 0 || second.Dur != 5 || second.Tid != 2 {
		t.Errorf("second slice = %+v, want 0µs for 5µs on tid 2", second)
	}
}

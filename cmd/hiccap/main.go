// Command hiccap decodes a packet capture written by hicsim -capture
// (the wire format) and prints either a per-packet listing or a summary.
// It can also re-export the capture as a Chrome trace (one slice per
// packet's fabric flight, sender → NIC arrival, on one track per receive
// queue in first-appearance order, timed from the first packet's send)
// or as Prometheus metrics.
//
//	hicsim -capture run.cap ...
//	hiccap -summary run.cap
//	hiccap -trace-out run.json -metrics-out run.prom run.cap
//	hiccap run.cap | head
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"hic/internal/metrics"
	"hic/internal/pkt"
	"hic/internal/telemetry"
	"hic/internal/trace"
	"hic/internal/wire"
)

func main() {
	summary := flag.Bool("summary", false, "print per-flow summary instead of a listing")
	limit := flag.Int("n", 0, "stop after N packets (0 = all)")
	traceOut := flag.String("trace-out", "", "write a Chrome trace_event JSON of per-packet fabric flights to this file")
	metricsOut := flag.String("metrics-out", "", "write capture-derived metrics in Prometheus text format to this file")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: hiccap [-summary] [-n N] <capture-file>")
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "hiccap: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()

	r := wire.NewReader(bufio.NewReader(f))
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()

	type flowStats struct {
		packets int
		bytes   uint64
	}
	flows := map[uint32]*flowStats{}
	total := 0
	listing := !*summary && *traceOut == "" && *metricsOut == ""

	var flights []trace.WallSpan
	var reg *metrics.Registry
	var fabricDelay *metrics.Histogram
	if *metricsOut != "" {
		reg = metrics.NewRegistry()
		fabricDelay = reg.Histogram("capture.fabric.delay.ns")
	}

	for {
		p, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "hiccap: record %d: %v\n", total, err)
			os.Exit(1)
		}
		total++
		if *summary {
			fs := flows[p.Flow]
			if fs == nil {
				fs = &flowStats{}
				flows[p.Flow] = fs
			}
			fs.packets++
			fs.bytes += uint64(p.PayloadBytes)
		}
		if *traceOut != "" {
			flights = append(flights, flight(p))
		}
		if reg != nil {
			reg.Counter("capture.packets." + p.Kind.String()).Inc()
			reg.Counter("capture.bytes." + p.Kind.String()).Add(uint64(p.WireBytes))
			fabricDelay.Observe(float64(p.NICArrival - p.SentAt))
		}
		if listing {
			fmt.Fprintf(out, "%12d ns  %-7s flow=%#08x queue=%-3d seq=%-8d payload=%d\n",
				p.NICArrival, p.Kind, p.Flow, p.Queue, p.Seq, p.PayloadBytes)
		}
		if *limit > 0 && total >= *limit {
			break
		}
	}

	if *traceOut != "" {
		if err := writeFile(*traceOut, func(w io.Writer) error {
			return trace.WriteChromeWallSpans(w, "hic capture", flights)
		}); err != nil {
			fmt.Fprintf(os.Stderr, "hiccap: writing %s: %v\n", *traceOut, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d packets)\n", *traceOut, len(flights))
	}
	if reg != nil {
		if err := writeFile(*metricsOut, func(w io.Writer) error {
			return telemetry.WritePrometheus(w, reg.Snapshot())
		}); err != nil {
			fmt.Fprintf(os.Stderr, "hiccap: writing %s: %v\n", *metricsOut, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *metricsOut)
	}

	if *summary {
		ids := make([]uint32, 0, len(flows))
		for f := range flows {
			ids = append(ids, f)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		fmt.Fprintf(out, "%-12s %10s %14s\n", "flow", "packets", "payload_bytes")
		for _, id := range ids {
			fs := flows[id]
			fmt.Fprintf(out, "%#-12x %10d %14d\n", id, fs.packets, fs.bytes)
		}
		fmt.Fprintf(out, "\ntotal: %d packets, %d flows\n", total, len(flows))
	}
}

// flight renders one captured packet's fabric flight (sender to NIC
// arrival, simulated ns) as a slice on its receive queue's track.
func flight(p *pkt.Packet) trace.WallSpan {
	return trace.WallSpan{
		Name:    p.Kind.String(),
		Track:   fmt.Sprintf("rx-queue-%d", p.Queue),
		StartNs: int64(p.SentAt),
		EndNs:   int64(p.NICArrival),
		Args: map[string]float64{
			"flow":    float64(p.Flow),
			"seq":     float64(p.Seq),
			"payload": float64(p.PayloadBytes),
		},
	}
}

// writeFile creates path, renders into it, and returns the first error
// from rendering or closing, so a short write never reports success.
func writeFile(path string, render func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

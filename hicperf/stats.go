package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	return out
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// setLatency records the end-to-end request-time and throughput metrics of a
// timed loop that delivered hostsPerOp host results per request.
func setLatency(r *report, lat []time.Duration, wall time.Duration, hostsPerOp int) {
	l := ms(lat)
	r.values["request_ms_p50"] = median(l)
	r.values["request_ms_p90"] = quantile(l, 0.9)
	r.values["hosts_per_s"] = float64(len(lat)*hostsPerOp) / wall.Seconds()
}

// peakRSSMB is the process's peak resident set (VmHWM), falling back to
// the Go runtime's view of memory obtained from the OS where /proc is
// unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) >= 2 && fields[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// cpuClasses samples the runtime's cumulative CPU accounting so a phase
// can report the share of the CPU time it used that the garbage
// collector took. The runtime folds these in at GC boundaries, so
// phases should span many collections.
type cpuClasses struct{ gc, idle, total float64 }

func readCPUClasses() cpuClasses {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	v := make([]float64, len(s))
	for i := range s {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			v[i] = s[i].Value.Float64()
		}
	}
	return cpuClasses{gc: v[0], idle: v[1], total: v[2]}
}

// gcFrac is the GC share of CPU time between two samples.
func gcFrac(before, after cpuClasses) float64 {
	if d := (after.total - after.idle) - (before.total - before.idle); d > 0 {
		return (after.gc - before.gc) / d
	}
	return 0
}

// processCPU is the CPU time all of the process's threads have used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

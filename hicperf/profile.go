package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
)

// simLayers are the simulator packages a CPU sample's leaf frame is
// attributed to by name. Other samples go to "runtime", "stdlib" or
// "other".
var simLayers = map[string]bool{
	"sim": true, "host": true, "nic": true, "pcie": true, "iommu": true, "mem": true,
	"cpu": true, "transport": true, "metrics": true, "pkt": true, "fluid": true,
}

// profiled runs a traced phase under a runtime/pprof CPU profile, kept
// at <outDir>/<name>.pprof for go tool pprof, and reports each layer's
// share of the sampled CPU time (cpu.*) and the GC's share of the CPU
// time the phase used (runtime.gc_cpu_frac).
func profiled(r *report, o opts, name string, phase func()) error {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return fmt.Errorf("starting CPU profile: %w", err)
	}
	c0 := readCPUClasses()
	phase()
	c1 := readCPUClasses()
	pprof.StopCPUProfile()
	if err := os.WriteFile(filepath.Join(o.outDir, name+".pprof"), buf.Bytes(), 0o644); err != nil {
		return err
	}
	shares, err := leafShares(buf.Bytes())
	if err != nil {
		return err
	}
	for _, m := range perLayer {
		if l, ok := strings.CutPrefix(m.Name, "cpu."); ok {
			r.values[m.Name] = shares[l]
		}
	}
	r.values["runtime.gc_cpu_frac"] = gcFrac(c0, c1)
	return nil
}

// layerOf maps a symbol name ("hic/internal/nic.(*NIC).deliver",
// "runtime.mallocgc", "sort.Slice") to its layer.
func layerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "hic/internal/"); ok {
		if end := strings.IndexAny(rest, "/."); end >= 0 {
			rest = rest[:end]
		}
		if simLayers[rest] {
			return rest
		}
		return "other"
	}
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/") {
		return "runtime"
	}
	if strings.HasPrefix(fn, "hic/") || strings.HasPrefix(fn, "main.") {
		return "other"
	}
	// Standard-library import paths have no dot in their first element
	// ("sort.Slice", "encoding/json.Marshal"; not "example.com/x.F").
	// Type arguments may hold any path, so they are cut off first.
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	if slash := strings.IndexByte(fn, '/'); slash < 0 || !strings.Contains(fn[:slash], ".") {
		return "stdlib"
	}
	return "other"
}

// leafShares decodes a gzipped profile.proto and attributes each
// sample's last value (CPU nanoseconds) to the layer of its leaf frame:
// the innermost inlined function of the sample's first location.
func leafShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		leaf  uint64
		value int64
	}
	var (
		samples   []sample
		locFunc   = map[uint64]uint64{} // location id -> leaf function id
		funcName  = map[uint64]int64{}  // function id -> string index
		strs      []string
		decodeErr error
	)
	err = fields(raw, func(num int, wire int, v uint64, b []byte) {
		switch num {
		case 2: // Sample
			var s sample
			first := true
			decodeErr = errors.Join(decodeErr, fields(b, func(n, w int, v uint64, b []byte) {
				switch n {
				case 1:
					for _, id := range varints(w, v, b) {
						if first {
							s.leaf, first = id, false
						}
					}
				case 2:
					for _, x := range varints(w, v, b) {
						s.value = int64(x)
					}
				}
			}))
			samples = append(samples, s)
		case 4: // Location
			var id, fn uint64
			haveLine := false
			decodeErr = errors.Join(decodeErr, fields(b, func(n, w int, v uint64, b []byte) {
				switch {
				case n == 1:
					id = v
				case n == 4 && !haveLine:
					haveLine = true
					decodeErr = errors.Join(decodeErr, fields(b, func(n, w int, v uint64, _ []byte) {
						if n == 1 {
							fn = v
						}
					}))
				}
			}))
			locFunc[id] = fn
		case 5: // Function
			var id uint64
			var name int64
			decodeErr = errors.Join(decodeErr, fields(b, func(n, w int, v uint64, _ []byte) {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			}))
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
	})
	if err = errors.Join(err, decodeErr); err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	shares := map[string]float64{}
	var total float64
	for _, s := range samples {
		name := ""
		if idx := funcName[locFunc[s.leaf]]; idx >= 0 && int(idx) < len(strs) {
			name = strs[idx]
		}
		shares[layerOf(name)] += float64(s.value)
		total += float64(s.value)
	}
	if total > 0 {
		for k := range shares {
			shares[k] /= total
		}
	}
	return shares, nil
}

// fields walks one protobuf message, calling fn with each field's
// number, wire type, varint value (wire 0) or bytes (wire 2).
func fields(b []byte, fn func(num, wire int, v uint64, b []byte)) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			fn(num, wire, v, nil)
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			fn(num, wire, 0, b[n:n+int(l)])
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// varints returns a repeated varint field's values, packed or not.
func varints(wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return []uint64{v}
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		out = append(out, x)
		b = b[n:]
	}
	return out
}

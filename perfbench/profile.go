package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// cpuBuckets are the layers CPU-profile samples fold into. Simulator
// packages are charged with their own samples plus the generic runtime and
// library work they call directly (allocation, copying, sorting); GC,
// map operations and fmt are split out because they are optimisation
// targets of their own. astrasim is the facade, bench this benchmark's
// own code, runtime_other samples with no caller in the program.
var cpuBuckets = []string{
	"timeline", "network", "collective", "core", "topology", "etgen", "et",
	"cluster", "memory", "scenario", "astrasim", "runtime_gc", "runtime_map",
	"fmt", "bench", "other", "runtime_other",
}

var internalBuckets = map[string]bool{
	"timeline": true, "network": true, "collective": true, "core": true,
	"topology": true, "etgen": true, "et": true, "cluster": true,
	"memory": true, "scenario": true,
}

// foldProfile sums a pprof CPU profile's sample time by bucket and
// returns it as cpu.<bucket>_s seconds.
func foldProfile(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	ns := map[string]int64{}
	for _, s := range p.samples {
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range p.locLines[loc] {
				frames = append(frames, p.strings[p.funcName[fn]])
			}
		}
		ns[bucketOf(frames)] += s.value
	}
	out := map[string]float64{}
	for _, b := range cpuBuckets {
		out["cpu."+b+"_s"] = float64(ns[b]) / 1e9
	}
	return out, nil
}

// bucketOf classifies one sample by its stack, leaf first.
func bucketOf(frames []string) string {
	for _, f := range frames {
		if isGC(f) {
			return "runtime_gc"
		}
	}
	for _, f := range frames {
		pkg := f
		if i := strings.IndexByte(pkg, '['); i >= 0 {
			pkg = pkg[:i] // generic instantiation arguments
		}
		if i := strings.LastIndex(pkg, "/"); i >= 0 {
			if j := strings.Index(pkg[i:], "."); j >= 0 {
				pkg = pkg[:i+j]
			}
		} else if j := strings.Index(pkg, "."); j >= 0 {
			pkg = pkg[:j]
		}
		switch {
		case pkg == "internal/runtime/maps", strings.HasPrefix(f, "runtime.map"):
			return "runtime_map"
		case pkg == "fmt":
			return "fmt"
		case pkg == "repro":
			return "astrasim"
		case pkg == "main":
			return "bench"
		case strings.HasPrefix(pkg, "repro/internal/"):
			if name := strings.TrimPrefix(pkg, "repro/internal/"); internalBuckets[name] {
				return name
			}
			return "other"
		}
	}
	return "runtime_other"
}

func isGC(f string) bool {
	for _, p := range []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge",
		"runtime.markroot", "runtime.sweepone", "runtime.wbBuf", "runtime.scanobject"} {
		if strings.HasPrefix(f, p) {
			return true
		}
	}
	return false
}

// profile is the part of a pprof protobuf the fold needs.
type profile struct {
	samples  []sample
	locLines map[uint64][]uint64 // location -> function ids, innermost first
	funcName map[uint64]int64    // function -> string table index
	strings  []string
}

type sample struct {
	locs  []uint64 // leaf first
	value int64    // last sample value: CPU nanoseconds
}

// parseProfile decodes the uncompressed profile.proto message fields
// sample (2), location (4), function (5) and string_table (6).
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locLines: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := walkFields(b, func(field int, v uint64, msg []byte) error {
		switch field {
		case 2:
			var s sample
			var vals []uint64
			err := walkFields(msg, func(f int, v uint64, m []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, m)
				case 2:
					vals = appendVarints(vals, v, m)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.value = int64(vals[len(vals)-1])
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var fns []uint64
			err := walkFields(msg, func(f int, v uint64, m []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return walkFields(m, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locLines[id] = fns
		case 5:
			var id uint64
			var name int64
			err := walkFields(msg, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcName[id] = name
		case 6:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, n := range p.funcName {
		if n < 0 || int(n) >= len(p.strings) {
			return nil, fmt.Errorf("profile: function name index %d out of range", n)
		}
	}
	return p, nil
}

// appendVarints appends a repeated integer field, packed (msg) or not (v).
func appendVarints(dst []uint64, v uint64, msg []byte) []uint64 {
	if msg == nil {
		return append(dst, v)
	}
	for len(msg) > 0 {
		x, n := binary.Uvarint(msg)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		msg = msg[n:]
	}
	return dst
}

// walkFields calls fn for every field of a protobuf message: varints with
// their value, length-delimited fields with their bytes (never nil).
func walkFields(b []byte, fn func(field int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("profile: bad length")
			}
			msg := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, msg); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// mlecLayers are the mlec/internal packages a CPU profile's time is
// attributed to; cpuModules adds the buckets for everything else, in
// report order.
var (
	mlecLayers = []string{
		"burst", "placement", "poolsim", "sim", "syssim", "runctl",
		"gf256", "rs", "cluster", "mathx",
	}
	cpuModules = append(append([]string(nil), mlecLayers...), "runtime", "stdlib", "other")
)

// layerOf returns the mlec layer a fully qualified Go function belongs
// to, or "" for code outside the mlec/internal packages.
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, "mlec/internal/")
	if !ok {
		return ""
	}
	mod, _, _ := strings.Cut(rest, ".")
	mod, _, _ = strings.Cut(mod, "/") // mathx/rngsplit → mathx
	for _, m := range mlecLayers {
		if m == mod {
			return m
		}
	}
	return "other"
}

// moduleOf attributes a stack, innermost function first, to the
// innermost mlec layer on it, so a layer's share includes the map,
// allocation and library work it calls directly. Stacks with no mlec
// frame go to the Go runtime (GC workers, scheduler), the standard
// library, or "other" (the benchmark's own code).
func moduleOf(stack []string) string {
	for _, fn := range stack {
		if l := layerOf(fn); l != "" {
			return l
		}
	}
	for _, fn := range stack {
		switch {
		case strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "mlec."):
			return "other"
		case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
			strings.HasPrefix(fn, "internal/runtime/") || strings.HasPrefix(fn, "gcWriteBarrier"):
			continue
		default:
			return "stdlib"
		}
	}
	return "runtime"
}

// cpuShares decodes gzipped pprof CPU profiles and returns each
// module's share of their CPU time, each sample charged by moduleOf.
func cpuShares(profiles [][]byte) (map[string]float64, error) {
	shares := map[string]float64{}
	var total float64
	for _, gz := range profiles {
		ns, err := cpuByModule(gz)
		if err != nil {
			return nil, err
		}
		for _, mod := range sortedNames(ns) {
			shares[mod] += ns[mod]
			total += ns[mod]
		}
	}
	if total == 0 {
		return nil, errors.New("cpu profile has no samples")
	}
	for _, mod := range sortedNames(shares) {
		shares[mod] /= total
	}
	return shares, nil
}

// cpuByModule returns one profile's CPU nanoseconds per module.
func cpuByModule(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		strs      []string
		funcName  = map[uint64]int64{}    // function id → string index
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		sampleLoc [][]uint64
		sampleVal []int64
	)
	err = pbFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var locs []uint64
			var vals []int64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					if b == nil {
						locs = append(locs, v)
						return nil
					}
					ids, err := pbPacked(b)
					locs = append(locs, ids...)
					return err
				case 2:
					if b != nil {
						xs, err := pbPacked(b)
						if err != nil {
							return err
						}
						for _, x := range xs {
							vals = append(vals, int64(x))
						}
					} else {
						vals = append(vals, int64(v))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			// The last value of a Go CPU profile sample is CPU
			// nanoseconds (the first is the sample count).
			if len(vals) > 0 {
				sampleLoc = append(sampleLoc, locs)
				sampleVal = append(sampleVal, vals[len(vals)-1])
			}
		case 4: // Location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line: inlined functions first, their caller last
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
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
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	ns := map[string]float64{}
	var stack []string
	for i, locs := range sampleLoc {
		stack = stack[:0]
		for _, loc := range locs {
			for _, fn := range locFuncs[loc] {
				if idx, ok := funcName[fn]; ok && idx >= 0 && int(idx) < len(strs) {
					stack = append(stack, strs[idx])
				}
			}
		}
		ns[moduleOf(stack)] += float64(sampleVal[i])
	}
	return ns, nil
}

// pbFields walks the top-level fields of a protobuf message, passing
// varint values as v and length-delimited payloads as b.
func pbFields(buf []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errors.New("pprof: bad field key")
		}
		buf = buf[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(buf)
			if n <= 0 {
				return errors.New("pprof: bad varint")
			}
			buf = buf[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(buf) < 8 {
				return errors.New("pprof: short fixed64")
			}
			buf = buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errors.New("pprof: bad length")
			}
			b := buf[n : n+int(l)]
			buf = buf[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 5:
			if len(buf) < 4 {
				return errors.New("pprof: short fixed32")
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("pprof: wire type %d", wire)
		}
	}
	return nil
}

func pbPacked(b []byte) ([]uint64, error) {
	var out []uint64
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("pprof: bad packed varint")
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuModules are the modules CPU samples are charged to: the program's
// packages under hstoragedb/internal, the benchmark's own frames
// ("bench"), and everything else ("runtime": the scheduler, the garbage
// collector's own goroutines, idle stacks).
var cpuModules = []string{
	"catalog", "heap", "btree", "exec", "bufferpool", "lockmgr", "txn", "wal",
	"storagemgr", "policy", "pagestore", "lsm", "hybrid", "iosched", "device",
	"simclock", "shard", "tpch", "engine", "dss", "obs", "bench", "runtime",
}

const internalPrefix = "hstoragedb/internal/"

// moduleOf names the module a function belongs to, or "" when the frame
// is neither the program's nor the benchmark's.
func moduleOf(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexByte(rest, '['); i >= 0 {
		rest = rest[:i] // generic instantiation: keep the function path
	}
	pkgStart := strings.LastIndexByte(rest, '/') + 1
	pkg, _, _ := strings.Cut(rest[pkgStart:], ".")
	for _, m := range cpuModules {
		if m == pkg {
			return m
		}
	}
	return "engine" // none in use today; keeps the shares summing to 100%
}

// cpuByModule charges each sample of a CPU profile to the innermost
// program frame on its stack: the function doing the work, or the one
// whose allocation triggered the runtime code below it. Samples whose
// stack has no program frame go to the benchmark when its frames are
// there, else to "runtime" (garbage collection, scheduling).
func cpuByModule(profile []byte) (map[string]int64, error) {
	p, err := parseProfile(profile)
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, s := range p.samples {
		mod := "runtime"
		bench := false
	stack:
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				switch m := moduleOf(p.funcNames[fn]); m {
				case "":
				case "bench":
					bench = true
				default:
					mod = m
					break stack
				}
			}
		}
		if mod == "runtime" && bench {
			mod = "bench"
		}
		out[mod] += s.count
	}
	return out, nil
}

// profile is the part of a pprof profile the attribution needs.
type profile struct {
	samples   []sample
	locFuncs  map[uint64][]uint64 // location ID -> function IDs, innermost first
	funcNames map[uint64]string   // function ID -> name
}

type sample struct {
	locs  []uint64 // leaf first
	count int64
}

// parseProfile decodes the (optionally gzipped) protocol-buffer form of
// a pprof profile, reading only samples, locations, functions and the
// string table. The standard library ships the encoder but no decoder.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]string{}}
	var strs []string
	funcName := map[uint64]int64{}
	err := fields(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendUints(s.locs, v, b)
				case 2:
					if vals := appendUints(nil, v, b); len(vals) > 0 && s.count == 0 {
						s.count = int64(vals[0])
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("decoding profile: %w", err)
	}
	for id, si := range funcName {
		if si < 0 || int(si) >= len(strs) {
			return nil, errors.New("decoding profile: function name out of range")
		}
		p.funcNames[id] = strs[si]
	}
	return p, nil
}

// appendUints appends a repeated integer field that arrived either as
// one varint (v) or packed (b).
func appendUints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := varint(b)
		if n == 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// fields walks one protocol-buffer message, calling f with each field's
// number and either its integer value or (length-delimited fields) its
// bytes.
func fields(b []byte, f func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n == 0 {
			return errors.New("truncated key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			if v, n = varint(b); n == 0 {
				return errors.New("truncated varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("truncated fixed64")
			}
			b = b[8:]
		case 2:
			l, n := varint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errors.New("truncated bytes")
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("truncated fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := f(num, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// varint decodes one base-128 varint, returning 0 bytes read on error.
func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

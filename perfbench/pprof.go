package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// cpuModules are the program's modules the CPU profile is attributed to.
// Leaf frames in the runtime count as "gc" (collector and allocator) or
// "runtime" (the rest: maps, hashing, copying, scheduling); every other
// leaf frame counts as "other".
var cpuModules = []string{"engine", "cache", "noc", "mesh", "dram", "mem", "obs", "sim", "trace", "ir", "tracecache", "sweepq"}

// cpuShares reads CPU profiles (runtime/pprof's gzipped protobuf) and
// returns the share of all samples whose leaf frame lies in each module,
// keyed by module name, "gc", "runtime" and "other".
func cpuShares(paths []string) (map[string]float64, error) {
	counts := map[string]int64{}
	var total int64
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		leaves, err := profileLeaves(data)
		if err != nil {
			return nil, fmt.Errorf("CPU profile %s: %w", p, err)
		}
		for fn, n := range leaves {
			counts[moduleOf(fn)] += n
			total += n
		}
	}
	shares := map[string]float64{}
	for mod, n := range counts {
		shares[mod] = float64(n) / float64(total)
	}
	return shares, nil
}

// moduleOf maps a leaf function name to its module.
func moduleOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "offchip/internal/"); ok {
		mod, _, _ := strings.Cut(rest, ".")
		for _, m := range cpuModules {
			if m == mod {
				return m
			}
		}
		return "other"
	}
	if name, ok := strings.CutPrefix(fn, "runtime."); ok {
		if isGC(name) {
			return "gc"
		}
		return "runtime"
	}
	if strings.HasPrefix(fn, "internal/") {
		return "runtime" // the standard library's runtime support: maps, chacha8rand
	}
	return "other"
}

// gcMarkers are substrings of the runtime's collector and allocator
// function names.
var gcMarkers = []string{
	"gc", "malloc", "scanobject", "greyobject", "markBits", "heapBits", "mspan",
	"mheap", "mcache", "mcentral", "sweep", "findObject", "memclrNoHeapPointers",
	"wbBuf", "bulkBarrier", "typePointers", "scanblock", "scanstack", "markroot",
	"nextFree", "newobject", "makeslice", "growslice", "pageAlloc", "spanOf",
}

func isGC(name string) bool {
	for _, m := range gcMarkers {
		if strings.Contains(name, m) {
			return true
		}
	}
	return false
}

// profileLeaves decodes a profile and sums its sample counts by the
// function of each sample's leaf frame (the innermost inlined function of
// its first location).
func profileLeaves(data []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		leaf  uint64
		count int64
	}
	var (
		samples  []sample
		locFunc  = map[uint64]uint64{} // location ID → leaf function ID
		funcName = map[uint64]int64{}  // function ID → string index
		strs     []string
	)
	err = fields(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			first := true
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch {
				case num == 1 && first: // location_id; the first is the leaf
					if wire == 2 {
						id, n := binary.Uvarint(b)
						if n <= 0 {
							return errors.New("bad packed location")
						}
						v = id
					}
					s.leaf, first = v, false
				case num == 2 && s.count == 0: // value[0]: sample count
					if wire == 2 {
						c, n := binary.Uvarint(b)
						if n <= 0 {
							return errors.New("bad packed value")
						}
						v = c
					}
					s.count = int64(v)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id, fn uint64
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line; the first is the innermost inlined call
					if fn == 0 {
						return fields(b, func(num, wire int, v uint64, _ []byte) error {
							if num == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := fields(b, func(num, wire int, v uint64, _ []byte) error {
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
		return nil, err
	}
	out := map[string]int64{}
	for _, s := range samples {
		name := "?"
		if i, ok := funcName[locFunc[s.leaf]]; ok && int(i) < len(strs) {
			name = strs[i]
		}
		out[name] += s.count
	}
	return out, nil
}

// fields walks one protobuf message, calling f with each field's number,
// wire type, and its varint value or length-delimited bytes.
func fields(b []byte, f func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := f(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

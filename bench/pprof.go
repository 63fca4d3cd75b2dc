package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the pprof CPU profile runtime/pprof writes
// (gzip-compressed profile.proto). The standard library has no public
// parser, and the benchmark needs only one thing from a profile: for
// every sample, the names of the functions on its stack.

// stackSample is one profile sample: its call stack as function names,
// innermost first (inlined frames expanded), and how many times the
// profiler saw it.
type stackSample struct {
	funcs []string
	count int64
}

func profileStacks(profile []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}

	// profile.proto field numbers.
	const (
		profSample, profLocation, profFunction, profStringTable = 2, 4, 5, 6
	)
	type rawSample struct {
		locations []uint64
		count     int64
	}
	var (
		samples  []rawSample
		locFuncs = map[uint64][]uint64{} // location id → function ids, innermost first
		funcName = map[uint64]uint64{}   // function id → string-table index
		strs     []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case profSample:
			var s rawSample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1: // location_id, leaf first
					ids, err := uvarints(v, b)
					if err != nil {
						return err
					}
					s.locations = append(s.locations, ids...)
				case 2: // value; CPU profiles put the sample count first
					vals, err := uvarints(v, b)
					if err != nil {
						return err
					}
					if len(vals) > 0 && s.count == 0 {
						s.count = int64(vals[0])
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			samples = append(samples, s)
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line; entries run from the innermost inlined frame out
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
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
		case profFunction:
			var id, name uint64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case profStringTable:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		st := stackSample{count: s.count}
		for _, loc := range s.locations {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) && strs[idx] != "" {
					st.funcs = append(st.funcs, strs[idx])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

var errTruncated = errors.New("pprof: truncated message")

// eachField walks one protobuf message, calling fn with the field number
// and either its scalar value (varint and fixed fields) or its bytes
// (length-delimited fields; b is nil otherwise).
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wireType := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wireType {
		case 0:
			v, n = uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b = msg[n : n+int(l)] // non-nil even when empty
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", wireType)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// uvarints reads a repeated integer field, packed (b non-nil) or not.
func uvarints(v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * uint(i))
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// cpuLayers are the layers that get a <layer>.cpu_share metric; samples
// anywhere else are summed into other.cpu_share, so the shares of one
// profile always add up to 1.
var cpuLayers = []string{
	"des", "netem", "transport", "wire", "storage", "broker", "cluster",
	"coordinator", "producer", "consumer", "obs", "runtime",
}

// layerOf buckets a function name by the package it belongs to: a
// package under kafkarel/internal is its own layer (sub-packages fold
// into their parent), container/heap is the des event queue, and the Go
// runtime and its internal support packages are "runtime". Everything
// else — the rest of the standard library, the benchmark itself — is
// "other".
func layerOf(function string) string {
	const internal = "kafkarel/internal/"
	// Index, not HasPrefix: compiler-generated helpers carry the package
	// path inside their name (type:.eq.kafkarel/internal/broker.partitionKey).
	if i := strings.Index(function, internal); i >= 0 {
		rest := function[i+len(internal):]
		if j := strings.IndexAny(rest, "./"); j > 0 {
			return rest[:j]
		}
		return rest
	}
	switch {
	case strings.HasPrefix(function, "container/heap."):
		return "des"
	case strings.HasPrefix(function, "runtime.") || strings.HasPrefix(function, "runtime/") ||
		strings.HasPrefix(function, "internal/"):
		return "runtime"
	// Assembly stubs carry no package path (gcWriteBarrier, memmove, ...).
	case !strings.ContainsAny(function, "./"):
		return "runtime"
	}
	return "other"
}

// layerOfStack charges a sample to the innermost frame that has a layer:
// time in the runtime stays with the runtime, while a standard-library
// leaf (hash/crc32 under wire, math.Pow under the testbed's calibration)
// is charged to the layer that called it.
func layerOfStack(funcs []string) string {
	for _, fn := range funcs {
		if layer := layerOf(fn); layer != "other" {
			return layer
		}
	}
	return "other"
}

// cpuShares folds a profile's samples into a share per bucket. shares
// holds the cpuLayers plus "other" and sums to 1; detail breaks "other"
// down by package for the printed table.
func cpuShares(samples []stackSample) (shares map[string]float64, detail map[string]float64, total int64) {
	byLayer := make(map[string]int64)
	for _, s := range samples {
		byLayer[layerOfStack(s.funcs)] += s.count
		total += s.count
	}
	shares = make(map[string]float64, len(cpuLayers)+1)
	detail = make(map[string]float64)
	if total == 0 {
		return shares, detail, 0
	}
	named := make(map[string]bool, len(cpuLayers))
	for _, l := range cpuLayers {
		named[l] = true
		shares[l] = float64(byLayer[l]) / float64(total)
	}
	var other int64
	for layer, n := range byLayer {
		if !named[layer] {
			other += n
			detail[layer] = float64(n) / float64(total)
		}
	}
	shares["other"] = float64(other) / float64(total)
	return shares, detail, total
}

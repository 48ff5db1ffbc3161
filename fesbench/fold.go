package main

// Layer fold: decode a runtime/pprof profile (gzip'd profile.proto) with
// the standard library alone and charge every sample to the innermost
// fesplit frame on its stack. Runtime and standard-library frames
// (mallocgc, memclr, sort, …) have no layer of their own, so they count
// against their fesplit caller; a stack with no fesplit frame at all
// (GC mark/sweep, the scheduler, the benchmark's own bookkeeping) is
// charged to "runtime".

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// stackSample is one profile sample: its call stack as function names,
// innermost first, and the value being folded (CPU nanoseconds or
// allocated bytes).
type stackSample struct {
	stack []string
	value int64
}

// layerOf maps a fully qualified function name to its fesplit layer:
// "fesplit/internal/httpsim.(*Conn).Send" → "httpsim",
// "fesplit/internal/obs/runtime.(*Engine).X" → "obs",
// "fesplit.(*Study).Fig3" → "fesplit". Other names are not repo frames.
func layerOf(fn string) (string, bool) {
	if rest, ok := strings.CutPrefix(fn, "fesplit/internal/"); ok {
		end := strings.IndexAny(rest, "/.")
		if end <= 0 {
			return "", false
		}
		return rest[:end], true
	}
	if strings.HasPrefix(fn, "fesplit.") {
		return "fesplit", true
	}
	return "", false
}

// foldLayers sums sample values by the layer of each stack's innermost
// repo frame and returns each layer's share of the total (shares sum to
// 1 when the total is positive).
func foldLayers(samples []stackSample) map[string]float64 {
	sums := map[string]int64{}
	var total int64
	for _, s := range samples {
		layer := "runtime"
		for _, fn := range s.stack {
			if l, ok := layerOf(fn); ok {
				layer = l
				break
			}
		}
		sums[layer] += s.value
		total += s.value
	}
	shares := make(map[string]float64, len(sums))
	if total <= 0 {
		return shares
	}
	for l, v := range sums {
		shares[l] = float64(v) / float64(total)
	}
	return shares
}

// parseProfile decodes a (possibly gzip'd) profile.proto and returns its
// samples with the values of the sample type named valueType.
func parseProfile(data []byte, valueType string) ([]stackSample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	var (
		strs      []string
		types     []int64 // sample_type[i].type as a string index
		rawSample [][]byte
		locLines  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcName  = map[uint64]int64{}    // function id → name string index
	)
	err := eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var typ int64
			if err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					typ = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			types = append(types, typ)
		case 2: // sample
			rawSample = append(rawSample, b)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := eachField(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locLines[id] = fns
		case 5: // function
			var id uint64
			var name int64
			if err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
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
	idx := -1
	for i, t := range types {
		if t >= 0 && t < int64(len(strs)) && strs[t] == valueType {
			idx = i
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("profile: no sample type %q", valueType)
	}
	out := make([]stackSample, 0, len(rawSample))
	for _, raw := range rawSample {
		var locs []uint64
		var vals []int64
		if err := eachField(raw, func(n, wire int, v uint64, b []byte) error {
			switch n {
			case 1:
				return eachVarint(wire, v, b, func(x uint64) { locs = append(locs, x) })
			case 2:
				return eachVarint(wire, v, b, func(x uint64) { vals = append(vals, int64(x)) })
			}
			return nil
		}); err != nil {
			return nil, err
		}
		if idx >= len(vals) {
			return nil, errors.New("profile: sample has too few values")
		}
		var stack []string
		for _, l := range locs {
			for _, f := range locLines[l] {
				if s := funcName[f]; s >= 0 && s < int64(len(strs)) {
					stack = append(stack, strs[s])
				}
			}
		}
		out = append(out, stackSample{stack: stack, value: vals[idx]})
	}
	return out, nil
}

// eachField walks the protobuf wire encoding of one message, calling fn
// with each field's number and wire type and either its varint value or
// its length-delimited bytes. Fixed-width fields are skipped.
func eachField(b []byte, fn func(num, wire int, v uint64, body []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := fn(num, wire, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			body := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, wire, 0, body); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// eachVarint yields a repeated integer field's values, packed (wire 2)
// or not (wire 0).
func eachVarint(wire int, v uint64, b []byte, fn func(uint64)) error {
	if wire == 0 {
		fn(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		fn(x)
		b = b[n:]
	}
	return nil
}

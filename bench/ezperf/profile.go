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

// layerOf maps a Go function name, as a CPU profile records it, to the
// repository layer its package belongs to. ok is false for functions
// outside the repository (the runtime and the standard library).
func layerOf(fn string) (layer string, ok bool) {
	if strings.HasPrefix(fn, "main.") {
		return "bench", true // ezperf's own main package
	}
	if !strings.HasPrefix(fn, "ezflow.") && !strings.HasPrefix(fn, "ezflow/") {
		return "", false
	}
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiations may name other packages
	}
	pkg := fn
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case pkg == "ezflow":
		return "root", true
	case strings.HasPrefix(pkg, "ezflow/bench/"):
		return "bench", true
	}
	if l, ok := internalLayers[strings.TrimPrefix(pkg, "ezflow/internal/")]; ok {
		return l, true
	}
	return "other", true
}

// internalLayers maps each internal package to its layer; the packages
// not listed count as "other".
var internalLayers = map[string]string{
	"sim": "sim", "phy": "phy", "mac": "mac", "pkt": "pkt", "mesh": "mesh",
	"routing": "routing", "mobility": "mobility", "dynamics": "dynamics",
	"ctl": "ctl", "ezflow": "ctl", "baseline": "ctl",
	"traffic": "traffic", "transport": "traffic",
	"stats": "stats", "trace": "stats", "obs": "stats",
	"campaign": "campaign", "fabric": "fabric",
}

// cpuShares decodes a gzipped pprof CPU profile and attributes every
// sample to the innermost repository frame on its stack (inlined frames
// included). Samples whose stack holds no repository frame — the garbage
// collector's workers and other runtime bookkeeping — count as "gc".
// Samples labelled phase=calibrate are the benchmark's host-speed probe,
// not work it measures, and are left out. It returns the percentage of
// samples per layer and the number of samples attributed.
func cpuShares(profile []byte) (map[string]float64, int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if s.calibrating(p.strings) {
			continue
		}
		layer := "gc"
	stack:
		for _, loc := range s.locations {
			for _, fn := range p.locations[loc] {
				if l, ok := layerOf(p.strings[p.functions[fn]]); ok {
					layer = l
					break stack
				}
			}
		}
		counts[layer] += s.count
		total += s.count
	}
	shares := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		if total > 0 {
			shares[l] = 100 * float64(counts[l]) / float64(total)
		} else {
			shares[l] = 0
		}
	}
	return shares, int(total), nil
}

// profileData is the part of a pprof profile cpuShares needs.
type profileData struct {
	samples   []profileSample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]int64    // function id -> name (string table index)
	strings   []string
}

type profileSample struct {
	locations []uint64   // leaf first
	count     int64      // first sample value (samples/count)
	labels    [][2]int64 // string-table indices of each label's key and value
}

func (s profileSample) calibrating(strs []string) bool {
	for _, l := range s.labels {
		if strs[l[0]] == "phase" && strs[l[1]] == "calibrate" {
			return true
		}
	}
	return false
}

// decodeProfile parses the protocol-buffer encoding of a pprof Profile
// (github.com/google/pprof/proto/profile.proto), keeping samples,
// locations, functions and the string table.
func decodeProfile(b []byte) (*profileData, error) {
	p := &profileData{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(b, func(num int, v uint64, msg []byte) error {
		switch num {
		case 2: // sample
			var s profileSample
			first := true
			err := eachField(msg, func(num int, v uint64, packed []byte) error {
				switch num {
				case 1:
					return eachVarint(v, packed, func(x uint64) { s.locations = append(s.locations, x) })
				case 2:
					return eachVarint(v, packed, func(x uint64) {
						if first {
							s.count, first = int64(x), false
						}
					})
				case 3:
					var l [2]int64
					err := eachField(packed, func(num int, v uint64, _ []byte) error {
						if num == 1 || num == 2 {
							l[num-1] = int64(v)
						}
						return nil
					})
					s.labels = append(s.labels, l)
					return err
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(msg, func(num int, v uint64, line []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(line, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(msg, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	inTable := func(i int64) bool { return i >= 0 && i < int64(len(p.strings)) }
	for _, name := range p.functions {
		if !inTable(name) {
			return nil, errors.New("profile: function name outside the string table")
		}
	}
	for _, s := range p.samples {
		for _, l := range s.labels {
			if !inTable(l[0]) || !inTable(l[1]) {
				return nil, errors.New("profile: label outside the string table")
			}
		}
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated protocol buffer")

// eachField walks a protocol-buffer message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
// Fixed-width fields are skipped.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(b) < w {
				return errTruncated
			}
			b = b[w:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint yields a repeated varint field given either as one unpacked
// value (packed == nil) or as packed bytes.
func eachVarint(v uint64, packed []byte, fn func(uint64)) error {
	if packed == nil {
		fn(v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errTruncated
		}
		fn(x)
		packed = packed[n:]
	}
	return nil
}

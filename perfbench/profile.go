package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuProfile is the part of a pprof CPU profile the layer split needs:
// each sample's stack (leaf first) and CPU time. It is decoded from
// the profile.proto wire format directly, so the benchmark needs no
// dependency beyond the standard library.
type cpuProfile struct {
	nSamples int
	samples  []profSample
	locs     map[uint64][]uint64 // location ID -> function IDs, innermost first
	funcs    map[uint64]int64    // function ID -> name string index
	strs     []string
}

type profSample struct {
	locs []uint64
	ns   int64
}

// parseProfile decodes a gzipped pprof profile.
func parseProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &cpuProfile{locs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s profSample
			var vals []uint64
			err := eachField(b, func(f int, v uint64, bb []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, bb)
				case 2:
					vals = appendVarints(vals, v, bb)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.ns = int64(vals[len(vals)-1]) // [samples/count, cpu/nanoseconds]
			}
			p.samples = append(p.samples, s)
			p.nSamples++
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, bb []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(bb, func(lf int, lv uint64, _ []byte) error {
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
			p.locs[id] = fns
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
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
			p.funcs[id] = name
		case 6: // string table
			p.strs = append(p.strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// appendVarints appends one unpacked varint or a packed run of them.
func appendVarints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := varint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}

var errProto = errors.New("profile: malformed protobuf")

// eachField walks one protobuf message, passing varint fields as v
// and length-delimited fields as b (nil for varints).
func eachField(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := varint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := varint(msg)
			if n <= 0 {
				return errProto
			}
			msg = msg[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errProto
			}
			msg = msg[8:]
		case 2:
			l, n := varint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errProto
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errProto
			}
			msg = msg[4:]
		default:
			return errProto
		}
	}
	return nil
}

func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// groupShares splits CPU time into cpuGroups by the innermost frame
// that belongs to a layer: a repository package, net/http or the Go
// runtime. Other standard-library frames (math, sort, sync, syscall,
// encoding/json, ...) charge the layer that called them, so the NAND
// model's math.Erfc counts as nand and a store fsync as resultcache.
func (p *cpuProfile) groupShares() map[string]float64 {
	byGroup := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		total += s.ns
		byGroup[p.sampleGroup(s)] += s.ns
	}
	out := map[string]float64{}
	if total == 0 {
		return out
	}
	for g, ns := range byGroup {
		out[g] = float64(ns) / float64(total)
	}
	return out
}

func (p *cpuProfile) sampleGroup(s profSample) string {
	for _, loc := range s.locs {
		for _, fn := range p.locs[loc] {
			idx := p.funcs[fn]
			if idx < 0 || int(idx) >= len(p.strs) {
				continue
			}
			if g, ok := layerOf(packageOf(p.strs[idx])); ok {
				return g
			}
		}
	}
	return "other"
}

// packageOf extracts the import path from a symbol name such as
// "repro/internal/nand.(*Model).PageRBER".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// layerOf maps an import path to its cpuGroups entry; ok is false for
// standard-library helpers that charge their caller.
func layerOf(pkg string) (string, bool) {
	switch {
	case strings.HasPrefix(pkg, "repro/internal/"):
		name := strings.TrimPrefix(pkg, "repro/internal/")
		if i := strings.IndexByte(name, '/'); i >= 0 {
			name = name[:i]
		}
		for _, g := range cpuGroups {
			if g == name {
				return g, true
			}
		}
		return "other", true
	case pkg == "main" || strings.HasPrefix(pkg, "repro/perfbench"):
		return "perfbench", true
	case strings.HasPrefix(pkg, "repro/"):
		return "other", true
	case pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime", true
	case pkg == "net" || strings.HasPrefix(pkg, "net/http") || pkg == "net/textproto":
		return "net_http", true
	}
	return "", false
}

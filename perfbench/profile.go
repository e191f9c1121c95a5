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

// modules are the layers a CPU profile is folded into, in table order.
// Every sample lands in exactly one of them, "other" included, so the
// rows sum to the sampled total.
var modules = []string{
	"core", "sim", "phys", "insertion", "rostering", "ampdk", "ampdc",
	"netcache", "parsim", "runtime", "other",
}

// moduleOf maps a Go package path to its module. The repo's own
// packages are named after their directory under internal/; shardnet
// is the parsim engine's transport and counts as parsim. The Go
// runtime, including its internal packages (maps, hashing, GC), counts
// as runtime. Everything else — the remaining internal packages, the
// standard library and the benchmark itself — is "other".
func moduleOf(pkg string) string {
	if rest, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		name, _, _ := strings.Cut(rest, "/")
		if name == "shardnet" {
			return "parsim"
		}
		for _, m := range modules {
			if m == name {
				return m
			}
		}
		return "other"
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// packageOf extracts the package path from a Go symbol name such as
// "repro/internal/sim.(*Kernel).siftDown" or
// "internal/runtime/maps.(*Map).getWithKeySmall". Type arguments are
// cut first: their own paths may hold dots and slashes.
func packageOf(fn string) string {
	fn = strings.TrimPrefix(fn, "type:.eq.")
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// foldProfile decodes a gzipped pprof CPU profile and adds each
// sample's CPU nanoseconds to the module of its leaf function (the
// innermost frame, inlined frames included), so the result is self
// time per module.
func foldProfile(gz []byte, into map[string]int64) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	// CPU profiles carry [samples/count, cpu/nanoseconds] per sample.
	vi := -1
	for i, t := range p.sampleTypes {
		if t == "cpu" {
			vi = i
		}
	}
	if vi < 0 {
		return errors.New("cpu profile: no cpu sample type")
	}
	for _, s := range p.samples {
		if len(s.locs) == 0 || vi >= len(s.values) {
			continue
		}
		mod := "other"
		if fns := p.locFuncs[s.locs[0]]; len(fns) > 0 {
			mod = moduleOf(packageOf(p.strings[p.funcNames[fns[0]]]))
		}
		into[mod] += s.values[vi]
	}
	return nil
}

// profile holds the parts of a profile.proto message foldProfile uses.
type profile struct {
	sampleTypes []string
	samples     []sample
	locFuncs    map[uint64][]uint64 // location id → function ids, innermost first
	funcNames   map[uint64]int64    // function id → string-table index
	strings     []string
}

type sample struct {
	locs   []uint64
	values []int64
}

// decodeProfile reads the fields of profile.proto (github.com/google/
// pprof/proto/profile.proto) that foldProfile needs; everything else
// is skipped.
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	var typeIdx []int64
	err := eachField(b, func(num int, wt int, v uint64, msg []byte) error {
		switch {
		case num == 1 && wt == 2: // sample_type: ValueType{type=1}
			var idx int64
			if err := eachField(msg, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					idx = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			typeIdx = append(typeIdx, idx)
		case num == 2 && wt == 2: // sample: location_id=1, value=2
			var s sample
			if err := eachField(msg, func(n, wt int, v uint64, m []byte) error {
				switch n {
				case 1:
					return appendVarints(wt, v, m, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return appendVarints(wt, v, m, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			}); err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case num == 4 && wt == 2: // location: id=1, line=4{function_id=1}
			var id uint64
			var fns []uint64
			if err := eachField(msg, func(n, _ int, v uint64, m []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(m, func(n, _ int, v uint64, _ []byte) error {
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
			p.locFuncs[id] = fns
		case num == 5 && wt == 2: // function: id=1, name=2
			var id uint64
			var name int64
			if err := eachField(msg, func(n, _ int, v uint64, _ []byte) error {
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
			p.funcNames[id] = name
		case num == 6 && wt == 2: // string_table
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, i := range typeIdx {
		if i < 0 || i >= int64(len(p.strings)) {
			return nil, errors.New("sample type outside string table")
		}
		p.sampleTypes = append(p.sampleTypes, p.strings[i])
	}
	for _, n := range p.funcNames {
		if n < 0 || n >= int64(len(p.strings)) {
			return nil, errors.New("function name outside string table")
		}
	}
	return p, nil
}

// eachField walks the protobuf wire encoding of one message, calling fn
// with each field's number and wire type, and either its varint value
// or its length-delimited bytes. Fixed-width fields are skipped.
func eachField(b []byte, fn func(num, wt int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		switch wt {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := fn(num, wt, v, nil); err != nil {
				return err
			}
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
			msg := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, wt, 0, msg); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wt)
		}
	}
	return nil
}

// appendVarints handles a repeated varint field in either encoding:
// one value per field (wire type 0) or packed (wire type 2).
func appendVarints(wt int, v uint64, packed []byte, add func(uint64)) error {
	if wt == 0 {
		add(v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		add(x)
		packed = packed[n:]
	}
	return nil
}

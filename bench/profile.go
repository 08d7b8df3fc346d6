package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// A minimal reader for the gzipped profile.proto that runtime/pprof
// writes: just enough (samples, locations, lines, functions and the
// string table) to turn a CPU profile into stacks of function names,
// without a module dependency. The message layout follows
// github.com/google/pprof/proto/profile.proto.

// profSample is one sample: its first value (the sample count for a CPU
// profile) and its stack as function names, innermost first, with
// inlined frames expanded.
type profSample struct {
	value int64
	stack []string
}

// Field numbers of the messages read.
const (
	profileSample   = 2
	profileLocation = 4
	profileFunction = 5
	profileStrings  = 6

	sampleLocation = 1
	sampleValue    = 2

	locationID   = 1
	locationLine = 4

	lineFunction = 1

	functionID   = 1
	functionName = 2
)

// protoMsg walks one encoded message field by field.
type protoMsg struct{ b []byte }

var errTruncated = errors.New("profile: truncated message")

func (m *protoMsg) varint() (uint64, error) {
	var x uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(m.b) == 0 {
			return 0, errTruncated
		}
		c := m.b[0]
		m.b = m.b[1:]
		x |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return x, nil
		}
	}
	return 0, errors.New("profile: varint overflows 64 bits")
}

// next returns the next field's number and wire type, with its payload:
// the value for a varint, the bytes for a length-delimited field.
func (m *protoMsg) next() (field int, wire int, val uint64, data []byte, err error) {
	key, err := m.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	field, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		val, err = m.varint()
	case 1:
		if len(m.b) < 8 {
			return 0, 0, 0, nil, errTruncated
		}
		m.b = m.b[8:]
	case 2:
		var n uint64
		if n, err = m.varint(); err == nil {
			if n > uint64(len(m.b)) {
				return 0, 0, 0, nil, errTruncated
			}
			data, m.b = m.b[:n], m.b[n:]
		}
	case 5:
		if len(m.b) < 4 {
			return 0, 0, 0, nil, errTruncated
		}
		m.b = m.b[4:]
	default:
		err = fmt.Errorf("profile: unsupported wire type %d", wire)
	}
	return field, wire, val, data, err
}

// uints collects a repeated integer field, packed or not.
func uints(dst []uint64, wire int, val uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, val), nil
	}
	p := protoMsg{data}
	for len(p.b) > 0 {
		v, err := p.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// parseProfile decodes a gzipped profile.proto.
func parseProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct{ locs, vals []uint64 }
	var (
		samples   []rawSample
		strs      []string
		locFuncs  = map[uint64][]uint64{} // location → function ids, innermost first
		funcNames = map[uint64]uint64{}   // function → string index
	)
	m := protoMsg{raw}
	for len(m.b) > 0 {
		field, _, _, data, err := m.next()
		if err != nil {
			return nil, err
		}
		sub := protoMsg{data}
		switch field {
		case profileSample:
			var s rawSample
			for len(sub.b) > 0 {
				f, w, v, d, err := sub.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case sampleLocation:
					s.locs, err = uints(s.locs, w, v, d)
				case sampleValue:
					s.vals, err = uints(s.vals, w, v, d)
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case profileLocation:
			var id uint64
			var funcs []uint64
			for len(sub.b) > 0 {
				f, _, v, d, err := sub.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case locationID:
					id = v
				case locationLine:
					line := protoMsg{d}
					for len(line.b) > 0 {
						lf, _, lv, _, err := line.next()
						if err != nil {
							return nil, err
						}
						if lf == lineFunction {
							funcs = append(funcs, lv)
						}
					}
				}
			}
			locFuncs[id] = funcs
		case profileFunction:
			var id, name uint64
			for len(sub.b) > 0 {
				f, _, v, _, err := sub.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case functionID:
					id = v
				case functionName:
					name = v
				}
			}
			funcNames[id] = name
		case profileStrings:
			strs = append(strs, string(data))
		}
	}

	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		ps := profSample{}
		if len(s.vals) > 0 {
			ps.value = int64(s.vals[0])
		}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx := funcNames[fn]
				if idx >= uint64(len(strs)) {
					return nil, fmt.Errorf("profile: function %d names string %d of %d", fn, idx, len(strs))
				}
				ps.stack = append(ps.stack, strs[idx])
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

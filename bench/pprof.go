package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// A CPU profile from runtime/pprof is a gzip-compressed protocol buffer in
// the pprof profile.proto format. This file decodes the few fields the
// layer table needs and attributes each sample to one layer.

// cpuSample is one profile sample: its call stack, leaf first, with the
// calls inlined into a frame listed innermost first, and its CPU time.
type cpuSample struct {
	stack []string
	nanos int64
}

// profile.proto field numbers read here.
const (
	profileSampleType = 1 // Profile.sample_type: ValueType
	profileSample     = 2 // Profile.sample: Sample
	profileLocation   = 4 // Profile.location: Location
	profileFunction   = 5 // Profile.function: Function
	profileStrings    = 6 // Profile.string_table: string
	valueTypeType     = 1 // ValueType.type: string index
	sampleLocation    = 1 // Sample.location_id: repeated uint64
	sampleValue       = 2 // Sample.value: repeated int64
	locationID        = 1 // Location.id
	locationLine      = 4 // Location.line: Line, innermost inlined call first
	lineFunction      = 1 // Line.function_id
	functionID        = 1 // Function.id
	functionName      = 2 // Function.name: string index
)

var errBadProfile = errors.New("profile: malformed protocol buffer")

// parseProfile decodes a gzip-compressed CPU profile. Each sample's time is
// its "cpu" value (nanoseconds).
func parseProfile(data []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct{ locs, values []uint64 }
	var (
		strs     []string
		types    []uint64
		samples  []rawSample
		funcName = map[uint64]uint64{}   // function id → name string index
		locFuncs = map[uint64][]uint64{} // location id → function ids
	)
	err = fields(raw, func(num, wire int, v uint64, b []byte) error {
		switch num {
		case profileSampleType:
			return fields(b, func(num, wire int, v uint64, _ []byte) error {
				if num == valueTypeType {
					types = append(types, v)
				}
				return nil
			})
		case profileSample:
			var s rawSample
			err := fields(b, func(num, wire int, v uint64, b []byte) (err error) {
				switch num {
				case sampleLocation:
					s.locs, err = appendInts(s.locs, wire, v, b)
				case sampleValue:
					s.values, err = appendInts(s.values, wire, v, b)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case profileLocation:
			var id uint64
			var funcs []uint64
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case locationID:
					id = v
				case locationLine:
					return fields(b, func(num, wire int, v uint64, _ []byte) error {
						if num == lineFunction {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = funcs
			return err
		case profileFunction:
			var id, name uint64
			err := fields(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case profileStrings:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	valueIdx := len(types) - 1
	for i, t := range types {
		if t < uint64(len(strs)) && strs[t] == "cpu" {
			valueIdx = i
		}
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if valueIdx < 0 || valueIdx >= len(s.values) {
			return nil, errBadProfile
		}
		cs := cpuSample{nanos: int64(s.values[valueIdx])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				name, ok := funcName[fn]
				if !ok || name >= uint64(len(strs)) {
					return nil, errBadProfile
				}
				cs.stack = append(cs.stack, strs[name])
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// fields calls fn for each field of a protocol buffer message, in order:
// with the value of a varint or fixed-width field, or the bytes of a
// length-delimited one.
func fields(data []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errBadProfile
		}
		data = data[n:]
		var v uint64
		var b []byte
		wire := int(key & 7)
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errBadProfile
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errBadProfile
			}
			v, data = binary.LittleEndian.Uint64(data), data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || l > uint64(len(data)-n) {
				return errBadProfile
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errBadProfile
			}
			v, data = uint64(binary.LittleEndian.Uint32(data)), data[4:]
		default:
			return errBadProfile
		}
		if err := fn(int(key>>3), wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendInts appends the values of a repeated integer field: one value, or
// a packed run of varints.
func appendInts(dst []uint64, wire int, v uint64, b []byte) ([]uint64, error) {
	if wire != 2 {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errBadProfile
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst, nil
}

// sim is the symbol prefix of the simulator's packages.
const sim = "shmgpu/internal/"

// layers is the layer table: the symbol prefixes of the frames each layer
// claims. A sample belongs to the layer of the innermost frame of its stack
// that some layer claims. Frames no layer claims pass the sample on to
// their caller: runtime helpers, and the utility packages cache, flatmap,
// ringbuf, memdef and stats, whose time belongs to the layer using them.
//
// gpu.horizon also claims the components' horizon queries (the methods
// named in horizonMethods): they compute the event horizon rather than
// advance their component.
var layers = []struct {
	name     string
	prefixes []string
}{
	{"gpu.sm", []string{sim + "gpu.(*SM)."}},
	{"workload", []string{sim + "workload."}},
	{"gpu.xbar", []string{sim + "gpu.(*System).tickOnce", sim + "gpu.(*System).acceptRequest", sim + "gpu.(*System).respond"}},
	{"gpu.horizon", []string{sim + "gpu.(*System).advanceCycle", sim + "gpu.(*System).nextEventCycle"}},
	{"gpu.l2", []string{sim + "gpu.(*L2Bank)."}},
	{"secmem", []string{sim + "secmem.", sim + "detectors.", sim + "bmt.", sim + "metadata.", sim + "cryptoengine."}},
	{"dram", []string{sim + "dram."}},
	{"hostmem", []string{sim + "hostmem.", sim + "gpu.(*uvmState)."}},
	{"telemetry", []string{sim + "telemetry."}},
	{"experiments", []string{sim + "experiments.", sim + "pool."}},
	{"go.gc", []string{"runtime.mallocgc", "runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge", "runtime._GC"}},
}

// horizonMethods are the method names of the components' horizon queries.
var horizonMethods = []string{".nextEvent", ".NextEvent", ".NextDeadline"}

// otherLayer holds the samples no frame of which a layer claims.
const otherLayer = "other"

// layerNames lists the layers in table order, other last.
func layerNames() []string {
	names := make([]string, 0, len(layers)+1)
	for _, l := range layers {
		names = append(names, l.name)
	}
	return append(names, otherLayer)
}

// layerOf returns the layer a stack (leaf first) belongs to.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if strings.HasPrefix(fn, sim) && slices.ContainsFunc(horizonMethods, func(m string) bool { return strings.HasSuffix(fn, m) }) {
			return "gpu.horizon"
		}
		for _, l := range layers {
			for _, p := range l.prefixes {
				if strings.HasPrefix(fn, p) {
					return l.name
				}
			}
		}
	}
	return otherLayer
}

// layerNanos sums the samples' CPU time by layer.
func layerNanos(samples []cpuSample) map[string]int64 {
	by := map[string]int64{}
	for _, s := range samples {
		by[layerOf(s.stack)] += s.nanos
	}
	return by
}

package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"reflect"
	"testing"
)

func TestLayerOfInnermostClaimedFrame(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		// Utility packages and runtime helpers inherit their caller's layer.
		{[]string{
			"shmgpu/internal/ringbuf.(*Ring[go.shape.struct { shmgpu/internal/gpu.r shmgpu/internal/memdef.Request }]).Push",
			"shmgpu/internal/gpu.(*L2Bank).tick",
			"shmgpu/internal/gpu.(*System).tickOnce",
		}, "gpu.l2"},
		{[]string{
			"runtime.memmove",
			"shmgpu/internal/flatmap.(*Map[go.shape.int]).Get",
			"shmgpu/internal/cache.(*Cache).Fill",
			"shmgpu/internal/secmem.(*MEE).Tick",
			"shmgpu/internal/gpu.(*System).tickOnce",
		}, "secmem"},
		{[]string{"shmgpu/internal/detectors.(*ReadOnlyPredictor).Predict", "shmgpu/internal/secmem.(*MEE).process"}, "secmem"},
		// The innermost claimed frame wins over its callers.
		{[]string{"shmgpu/internal/gpu.(*System).acceptRequest-fm", "shmgpu/internal/gpu.(*SM).drainMisses", "shmgpu/internal/gpu.(*System).tickOnce"}, "gpu.xbar"},
		{[]string{"shmgpu/internal/workload.(*program).Next", "shmgpu/internal/gpu.(*SM).issueTick"}, "workload"},
		{[]string{"shmgpu/internal/gpu.(*uvmState).admit", "shmgpu/internal/gpu.(*System).acceptRequest"}, "hostmem"},
		{[]string{"shmgpu/internal/pool.(*Pool).drain", "shmgpu/internal/pool.(*Pool).worker"}, "experiments"},
		// Horizon queries belong to the horizon, whichever component answers.
		{[]string{"shmgpu/internal/gpu.(*SM).nextEvent", "shmgpu/internal/gpu.(*System).nextEventCycle"}, "gpu.horizon"},
		{[]string{"shmgpu/internal/detectors.(*MATFile).NextDeadline", "shmgpu/internal/secmem.(*MEE).NextEvent"}, "gpu.horizon"},
		// Allocation and collection are the GC layer's.
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", "shmgpu/internal/gpu.NewSystem"}, "go.gc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "go.gc"},
		{[]string{"main.runCell", "main.main"}, "other"},
		{nil, "other"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%q) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// pb builds protocol buffer messages for the decoder tests.
type pb []byte

func (b pb) int(num int, v uint64) pb {
	return binary.AppendUvarint(binary.AppendUvarint(b, uint64(num)<<3), v)
}

func (b pb) msg(num int, data []byte) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3|2)
	return append(binary.AppendUvarint(b, uint64(len(data))), data...)
}

func (b pb) packed(num int, vs ...uint64) pb {
	var data []byte
	for _, v := range vs {
		data = binary.AppendUvarint(data, v)
	}
	return b.msg(num, data)
}

func TestParseProfileExpandsInlinedFrames(t *testing.T) {
	const (
		findLine = "shmgpu/internal/cache.(*Cache).findLine"
		l2Tick   = "shmgpu/internal/gpu.(*L2Bank).tick"
		tickOnce = "shmgpu/internal/gpu.(*System).tickOnce"
	)
	var p pb
	for _, s := range []string{"", "samples", "count", "cpu", "nanoseconds", findLine, l2Tick, tickOnce} {
		p = p.msg(profileStrings, []byte(s))
	}
	p = p.msg(profileSampleType, pb{}.int(valueTypeType, 1).int(2, 2))
	p = p.msg(profileSampleType, pb{}.int(valueTypeType, 3).int(2, 4))
	for id := uint64(1); id <= 3; id++ {
		p = p.msg(profileFunction, pb{}.int(functionID, id).int(functionName, id+4))
	}
	// Location 1 is L2Bank.tick with findLine inlined into it, innermost
	// first, as the runtime writes it.
	p = p.msg(profileLocation, pb{}.int(locationID, 1).
		msg(locationLine, pb{}.int(lineFunction, 1)).
		msg(locationLine, pb{}.int(lineFunction, 2)))
	p = p.msg(profileLocation, pb{}.int(locationID, 2).msg(locationLine, pb{}.int(lineFunction, 3)))
	// One sample with packed repeated fields, one with unpacked ones.
	p = p.msg(profileSample, pb{}.packed(sampleLocation, 1, 2).packed(sampleValue, 1, 10_000_000))
	p = p.msg(profileSample, pb{}.int(sampleLocation, 2).int(sampleValue, 2).int(sampleValue, 20_000_000))

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p)
	zw.Close()
	got, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := []cpuSample{
		{stack: []string{findLine, l2Tick, tickOnce}, nanos: 10_000_000},
		{stack: []string{tickOnce}, nanos: 20_000_000},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parseProfile = %+v, want %+v", got, want)
	}
	by := layerNanos(got)
	if by["gpu.l2"] != 10_000_000 || by["gpu.xbar"] != 20_000_000 {
		t.Errorf("layerNanos = %v, want gpu.l2 10ms and gpu.xbar 20ms", by)
	}

	if _, err := parseProfile(gz.Bytes()[:gz.Len()/2]); err == nil {
		t.Error("a truncated profile decoded without error")
	}
}

package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"shmgpu/internal/detectors"
	"shmgpu/internal/memdef"
)

func sampleEvents() []Event {
	var evs []Event
	// Partition 0: a clean stream over two chunks; partition 1: random.
	cycle := uint64(0)
	for c := 0; c < 2; c++ {
		for b := 0; b < memdef.BlocksPerChunk; b++ {
			evs = append(evs, Event{
				Cycle: cycle, Local: memdef.Addr(c*memdef.ChunkSize + b*memdef.BlockSize),
				Partition: 0, Space: memdef.SpaceGlobal,
			})
			cycle += 10
		}
	}
	// Partition 1: random accesses spread over several chunks (uniform
	// random workloads touch many chunks, which is how arm-ahead tracking
	// reaches them).
	for i := 0; i < 256; i++ {
		chunk := (i * 7) % 6
		blk := (i * 13) % memdef.BlocksPerChunk
		evs = append(evs, Event{
			Cycle: uint64(i * 50), Local: memdef.Addr(chunk*memdef.ChunkSize + blk*memdef.BlockSize),
			Partition: 1, Write: i%4 == 0, Space: memdef.SpaceGlobal,
		})
	}
	return evs
}

func TestRoundTripSerialization(t *testing.T) {
	r := NewRecorder()
	for _, e := range sampleEvents() {
		req := memdef.Request{Local: e.Local, Space: e.Space}
		if e.Write {
			req.Kind = memdef.Write
		}
		r.Observer(int(e.Partition))(e.Cycle, req)
	}
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleEvents()
	if len(back) != len(want) {
		t.Fatalf("events = %d, want %d", len(back), len(want))
	}
	for i := range back {
		if back[i] != want[i] {
			t.Fatalf("event %d: %+v != %+v", i, back[i], want[i])
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not a trace file at all"))); !errors.Is(err, ErrFormat) {
		t.Fatalf("garbage accepted: %v", err)
	}
	// Truncated records.
	r := NewRecorder()
	r.Observer(0)(1, memdef.Request{})
	var buf bytes.Buffer
	r.WriteTo(&buf)
	trunc := buf.Bytes()[:buf.Len()-5]
	if _, err := Read(bytes.NewReader(trunc)); !errors.Is(err, ErrFormat) {
		t.Fatalf("truncated trace accepted: %v", err)
	}
	// Wrong version.
	full := buf.Bytes()
	full[8] = 99
	if _, err := Read(bytes.NewReader(full)); !errors.Is(err, ErrFormat) {
		t.Fatalf("wrong version accepted: %v", err)
	}
	// A bare header claiming 2^32-1 records: sizing the event slice from
	// the untrusted count ran the process out of memory.
	if _, err := Read(bytes.NewReader(header(0xFFFFFFFF))); !errors.Is(err, ErrFormat) {
		t.Fatalf("header-only trace claiming 2^32-1 records accepted: %v", err)
	}
}

// header returns a valid trace header announcing count records.
func header(count uint32) []byte {
	hdr := make([]byte, 16)
	copy(hdr, Magic[:])
	binary.LittleEndian.PutUint32(hdr[8:12], Version)
	binary.LittleEndian.PutUint32(hdr[12:16], count)
	return hdr
}

// encode serializes events the way a recording is written.
func encode(tb testing.TB, evs []Event) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if _, err := (&Recorder{events: evs}).WriteTo(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzTraceDecode feeds arbitrary bytes to Read. It must return events or
// an ErrFormat error, never panic or exhaust memory, and whatever it
// decodes must survive a WriteTo/Read round trip unchanged; what WriteTo
// writes must re-encode to the same bytes.
func FuzzTraceDecode(f *testing.F) {
	valid := encode(f, sampleEvents())
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	f.Add(header(0))
	f.Add(header(0xFFFFFFFF))
	f.Add([]byte("not a trace file at all"))
	f.Fuzz(func(t *testing.T, data []byte) {
		evs, err := Read(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrFormat) {
				t.Fatalf("Read error %v does not wrap ErrFormat", err)
			}
			return
		}
		enc := encode(t, evs)
		back, err := Read(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-reading a written trace: %v", err)
		}
		if !slices.Equal(back, evs) {
			t.Fatalf("round trip changed the events: %d read, %d after WriteTo/Read", len(evs), len(back))
		}
		if !bytes.Equal(encode(t, back), enc) {
			t.Fatal("a written trace does not re-encode to its own bytes")
		}
	})
}

func TestReplayDetectsPatterns(t *testing.T) {
	cfg := detectors.DefaultStreamingConfig()
	cfg.MonitorLead = 1
	res := Replay(sampleEvents(), cfg, 2)
	if res.Events != len(sampleEvents()) {
		t.Fatalf("events = %d", res.Events)
	}
	if res.DetectedStream == 0 {
		t.Error("stream chunk not detected")
	}
	if res.DetectedRandom == 0 {
		t.Error("random chunk not detected")
	}
	if res.Accuracy.Total() == 0 {
		t.Error("no accuracy accounting")
	}
}

func TestReplayIgnoresOutOfRangePartitions(t *testing.T) {
	evs := []Event{{Cycle: 1, Partition: 9}}
	res := Replay(evs, detectors.DefaultStreamingConfig(), 2)
	if res.Events != 0 {
		t.Fatal("out-of-range partition replayed")
	}
}

func TestReplayParameterSweepChangesOutcome(t *testing.T) {
	// With 0 effective trackers... minimum is 1; instead contrast timeout
	// extremes: a tiny timeout cannot complete the random windows, a huge
	// one does not change stream detection.
	evs := sampleEvents()
	small := detectors.DefaultStreamingConfig()
	small.MonitorLead = 1
	small.TimeoutCycles = 10
	large := detectors.DefaultStreamingConfig()
	large.MonitorLead = 1
	large.TimeoutCycles = 100000
	a := Replay(evs, small, 2)
	b := Replay(evs, large, 2)
	if a.Timeouts <= b.Timeouts {
		t.Fatalf("timeout sweep had no effect: %d vs %d", a.Timeouts, b.Timeouts)
	}
}

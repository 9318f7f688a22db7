// Package trace records and replays the off-chip access streams the memory
// encryption engines observe (every L2 miss and write-back, per partition).
// A recorded trace supports offline detector studies: replaying one trace
// through differently-configured predictors and trackers answers
// design-space questions (tracker count, timeout, chunk size) in
// milliseconds instead of re-running the full timing simulation.
//
// The on-disk format is a compact binary stream: a 16-byte header
// ("SHMTRACE", version, record count) followed by fixed 24-byte records.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"shmgpu/internal/detectors"
	"shmgpu/internal/memdef"
	"shmgpu/internal/stats"
)

// Magic identifies a trace stream.
var Magic = [8]byte{'S', 'H', 'M', 'T', 'R', 'A', 'C', 'E'}

// Version is the current format version.
const Version uint32 = 1

// ErrFormat reports a malformed trace stream.
var ErrFormat = errors.New("trace: malformed stream")

// Event is one off-chip access observed by a partition's MEE.
type Event struct {
	// Cycle is the core-clock timestamp.
	Cycle uint64
	// Local is the partition-local sector address.
	Local memdef.Addr
	// Partition is the observing memory partition.
	Partition uint8
	// Write marks a write-back (vs an L2 miss read).
	Write bool
	// Space is the GPU memory space of the access.
	Space memdef.Space
}

const recordBytes = 24

func (e Event) encode(buf []byte) {
	binary.LittleEndian.PutUint64(buf[0:8], e.Cycle)
	binary.LittleEndian.PutUint64(buf[8:16], uint64(e.Local))
	buf[16] = e.Partition
	if e.Write {
		buf[17] = 1
	} else {
		buf[17] = 0
	}
	buf[18] = uint8(e.Space)
	for i := 19; i < recordBytes; i++ {
		buf[i] = 0
	}
}

func decodeEvent(buf []byte) Event {
	return Event{
		Cycle:     binary.LittleEndian.Uint64(buf[0:8]),
		Local:     memdef.Addr(binary.LittleEndian.Uint64(buf[8:16])),
		Partition: buf[16],
		Write:     buf[17] == 1,
		Space:     memdef.Space(buf[18]),
	}
}

// Recorder accumulates events in memory. It implements the observer shape
// the MEE's SetTrace hook expects via Observer(partition).
type Recorder struct {
	events []Event
}

// NewRecorder creates an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Observer returns the per-partition callback to install with
// (*secmem.MEE).SetTrace.
func (r *Recorder) Observer(partition int) func(now uint64, req memdef.Request) {
	p := uint8(partition)
	return func(now uint64, req memdef.Request) {
		r.events = append(r.events, Event{
			Cycle:     now,
			Local:     req.Local,
			Partition: p,
			Write:     req.Kind == memdef.Write,
			Space:     req.Space,
		})
	}
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int { return len(r.events) }

// Events returns the recorded events (aliased, not copied).
func (r *Recorder) Events() []Event { return r.events }

// WriteTo serializes the trace. It implements io.WriterTo.
func (r *Recorder) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	hdr := make([]byte, 16)
	copy(hdr, Magic[:])
	binary.LittleEndian.PutUint32(hdr[8:12], Version)
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(len(r.events)))
	k, err := bw.Write(hdr)
	n += int64(k)
	if err != nil {
		return n, err
	}
	buf := make([]byte, recordBytes)
	for _, e := range r.events {
		e.encode(buf)
		k, err = bw.Write(buf)
		n += int64(k)
		if err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// Read parses a serialized trace. The header's record count is not
// trusted for allocation: events grow only as records are actually read,
// so a short stream claiming billions of records fails with ErrFormat
// instead of exhausting memory.
func Read(r io.Reader) ([]Event, error) {
	br := bufio.NewReader(r)
	hdr := make([]byte, 16)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	var magic [8]byte
	copy(magic[:], hdr[:8])
	if magic != Magic {
		return nil, fmt.Errorf("%w: bad magic", ErrFormat)
	}
	if v := binary.LittleEndian.Uint32(hdr[8:12]); v != Version {
		return nil, fmt.Errorf("%w: version %d (want %d)", ErrFormat, v, Version)
	}
	count := binary.LittleEndian.Uint32(hdr[12:16])
	var events []Event
	buf := make([]byte, recordBytes)
	for i := uint32(0); i < count; i++ {
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, fmt.Errorf("%w: truncated at record %d: %v", ErrFormat, i, err)
		}
		events = append(events, decodeEvent(buf))
	}
	return events, nil
}

// ReplayResult summarizes one offline detector replay.
type ReplayResult struct {
	// Events is the number of accesses replayed.
	Events int
	// DetectedStream and DetectedRandom count completed monitoring
	// phases by verdict (empty phases excluded).
	DetectedStream, DetectedRandom int
	// Timeouts counts phases ended by timeout.
	Timeouts int
	// Accuracy is the streaming-prediction breakdown against the oracle
	// windows, as in Fig. 11.
	Accuracy stats.PredictorStats
}

// Replay runs a trace through per-partition streaming detectors with the
// given configuration and scores the resulting predictions, enabling
// offline parameter sweeps over a single recorded run.
func Replay(events []Event, cfg detectors.StreamingConfig, partitions int) ReplayResult {
	var res ReplayResult
	preds := make([]*detectors.StreamingPredictor, partitions)
	mats := make([]*detectors.MATFile, partitions)
	accs := make([]*detectors.StreamingAccuracy, partitions)
	for p := 0; p < partitions; p++ {
		preds[p] = detectors.NewStreamingPredictor(cfg)
		mats[p] = detectors.NewMATFile(cfg)
		accs[p] = detectors.NewStreamingAccuracy(preds[p], nil)
	}
	lastTick := make([]uint64, partitions)
	apply := func(p int, d detectors.Detection) {
		if d.Accesses == 0 {
			return
		}
		if d.TimedOut {
			res.Timeouts++
		}
		if d.Streaming {
			res.DetectedStream++
		} else {
			res.DetectedRandom++
		}
		preds[p].Train(d.Chunk, d.Streaming)
	}
	for _, e := range events {
		p := int(e.Partition)
		if p >= partitions {
			continue
		}
		res.Events++
		if e.Cycle/64 != lastTick[p] {
			lastTick[p] = e.Cycle / 64
			for _, d := range mats[p].Tick(e.Cycle) {
				apply(p, d)
			}
		}
		accs[p].Observe(e.Local, e.Write)
		if d, done := mats[p].Observe(e.Local, e.Write, e.Cycle); done {
			apply(p, d)
		}
	}
	for p := 0; p < partitions; p++ {
		for _, d := range mats[p].Flush() {
			apply(p, d)
		}
		ps := accs[p].Finalize()
		res.Accuracy.Merge(&ps)
	}
	return res
}

package detectors

import (
	"fmt"

	"shmgpu/internal/memdef"
	"shmgpu/internal/telemetry"
)

// StreamingConfig configures one partition's streaming detector.
type StreamingConfig struct {
	// Entries is the prediction bit-vector length (paper: 2048).
	Entries int
	// ChunkBytes is the detection granularity (paper: 4 KB).
	ChunkBytes uint64
	// Trackers is the number of memory access trackers (paper: 8).
	Trackers int
	// WindowAccesses is K, the monitoring-phase length (paper: 32).
	WindowAccesses int
	// TimeoutCycles ends a monitoring phase early (paper: 6000).
	TimeoutCycles uint64
	// MonitorLead is how many chunks ahead of an observed access a new
	// monitoring phase is armed. Several chunks burst concurrently under
	// warp interleaving, so the monitor must be armed ahead of the whole
	// active frontier to observe a chunk's burst from its start.
	MonitorLead uint64
}

// DefaultStreamingConfig is the paper's configuration.
func DefaultStreamingConfig() StreamingConfig {
	return StreamingConfig{
		Entries:        2048,
		ChunkBytes:     memdef.ChunkSize,
		Trackers:       8,
		WindowAccesses: 32,
		TimeoutCycles:  6000,
		MonitorLead:    4,
	}
}

// maxTrackers bounds the MAT file NewMATFile allocates: 32× the paper's 8.
// maxTimeoutCycles (174× the paper's 6000) and maxMonitorLead (256× the
// default 4) bound the two MAT timings.
const (
	maxTrackers      = 256
	maxTimeoutCycles = 1 << 20
	maxMonitorLead   = 1 << 10
)

// Validate reports a configuration NewStreamingPredictor or NewMATFile
// cannot build.
func (c StreamingConfig) Validate() error {
	if c.Entries <= 0 || c.Entries > maxEntries || c.ChunkBytes == 0 {
		return fmt.Errorf("detectors: bad streaming config %+v: Entries must be in [1, %d] and ChunkBytes positive", c, maxEntries)
	}
	if c.Trackers <= 0 || c.Trackers > maxTrackers || c.WindowAccesses <= 0 || c.WindowAccesses > 64 {
		return fmt.Errorf("detectors: bad MAT config %+v: Trackers must be in [1, %d] and WindowAccesses in [1, 64]", c, maxTrackers)
	}
	if c.TimeoutCycles > maxTimeoutCycles || c.MonitorLead > maxMonitorLead {
		return fmt.Errorf("detectors: bad MAT config %+v: TimeoutCycles must be at most %d and MonitorLead at most %d",
			c, maxTimeoutCycles, maxMonitorLead)
	}
	return nil
}

// StreamingPredictor is the per-partition streaming-chunk bit vector,
// indexed by chunk ID over local addresses. Bit set means "predicted
// streaming" (use the per-chunk MAC). GPU workloads stream by default, so
// the vector is eagerly initialized to all ones.
type StreamingPredictor struct {
	cfg  StreamingConfig
	bits bitVector
	// owner, present only while a StreamingAccuracy wraps the predictor,
	// holds 1 + the chunk that last trained each entry (0: untrained), for
	// the Fig. 11 misprediction attribution.
	owner []uint64
}

// NewStreamingPredictor builds a predictor with all entries set to
// streaming.
func NewStreamingPredictor(cfg StreamingConfig) *StreamingPredictor {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	p := &StreamingPredictor{cfg: cfg, bits: newBitVector(cfg.Entries)}
	for i := 0; i < cfg.Entries; i++ {
		p.bits.set(i, true)
	}
	return p
}

// Config returns the predictor configuration.
func (p *StreamingPredictor) Config() StreamingConfig { return p.cfg }

func (p *StreamingPredictor) chunkOf(local memdef.Addr) uint64 {
	return uint64(local) / p.cfg.ChunkBytes
}

func (p *StreamingPredictor) index(chunk uint64) int {
	return int(chunk % uint64(p.cfg.Entries))
}

// Predict reports whether the chunk containing local is predicted
// streaming-accessed.
func (p *StreamingPredictor) Predict(local memdef.Addr) bool {
	return p.bits.get(p.index(p.chunkOf(local)))
}

// Train installs a detection result for a chunk.
func (p *StreamingPredictor) Train(chunk uint64, streaming bool) {
	i := p.index(chunk)
	p.bits.set(i, streaming)
	if p.owner != nil {
		p.owner[i] = chunk + 1
	}
}

// attribute classifies the provenance of the current prediction for
// local: untrained entry (init), trained by an aliasing chunk, or trained
// by this very chunk (runtime).
func (p *StreamingPredictor) attribute(local memdef.Addr) Attribution {
	chunk := p.chunkOf(local)
	switch p.owner[p.index(chunk)] {
	case 0:
		return AttrInit
	case chunk + 1:
		return AttrRuntime
	}
	return AttrAliasing
}

// Detection is the outcome of one completed monitoring phase.
type Detection struct {
	// Chunk is the local chunk ID that was monitored.
	Chunk uint64
	// Streaming reports whether every block in the chunk was touched.
	Streaming bool
	// HadWrite reports whether any monitored access was a write-back.
	HadWrite bool
	// Accesses is the number of accesses observed in the phase.
	Accesses int
	// TimedOut reports whether the phase ended by timeout rather than by
	// reaching the K-access window.
	TimedOut bool
}

// tracker is one memory access tracker: 20-bit tag (chunk), 32 1-bit
// counters, a write flag, a 5-bit access counter and a 13-bit timeout
// counter (Table IX).
type tracker struct {
	inUse    bool
	chunk    uint64
	blockBit uint64 // 1 bit per 128 B block in the 4 KB chunk
	hadWrite bool
	accesses int
	// deadline is the idle timeout: it advances on every counted access,
	// so a slowly-but-steadily streamed chunk is not cut off mid-sweep;
	// the timer's purpose is evicting trackers stuck on chunks that stop
	// receiving accesses before K distinct blocks.
	deadline uint64
	// hardDeadline bounds total tracker occupancy regardless of activity.
	hardDeadline uint64
}

// MATFile is the per-partition file of memory access trackers. Observe
// feeds it L2 misses and write-backs; completed monitoring phases emerge as
// Detections, which the caller applies to the StreamingPredictor and to the
// misprediction handling of Tables III/IV.
type MATFile struct {
	cfg      StreamingConfig
	trackers []tracker
	// expired backs the slice Tick and Flush return; see the validity
	// note on Tick. It holds one Detection per tracker, so it never grows.
	expired []Detection
	// Monitored counts chunks that got a tracker; Skipped counts accesses
	// belonging to unmonitored chunks while all trackers were busy.
	Monitored, Skipped uint64

	// Probe, when non-nil, observes tracker arms and skipped accesses.
	// Part identifies the owning partition in emitted events.
	Probe *telemetry.Collector
	Part  int16
}

// NewMATFile builds the tracker file.
func NewMATFile(cfg StreamingConfig) *MATFile {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &MATFile{
		cfg:      cfg,
		trackers: make([]tracker, cfg.Trackers),
		expired:  make([]Detection, 0, cfg.Trackers),
	}
}

// Observe feeds one off-chip access (L2 miss or write-back) at cycle now.
// It returns a completed Detection if this access ended a monitoring phase.
//
// Tracker allocation monitors AHEAD: an access to an untracked chunk C
// attaches a free tracker to chunk C+1. Under warp interleaving, L2 misses
// within a chunk arrive in arbitrary order, so a phase that starts
// mid-burst can never observe full coverage and would misclassify a
// streaming chunk as random; arming the successor chunk starts the phase
// before its burst begins. Streams sweep forward, so the successor's full
// burst lands inside the phase; randomly-accessed chunks still accumulate
// only sparse counters and finalize as random on timeout.
func (f *MATFile) Observe(local memdef.Addr, write bool, now uint64) (Detection, bool) {
	chunk := uint64(local) / f.cfg.ChunkBytes
	blk := memdef.BlockInChunk(local)
	lead := f.cfg.MonitorLead
	if lead == 0 {
		lead = 1
	}
	next := chunk + lead

	var existing, free *tracker
	nextTracked := false
	for i := range f.trackers {
		tr := &f.trackers[i]
		switch {
		case tr.inUse && tr.chunk == chunk:
			existing = tr
		case tr.inUse && tr.chunk == next:
			nextTracked = true
		case !tr.inUse && free == nil:
			free = tr
		}
	}

	var det Detection
	fired := false
	if existing != nil {
		bit := uint64(1) << uint(blk)
		if write {
			existing.hadWrite = true
		}
		// The access counter advances at cache-block granularity:
		// repeated sector accesses to an already-counted block keep the
		// phase open (its 1-bit counter is already set) so a pure
		// sectored stream covers all 32 blocks within one phase.
		if existing.blockBit&bit == 0 {
			existing.blockBit |= bit
			existing.accesses++
			existing.deadline = now + f.cfg.TimeoutCycles
			if existing.accesses >= f.cfg.WindowAccesses {
				det = f.finalize(existing, false)
				fired = true
				if free == nil {
					free = existing // reuse the just-freed tracker
				}
			}
		}
	}

	// Arm a monitoring phase ahead of the active frontier.
	if !nextTracked {
		if free == nil {
			f.Skipped++
			if f.Probe != nil {
				f.Probe.Emit(telemetry.Event{Cycle: now, Kind: telemetry.EvMonitorSkip, Part: f.Part, Value: next})
			}
		} else {
			f.Monitored++
			*free = tracker{
				inUse:        true,
				chunk:        next,
				deadline:     now + f.cfg.TimeoutCycles,
				hardDeadline: now + 8*f.cfg.TimeoutCycles,
			}
			if f.Probe != nil {
				f.Probe.Emit(telemetry.Event{Cycle: now, Kind: telemetry.EvMonitorArm, Part: f.Part, Value: next})
			}
		}
	}
	return det, fired
}

// Tick expires timed-out monitoring phases at cycle now and returns their
// detections. Call periodically (every cycle or coarser).
//
// The returned slice aliases the file's scratch buffer and is valid only
// until the next Tick or Flush; callers consume it before either.
func (f *MATFile) Tick(now uint64) []Detection {
	out := f.expired[:0]
	for i := range f.trackers {
		tr := &f.trackers[i]
		if tr.inUse && (now >= tr.deadline || now >= tr.hardDeadline) {
			out = append(out, f.finalize(tr, true)) // fills the expired scratch, sized to the tracker count
		}
	}
	return out
}

// NextDeadline returns the earliest cycle at which an active tracker
// expires (idle or hard deadline), or ^uint64(0) when none is armed. The
// MEE's event horizon uses it to schedule the next expiry Tick.
func (f *MATFile) NextDeadline() uint64 {
	next := ^uint64(0)
	for i := range f.trackers {
		tr := &f.trackers[i]
		if !tr.inUse {
			continue
		}
		d := tr.deadline
		if tr.hardDeadline < d {
			d = tr.hardDeadline
		}
		if d < next {
			next = d
		}
	}
	return next
}

// Flush finalizes every active tracker (kernel boundary). Its result
// aliases the same scratch buffer as Tick's.
func (f *MATFile) Flush() []Detection {
	out := f.expired[:0]
	for i := range f.trackers {
		if f.trackers[i].inUse {
			out = append(out, f.finalize(&f.trackers[i], true)) // fills the expired scratch, sized to the tracker count
		}
	}
	return out
}

func (f *MATFile) finalize(tr *tracker, timedOut bool) Detection {
	allTouched := tr.blockBit == (uint64(1)<<uint(memdef.BlocksPerChunk))-1
	d := Detection{
		Chunk:     tr.chunk,
		Streaming: allTouched,
		HadWrite:  tr.hadWrite,
		Accesses:  tr.accesses,
		TimedOut:  timedOut,
	}
	tr.inUse = false
	return d
}

// InUse returns the number of active trackers (for tests).
func (f *MATFile) InUse() int {
	n := 0
	for i := range f.trackers {
		if f.trackers[i].inUse {
			n++
		}
	}
	return n
}

package detectors

import (
	"fmt"
	"testing"

	"shmgpu/internal/memdef"
)

// TestReadOnlySaturation: the predictor is a fixed bit vector, so marking
// more regions than entries saturates it through aliasing — CountMarked
// never exceeds Entries, every region then predicts read-only, and one
// write clears the prediction for every region sharing the entry.
func TestReadOnlySaturation(t *testing.T) {
	cases := []struct {
		entries    int
		regions    int // regions marked, starting at 0
		wantMarked int
	}{
		{entries: 4, regions: 2, wantMarked: 2},
		{entries: 4, regions: 4, wantMarked: 4},
		{entries: 4, regions: 5, wantMarked: 4},    // one wraparound
		{entries: 4, regions: 64, wantMarked: 4},   // deep saturation
		{entries: 1, regions: 16, wantMarked: 1},   // single shared entry
		{entries: 1024, regions: 3, wantMarked: 3}, // paper size, sparse
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("e%d_r%d", tc.entries, tc.regions), func(t *testing.T) {
			p := NewReadOnlyPredictor(ReadOnlyConfig{Entries: tc.entries, RegionBytes: memdef.RegionSize})
			p.MarkInputRange(0, memdef.Addr(tc.regions)*memdef.RegionSize)
			if got := p.CountMarked(); got != tc.wantMarked {
				t.Fatalf("CountMarked = %d, want %d", got, tc.wantMarked)
			}
			for r := 0; r < tc.regions; r++ {
				if !p.Predict(memdef.Addr(r) * memdef.RegionSize) {
					t.Fatalf("region %d not predicted RO after marking", r)
				}
			}
			if tc.regions < tc.entries {
				return
			}
			// Saturated vector: a single write must clear the prediction
			// for every region aliased onto the written entry, and only
			// those.
			if !p.OnWrite(0) {
				t.Fatal("write to saturated entry must report a transition")
			}
			for r := 0; r < tc.regions; r++ {
				addr := memdef.Addr(r) * memdef.RegionSize
				aliased := r%tc.entries == 0
				if got := p.Predict(addr); got == aliased {
					t.Fatalf("region %d: Predict = %v after write to entry 0 (aliased=%v)", r, got, aliased)
				}
			}
		})
	}
}

// TestMATWindowRollover: the monitoring phase (the detector's epoch) ends
// either when the K-distinct-block window fills or when the idle/hard
// deadline passes; the table pins the phase outcome at the K edges —
// including K above the 32-block chunk population, where the count can
// never fill and only the timeout can roll the epoch over.
func TestMATWindowRollover(t *testing.T) {
	cases := []struct {
		name          string
		window        int
		blocksTouched int  // distinct blocks fed to the monitored chunk
		wantFired     bool // phase ends by count, before any Tick
		wantStreaming bool // outcome (after timeout Tick when !wantFired)
	}{
		{name: "k1_single_block", window: 1, blocksTouched: 1, wantFired: true, wantStreaming: false},
		{name: "k16_half_sweep", window: 16, blocksTouched: 16, wantFired: true, wantStreaming: false},
		{name: "k31_edge_below", window: 31, blocksTouched: 31, wantFired: true, wantStreaming: false},
		{name: "k32_full_sweep", window: 32, blocksTouched: 32, wantFired: true, wantStreaming: true},
		{name: "k32_partial_times_out", window: 32, blocksTouched: 31, wantFired: false, wantStreaming: false},
		{name: "k33_count_unreachable", window: 33, blocksTouched: 32, wantFired: false, wantStreaming: true},
		{name: "k64_count_unreachable", window: 64, blocksTouched: 32, wantFired: false, wantStreaming: true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultStreamingConfig()
			cfg.WindowAccesses = tc.window
			f := NewMATFile(cfg)
			const chunk = 20
			armChunk(f, cfg, chunk, 0)
			base := memdef.Addr(chunk * cfg.ChunkBytes)

			var det Detection
			fired := false
			for b := 0; b < tc.blocksTouched; b++ {
				if d, done := f.Observe(base+memdef.Addr(b*memdef.BlockSize), false, 1); done && d.Chunk == chunk {
					det, fired = d, true
				}
			}
			if fired != tc.wantFired {
				t.Fatalf("fired = %v, want %v", fired, tc.wantFired)
			}
			if !fired {
				for _, d := range f.Tick(1 + cfg.TimeoutCycles) {
					if d.Chunk == chunk {
						det, fired = d, true
					}
				}
				if !fired {
					t.Fatal("timeout did not roll the epoch over")
				}
				if !det.TimedOut {
					t.Fatal("timeout-finalized phase not flagged TimedOut")
				}
			} else if det.TimedOut {
				t.Fatal("count-finalized phase flagged TimedOut")
			}
			if det.Streaming != tc.wantStreaming {
				t.Fatalf("Streaming = %v, want %v (det %+v)", det.Streaming, tc.wantStreaming, det)
			}
			if det.Accesses != tc.blocksTouched {
				t.Fatalf("Accesses = %d, want %d (block-granular)", det.Accesses, tc.blocksTouched)
			}
		})
	}
}

// TestMATIdleVersusHardDeadline: a counted access advances the idle
// deadline (a slow-but-steady stream keeps its phase open), repeated
// accesses to an already-counted block do not, and the hard deadline
// bounds total occupancy no matter how active the chunk stays.
func TestMATIdleVersusHardDeadline(t *testing.T) {
	cases := []struct {
		name string
		// step(now, i) feeds access i; gap is the cycle spacing.
		sameBlock  bool
		gap        uint64
		wantExpiry uint64 // first Tick cycle that finalizes the phase
	}{
		// Fresh blocks every Timeout-1 cycles: idle deadline keeps
		// advancing, so only the hard deadline (arm + 8×Timeout) fires.
		{name: "steady_stream_hard_deadline", sameBlock: false, gap: 5999, wantExpiry: 8 * 6000},
		// Same block every time: only the first access counts, so the idle
		// deadline freezes at firstAccess + Timeout.
		{name: "hot_block_idle_deadline", sameBlock: true, gap: 100, wantExpiry: 100 + 6000},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultStreamingConfig()
			f := NewMATFile(cfg)
			const chunk = 30
			armChunk(f, cfg, chunk, 0) // armed at cycle 0
			base := memdef.Addr(chunk * cfg.ChunkBytes)
			now := uint64(0)
			for i := 0; i < 20; i++ {
				now += tc.gap
				if now >= tc.wantExpiry {
					break
				}
				blk := 0
				if !tc.sameBlock {
					blk = i % memdef.BlocksPerChunk
				}
				f.Observe(base+memdef.Addr(blk*memdef.BlockSize), false, now)
			}
			for _, d := range f.Tick(tc.wantExpiry - 1) {
				if d.Chunk == chunk {
					t.Fatalf("phase expired before cycle %d: %+v", tc.wantExpiry, d)
				}
			}
			found := false
			for _, d := range f.Tick(tc.wantExpiry) {
				if d.Chunk == chunk {
					found = true
				}
			}
			if !found {
				t.Fatalf("phase still open at cycle %d (NextDeadline=%d)", tc.wantExpiry, f.NextDeadline())
			}
		})
	}
}

// TestStreamingMispredictRecovery: the detect→train→redetect loop. A
// chunk trained against its true pattern (the mispredict) must recover:
// the next completed monitoring phase re-trains the predictor back to the
// truth. The table drives both directions of the flip.
func TestStreamingMispredictRecovery(t *testing.T) {
	cases := []struct {
		name         string
		trainFirst   bool // initial (wrong) training value
		streamSecond bool // actual pattern of the recovery phase
	}{
		// Streamed chunk wrongly trained random: a full sweep recovers it.
		{name: "random_to_streaming", trainFirst: false, streamSecond: true},
		// Random chunk wrongly trained streaming: a sparse phase (timeout)
		// recovers it.
		{name: "streaming_to_random", trainFirst: true, streamSecond: false},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultStreamingConfig()
			sp := NewStreamingPredictor(cfg)
			// Attribution belongs to the accuracy harness.
			NewStreamingAccuracy(sp, nil)
			f := NewMATFile(cfg)
			const chunk = 40
			base := memdef.Addr(chunk * cfg.ChunkBytes)

			sp.Train(chunk, tc.trainFirst)
			if got := sp.Predict(base); got != tc.trainFirst {
				t.Fatalf("Predict = %v after training %v", got, tc.trainFirst)
			}

			// Run one full monitoring phase with the chunk's true pattern.
			armChunk(f, cfg, chunk, 0)
			trained := false
			apply := func(d Detection, ok bool) {
				if ok && d.Chunk == chunk {
					sp.Train(d.Chunk, d.Streaming)
					trained = true
				}
			}
			if tc.streamSecond {
				for b := 0; b < memdef.BlocksPerChunk; b++ {
					apply(f.Observe(base+memdef.Addr(b*memdef.BlockSize), false, 1))
				}
			} else {
				for i := 0; i < 16; i++ {
					apply(f.Observe(base+memdef.Addr((i%2)*memdef.BlockSize), false, 1))
				}
				for _, d := range f.Tick(1 + cfg.TimeoutCycles) {
					apply(d, true)
				}
			}
			if !trained {
				t.Fatal("monitoring phase never completed")
			}
			if got := sp.Predict(base); got != tc.streamSecond {
				t.Fatalf("Predict = %v after recovery phase, want %v", got, tc.streamSecond)
			}
			if got := sp.attribute(base); got != AttrRuntime {
				t.Fatalf("recovered entry attribution = %v, want runtime", got)
			}
		})
	}
}

// TestMATTrackerEvictionOrder: trackers finalize in deadline order, not
// allocation order — NextDeadline always names the earliest expiry, each
// Tick evicts exactly the trackers whose deadline passed, and freed slots
// are immediately reusable for new chunks.
func TestMATTrackerEvictionOrder(t *testing.T) {
	cases := []struct {
		name     string
		armAt    []uint64 // arm cycle per chunk, in allocation order
		tickAt   []uint64 // successive Tick times
		wantEvic [][]int  // per Tick: indexes (into armAt) evicted
	}{
		{
			// Reverse staggering: the last-armed tracker expires last.
			name:     "fifo_stagger",
			armAt:    []uint64{0, 10, 20},
			tickAt:   []uint64{6000, 6010, 6020},
			wantEvic: [][]int{{0}, {1}, {2}},
		},
		{
			// One Tick sweeps every expired tracker at once.
			name:     "batch_eviction",
			armAt:    []uint64{0, 10, 20},
			tickAt:   []uint64{6020},
			wantEvic: [][]int{{0, 1, 2}},
		},
		{
			// Nothing expires before the earliest deadline.
			name:     "no_early_eviction",
			armAt:    []uint64{0, 100},
			tickAt:   []uint64{5999, 6099, 6100},
			wantEvic: [][]int{{}, {0}, {1}},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultStreamingConfig()
			cfg.MonitorLead = 1
			f := NewMATFile(cfg)
			chunks := make([]uint64, len(tc.armAt))
			for i, at := range tc.armAt {
				// Feed chunk 100i so tracker i monitors chunk 100i+1.
				trigger := uint64(100 * i)
				f.Observe(memdef.Addr(trigger*cfg.ChunkBytes), false, at)
				chunks[i] = trigger + 1
			}
			if want := tc.armAt[0] + cfg.TimeoutCycles; f.NextDeadline() != want {
				t.Fatalf("NextDeadline = %d, want %d", f.NextDeadline(), want)
			}
			for step, at := range tc.tickAt {
				got := map[uint64]bool{}
				for _, d := range f.Tick(at) {
					got[d.Chunk] = true
				}
				want := map[uint64]bool{}
				for _, idx := range tc.wantEvic[step] {
					want[chunks[idx]] = true
				}
				if len(got) != len(want) {
					t.Fatalf("tick %d (cycle %d): evicted %v, want indexes %v", step, at, got, tc.wantEvic[step])
				}
				for c := range want {
					if !got[c] {
						t.Fatalf("tick %d (cycle %d): chunk %d not evicted (got %v)", step, at, c, got)
					}
				}
			}
			if f.InUse() != 0 {
				t.Fatalf("%d trackers still in use after final tick", f.InUse())
			}
		})
	}
}

// TestMATSlotReuseAfterEviction: a finalized tracker's slot must be
// reusable in the same Observe call (count-finalize) and after a Tick
// (timeout-finalize), so a full file never deadlocks on stale phases.
func TestMATSlotReuseAfterEviction(t *testing.T) {
	cfg := DefaultStreamingConfig()
	cfg.Trackers = 1
	cfg.MonitorLead = 1
	cfg.WindowAccesses = 1
	f := NewMATFile(cfg)

	// Arm chunk 1 via chunk 0; the file is now full.
	f.Observe(0, false, 0)
	if f.InUse() != 1 {
		t.Fatalf("InUse = %d", f.InUse())
	}
	// Accessing chunk 1 finalizes its phase (K=1) and the freed tracker
	// is immediately re-armed for chunk 2 within the same call.
	det, fired := f.Observe(memdef.Addr(cfg.ChunkBytes), false, 5)
	if !fired || det.Chunk != 1 {
		t.Fatalf("fired=%v det=%+v", fired, det)
	}
	if f.InUse() != 1 {
		t.Fatalf("freed slot not re-armed: InUse = %d", f.InUse())
	}
	// Timeout the tracker; the slot frees for a later chunk.
	f.Tick(5 + cfg.TimeoutCycles)
	if f.InUse() != 0 {
		t.Fatalf("InUse = %d after timeout", f.InUse())
	}
	f.Observe(memdef.Addr(50*cfg.ChunkBytes), false, 20000)
	if f.InUse() != 1 {
		t.Fatal("slot not reusable after timeout eviction")
	}
	if f.Skipped != 0 {
		t.Fatalf("Skipped = %d, want 0", f.Skipped)
	}
}

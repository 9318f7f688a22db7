package detectors

import (
	"math/rand"
	"testing"

	"shmgpu/internal/memdef"
	"shmgpu/internal/stats"
)

func roPred() *ReadOnlyPredictor { return NewReadOnlyPredictor(DefaultReadOnlyConfig()) }

func TestReadOnlyDefaultsNotRO(t *testing.T) {
	p := roPred()
	if p.Predict(0) || p.Predict(1<<20) {
		t.Fatal("entries must initialize to not-read-only")
	}
}

func TestReadOnlyMarkAndClear(t *testing.T) {
	p := roPred()
	p.MarkInput(0x4000)
	if !p.Predict(0x4000) {
		t.Fatal("marked region not predicted RO")
	}
	// Same region, different offset within 16 KB.
	if !p.Predict(0x4000 + 0x3F00) {
		t.Fatal("prediction not region-granular")
	}
	if !p.OnWrite(0x4100) {
		t.Fatal("write to RO region must report a transition")
	}
	if p.Predict(0x4000) {
		t.Fatal("region still RO after write")
	}
	// Second write: no transition (one-way, already cleared).
	if p.OnWrite(0x4100) {
		t.Fatal("second write must not report a transition")
	}
}

func TestReadOnlyMarkInputRange(t *testing.T) {
	p := roPred()
	p.MarkInputRange(0, 3*memdef.RegionSize)
	for _, a := range []memdef.Addr{0, memdef.RegionSize, 2*memdef.RegionSize + 5} {
		if !p.Predict(a) {
			t.Errorf("addr %#x not marked", uint64(a))
		}
	}
	if p.Predict(3 * memdef.RegionSize) {
		t.Error("region beyond range marked")
	}
	if p.CountMarked() != 3 {
		t.Errorf("CountMarked = %d, want 3", p.CountMarked())
	}
	// Empty range is a no-op.
	p2 := roPred()
	p2.MarkInputRange(100, 100)
	if p2.CountMarked() != 0 {
		t.Error("empty range marked something")
	}
}

func TestReadOnlyAliasingOnlyLosesOpportunity(t *testing.T) {
	// Two regions aliasing to the same entry: a write to one clears the
	// other's bit — classifying a truly-RO region as not-RO, which is the
	// safe direction.
	p := roPred()
	stride := memdef.Addr(uint64(p.Config().Entries) * p.Config().RegionBytes)
	a, b := memdef.Addr(0), stride // same index
	// Attribution belongs to the accuracy harness.
	NewReadOnlyAccuracy(p)
	p.MarkInput(a)
	p.MarkInput(b)
	p.OnWrite(b)
	if p.Predict(a) {
		t.Fatal("aliased entry should read not-RO for both regions")
	}
	if got := p.attribute(a); got != AttrAliasing {
		t.Fatalf("Attribute = %v, want aliasing", got)
	}
}

// sinkRO and sinkST keep constructed predictors on the heap, so
// AllocsPerRun counts what a constructor really allocates.
var (
	sinkRO *ReadOnlyPredictor
	sinkST *StreamingPredictor
)

// TestUnwrappedPredictorHoldsOnlyItsBitVector: a predictor no accuracy
// harness wraps allocates itself and its Table IX bit vector (128 B and
// 256 B at the paper's sizes) and nothing else; wrapping it adds the one
// per-entry attribution array.
func TestUnwrappedPredictorHoldsOnlyItsBitVector(t *testing.T) {
	roCfg, stCfg := DefaultReadOnlyConfig(), DefaultStreamingConfig()
	if n := testing.AllocsPerRun(10, func() { sinkRO = NewReadOnlyPredictor(roCfg) }); n != 2 {
		t.Errorf("NewReadOnlyPredictor made %v allocations, want 2 (predictor, bit vector)", n)
	}
	if n := testing.AllocsPerRun(10, func() { sinkST = NewStreamingPredictor(stCfg) }); n != 2 {
		t.Errorf("NewStreamingPredictor made %v allocations, want 2 (predictor, bit vector)", n)
	}
	if got := len(sinkRO.bits) * 8; got != 128 {
		t.Errorf("read-only bit vector is %d B, want 128 B", got)
	}
	if got := len(sinkST.bits) * 8; got != 256 {
		t.Errorf("streaming bit vector is %d B, want 256 B", got)
	}
	if sinkRO.owner != nil || sinkST.owner != nil {
		t.Error("an unwrapped predictor carries attribution state")
	}
	NewReadOnlyAccuracy(sinkRO)
	NewStreamingAccuracy(sinkST, sinkRO)
	if len(sinkRO.owner) != roCfg.Entries || len(sinkST.owner) != stCfg.Entries {
		t.Errorf("wrapped predictors have %d and %d attribution entries, want %d and %d",
			len(sinkRO.owner), len(sinkST.owner), roCfg.Entries, stCfg.Entries)
	}
}

func TestReadOnlyReset(t *testing.T) {
	p := roPred()
	p.MarkInput(0)
	p.OnWrite(0)
	if p.Predict(0) {
		t.Fatal("cleared")
	}
	p.Reset(0, memdef.RegionSize)
	if !p.Predict(0) {
		t.Fatal("InputReadOnlyReset must restore the RO bit")
	}
}

func streamCfg() StreamingConfig { return DefaultStreamingConfig() }

func TestStreamingDefaultsStreaming(t *testing.T) {
	p := NewStreamingPredictor(streamCfg())
	// Attribution belongs to the accuracy harness.
	NewStreamingAccuracy(p, nil)
	if !p.Predict(0) || !p.Predict(1<<22) {
		t.Fatal("entries must eagerly initialize to streaming")
	}
	if got := p.attribute(0); got != AttrInit {
		t.Fatalf("untrained attribute = %v, want init", got)
	}
}

func TestStreamingTrainAndAttribute(t *testing.T) {
	p := NewStreamingPredictor(streamCfg())
	// Attribution belongs to the accuracy harness.
	NewStreamingAccuracy(p, nil)
	p.Train(5, false)
	addr := memdef.Addr(5 * memdef.ChunkSize)
	if p.Predict(addr) {
		t.Fatal("trained-random chunk predicted streaming")
	}
	if got := p.attribute(addr); got != AttrRuntime {
		t.Fatalf("self-trained attribute = %v, want runtime", got)
	}
	// Aliasing chunk (same index, Entries apart).
	alias := memdef.Addr((5 + uint64(p.Config().Entries)) * memdef.ChunkSize)
	if got := p.attribute(alias); got != AttrAliasing {
		t.Fatalf("aliased attribute = %v, want aliasing", got)
	}
}

// armChunk makes the MAT monitor the given chunk by feeding one access to
// the chunk MonitorLead before it (the monitor-ahead allocation policy).
func armChunk(f *MATFile, cfg StreamingConfig, chunk uint64, now uint64) {
	trigger := memdef.Addr((chunk - cfg.MonitorLead) * cfg.ChunkBytes)
	f.Observe(trigger, false, now)
}

func TestMATDetectsStreaming(t *testing.T) {
	cfg := streamCfg()
	f := NewMATFile(cfg)
	const chunk = 10
	armChunk(f, cfg, chunk, 0)
	if f.InUse() != 2 { // trigger chunk's own arm + monitored chunk? only one arm happens
		// One access arms exactly one tracker (chunk+lead).
		if f.InUse() != 1 {
			t.Fatalf("InUse = %d after arming", f.InUse())
		}
	}
	base := memdef.Addr(chunk * cfg.ChunkBytes)
	var det Detection
	var fired bool
	// Touch all 32 blocks of the armed chunk exactly once: perfect stream.
	for b := 0; b < memdef.BlocksPerChunk; b++ {
		if d, done := f.Observe(base+memdef.Addr(b*memdef.BlockSize), false, 0); done {
			det, fired = d, true
		}
	}
	if !fired {
		t.Fatal("full coverage must finalize the phase")
	}
	if !det.Streaming || det.Chunk != chunk || det.HadWrite || det.TimedOut {
		t.Fatalf("detection = %+v", det)
	}
}

func TestMATDetectsRandom(t *testing.T) {
	cfg := streamCfg()
	f := NewMATFile(cfg)
	const chunk = 10
	armChunk(f, cfg, chunk, 0)
	base := memdef.Addr(chunk * cfg.ChunkBytes)
	// Repeated write accesses to only two blocks: the block-granular
	// counter never reaches K, so the phase ends by timeout as random.
	for i := 0; i < 32; i++ {
		if _, done := f.Observe(base+memdef.Addr((i%2)*memdef.BlockSize), true, 0); done {
			t.Fatal("partial-coverage window must not finalize early")
		}
	}
	var det Detection
	found := false
	for _, d := range f.Tick(cfg.TimeoutCycles) {
		if d.Chunk == chunk {
			det, found = d, true
		}
	}
	if !found {
		t.Fatal("timeout did not finalize the monitored chunk")
	}
	if det.Streaming {
		t.Fatal("partial-coverage chunk detected as streaming")
	}
	if !det.HadWrite {
		t.Fatal("write flag lost")
	}
	if det.Accesses != 2 {
		t.Fatalf("block-granular accesses = %d, want 2", det.Accesses)
	}
}

func TestMATSectoredStreamDetectsStreaming(t *testing.T) {
	// A sectored stream issues 4 accesses per block; block-granular
	// counting must still recognize the full-coverage stream.
	cfg := streamCfg()
	f := NewMATFile(cfg)
	const chunk = 7
	armChunk(f, cfg, chunk, 0)
	base := memdef.Addr(chunk * cfg.ChunkBytes)
	var det Detection
	var fired bool
	for b := 0; b < memdef.BlocksPerChunk; b++ {
		for s := 0; s < memdef.SectorsPerBlock; s++ {
			if d, done := f.Observe(base+memdef.Addr(b*memdef.BlockSize+s*memdef.SectorSize), false, 0); done && d.Chunk == chunk {
				det, fired = d, true
			}
		}
	}
	if !fired || !det.Streaming {
		t.Fatalf("sectored stream not detected: fired=%v det=%+v", fired, det)
	}
}

func TestMATTimeout(t *testing.T) {
	cfg := streamCfg()
	f := NewMATFile(cfg)
	f.Observe(0, false, 100)
	if got := f.Tick(100 + cfg.TimeoutCycles - 1); len(got) != 0 {
		t.Fatal("timed out early")
	}
	got := f.Tick(100 + cfg.TimeoutCycles)
	if len(got) != 1 || !got[0].TimedOut || got[0].Streaming {
		t.Fatalf("timeout detection = %+v", got)
	}
}

func TestMATCapacity(t *testing.T) {
	cfg := streamCfg() // 8 trackers
	f := NewMATFile(cfg)
	for c := 0; c < 8; c++ {
		f.Observe(memdef.Addr(c*memdef.ChunkSize), false, 0)
	}
	if f.InUse() != 8 {
		t.Fatalf("InUse = %d", f.InUse())
	}
	// Ninth distinct chunk: no tracker available; access skipped.
	f.Observe(memdef.Addr(8*memdef.ChunkSize), false, 0)
	if f.Skipped != 1 {
		t.Fatalf("Skipped = %d, want 1", f.Skipped)
	}
	// Existing chunks still tracked.
	if _, done := f.Observe(0, false, 0); done {
		t.Fatal("unexpected finalize")
	}
}

func TestMATFlush(t *testing.T) {
	f := NewMATFile(streamCfg())
	f.Observe(0, true, 0)
	f.Observe(memdef.ChunkSize, false, 0)
	dets := f.Flush()
	if len(dets) != 2 {
		t.Fatalf("flush returned %d detections", len(dets))
	}
	if f.InUse() != 0 {
		t.Fatal("trackers still active after flush")
	}
}

// TestMATTickAllocationFree pins the expiry path: with every tracker armed
// and timing out each round, Tick fills the file's scratch buffer and
// allocates nothing.
func TestMATTickAllocationFree(t *testing.T) {
	cfg := streamCfg()
	f := NewMATFile(cfg)
	var now uint64
	var armed, expired int
	round := func() {
		for c := 0; c < cfg.Trackers; c++ {
			f.Observe(memdef.Addr(uint64(c)*cfg.ChunkBytes), false, now)
		}
		armed = f.InUse()
		now += cfg.TimeoutCycles
		expired = len(f.Tick(now))
	}
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("%g allocations per expiry round, want 0", allocs)
	}
	if armed != cfg.Trackers || expired != armed {
		t.Errorf("last round armed %d of %d trackers and expired %d; want all of them", armed, cfg.Trackers, expired)
	}
}

func TestReadOnlyAccuracyAllCorrect(t *testing.T) {
	p := roPred()
	p.MarkInputRange(0, 4*memdef.RegionSize)
	acc := NewReadOnlyAccuracy(p)
	// Reads to marked RO regions; never written => truth RO; all correct.
	for i := 0; i < 100; i++ {
		acc.Observe(memdef.Addr(i%4)*memdef.RegionSize, false)
	}
	ps := acc.Finalize()
	if acc, ok := ps.Accuracy(); !ok || acc != 1.0 {
		t.Fatalf("accuracy = %v (ok=%v), want 1.0 (%+v)", acc, ok, ps)
	}
}

func TestReadOnlyAccuracyInitMisses(t *testing.T) {
	p := roPred()
	// Region 0 is truly read-only but never marked (init misprediction).
	acc := NewReadOnlyAccuracy(p)
	for i := 0; i < 10; i++ {
		acc.Observe(0, false)
	}
	ps := acc.Finalize()
	if ps.Counts[stats.OutcomeMPInit] != 10 {
		t.Fatalf("MP_Init = %d, want 10 (%+v)", ps.Counts[stats.OutcomeMPInit], ps)
	}
}

func TestReadOnlyAccuracyWrittenRegionCorrect(t *testing.T) {
	p := roPred()
	acc := NewReadOnlyAccuracy(p)
	// Unmarked region that does get written: predicted not-RO, truth
	// not-RO => all correct, including the write itself.
	for i := 0; i < 5; i++ {
		acc.Observe(0, false)
	}
	acc.Observe(0, true)
	p.OnWrite(0)
	ps := acc.Finalize()
	if acc, ok := ps.Accuracy(); !ok || acc != 1.0 {
		t.Fatalf("accuracy = %v (ok=%v) (%+v)", acc, ok, ps)
	}
}

func TestReadOnlyAccuracyMarkedThenWritten(t *testing.T) {
	p := roPred()
	p.MarkInput(0)
	acc := NewReadOnlyAccuracy(p)
	// Predicted RO while marked, but the region is written during the
	// kernel => truth not-RO => those predictions are init mispredictions.
	acc.Observe(0, false)
	acc.Observe(0, true)
	p.OnWrite(0)
	acc.Observe(0, false) // now predicted not-RO: correct
	ps := acc.Finalize()
	if ps.Counts[stats.OutcomeMPInit] != 2 || ps.Counts[stats.OutcomeCorrect] != 1 {
		t.Fatalf("breakdown = %+v", ps)
	}
}

func TestReadOnlyAccuracyAliasing(t *testing.T) {
	p := roPred()
	stride := memdef.Addr(uint64(p.Config().Entries) * p.Config().RegionBytes)
	p.MarkInput(0)
	p.MarkInput(stride)
	acc := NewReadOnlyAccuracy(p)
	// Write region at `stride` (clears shared bit); then reads of region 0
	// predict not-RO though region 0 is truly RO => aliasing MPs.
	acc.Observe(stride, true)
	p.OnWrite(stride)
	for i := 0; i < 7; i++ {
		acc.Observe(0, false)
	}
	ps := acc.Finalize()
	if ps.Counts[stats.OutcomeMPAliasing] != 7 {
		t.Fatalf("MP_Aliasing = %d, want 7 (%+v)", ps.Counts[stats.OutcomeMPAliasing], ps)
	}
}

func TestStreamingAccuracyPerfectStream(t *testing.T) {
	sp := NewStreamingPredictor(streamCfg())
	acc := NewStreamingAccuracy(sp, nil)
	for b := 0; b < memdef.BlocksPerChunk; b++ {
		acc.Observe(memdef.Addr(b * memdef.BlockSize))
	}
	ps := acc.Finalize()
	if acc, ok := ps.Accuracy(); !ok || acc != 1.0 {
		t.Fatalf("accuracy = %v (ok=%v) (%+v)", acc, ok, ps)
	}
}

func TestStreamingAccuracyRandomChunkInitMPs(t *testing.T) {
	sp := NewStreamingPredictor(streamCfg())
	acc := NewStreamingAccuracy(sp, nil)
	// 32 accesses to 2 blocks: truth random, predicted streaming (init).
	for i := 0; i < 32; i++ {
		acc.Observe(memdef.Addr((i % 2) * memdef.BlockSize))
	}
	ps := acc.Finalize()
	if ps.Counts[stats.OutcomeMPInit] != 32 {
		t.Fatalf("MP_Init = %d, want 32 (%+v)", ps.Counts[stats.OutcomeMPInit], ps)
	}
}

func TestStreamingAccuracyRuntimeSplitByRO(t *testing.T) {
	sp := NewStreamingPredictor(streamCfg())
	ro := roPred()
	ro.MarkInput(0) // chunk 0 lives in an RO region
	acc := NewStreamingAccuracy(sp, ro)
	// Train chunk 0 as random (self-trained => runtime attribution).
	sp.Train(0, false)
	// Now stream the chunk: predictions say random, truth streaming.
	for b := 0; b < memdef.BlocksPerChunk; b++ {
		acc.Observe(memdef.Addr(b * memdef.BlockSize))
	}
	ps := acc.Finalize()
	if ps.Counts[stats.OutcomeMPRuntimeRO] != 32 {
		t.Fatalf("MP_Runtime_Read_Only = %d, want 32 (%+v)", ps.Counts[stats.OutcomeMPRuntimeRO], ps)
	}

	// Same scenario in a non-RO region.
	sp2 := NewStreamingPredictor(streamCfg())
	acc2 := NewStreamingAccuracy(sp2, ro)
	base := memdef.Addr(memdef.ChunkSize * 100) // outside marked region
	sp2.Train(100, false)
	for b := 0; b < memdef.BlocksPerChunk; b++ {
		acc2.Observe(base + memdef.Addr(b*memdef.BlockSize))
	}
	ps2 := acc2.Finalize()
	if ps2.Counts[stats.OutcomeMPRuntimeNonRO] != 32 {
		t.Fatalf("MP_Runtime_Non_Read_Only = %d, want 32 (%+v)", ps2.Counts[stats.OutcomeMPRuntimeNonRO], ps2)
	}
}

func TestStreamingAccuracyAliasing(t *testing.T) {
	sp := NewStreamingPredictor(streamCfg())
	acc := NewStreamingAccuracy(sp, nil)
	aliasChunk := uint64(sp.Config().Entries) // aliases with chunk 0
	sp.Train(aliasChunk, false)               // trained by the OTHER chunk
	// Stream chunk 0: predicted random (due to alias), truth streaming.
	for b := 0; b < memdef.BlocksPerChunk; b++ {
		acc.Observe(memdef.Addr(b * memdef.BlockSize))
	}
	ps := acc.Finalize()
	if ps.Counts[stats.OutcomeMPAliasing] != 32 {
		t.Fatalf("MP_Aliasing = %d, want 32 (%+v)", ps.Counts[stats.OutcomeMPAliasing], ps)
	}
}

func TestMATThenPredictorLoop(t *testing.T) {
	// End-to-end: random chunk gets detected (via timeout) and trained;
	// subsequent predictions flip to random.
	cfg := streamCfg()
	sp := NewStreamingPredictor(cfg)
	f := NewMATFile(cfg)
	rng := rand.New(rand.NewSource(3))
	// Arm the monitored chunk, then access it sparsely (random pattern).
	const chunk = 10
	armChunk(f, cfg, chunk, 0)
	base := memdef.Addr(chunk * cfg.ChunkBytes)
	for i := 0; i < 32; i++ {
		a := base + memdef.Addr(rng.Intn(4)*memdef.BlockSize)
		if det, done := f.Observe(a, false, uint64(i)); done {
			sp.Train(det.Chunk, det.Streaming)
		}
	}
	for _, det := range f.Tick(2*cfg.TimeoutCycles + 32) {
		if det.Accesses > 0 {
			sp.Train(det.Chunk, det.Streaming)
		}
	}
	if sp.Predict(base) {
		t.Fatal("predictor not retrained to random after detection")
	}
}

func TestHardwareOverheadTableIX(t *testing.T) {
	h := PaperHardwareOverhead()
	if h.TrackerBits != 71 {
		t.Errorf("tracker bits = %d, want 71", h.TrackerBits)
	}
	// Paper: 128 B + 256 B + 71 B per partition, ×12 = 5460 B (5.33 KB).
	if got := h.TotalBytes(); got != 5460 {
		t.Errorf("TotalBytes = %d, want 5460", got)
	}
	if h.String() == "" {
		t.Error("empty String")
	}
}

func TestBadConfigsPanic(t *testing.T) {
	cases := []func(){
		func() { NewReadOnlyPredictor(ReadOnlyConfig{}) },
		func() { NewStreamingPredictor(StreamingConfig{}) },
		func() { NewMATFile(StreamingConfig{Entries: 8, ChunkBytes: 4096, WindowAccesses: 100, Trackers: 1}) },
		func() { NewMATFile(StreamingConfig{Entries: 8, ChunkBytes: 4096, WindowAccesses: 32, Trackers: 0}) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

package detectors

import (
	"sort"

	"shmgpu/internal/memdef"
	"shmgpu/internal/stats"
)

// sortedKeys returns m's keys in ascending order so settlement loops iterate
// deterministically (the tallies are commutative sums, but fixed order keeps
// any future non-commutative scoring — and debugging output — stable).
func sortedKeys[V any](m map[uint64]V) []uint64 {
	keys := make([]uint64, 0, len(m))
	for k := range m { //shmlint:allow maprange — keys are sorted before use
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// ReadOnlyAccuracy scores the read-only predictor against offline-profiling
// ground truth (paper Fig. 10 methodology: every prediction for every L2
// miss/write-back is compared with the result of offline profiling, where a
// region's truth is "read-only" iff the kernel never writes it).
//
// Because the truth is only known at the end of the run, predictions are
// buffered per region with their attribution, then settled by Finalize.
type ReadOnlyAccuracy struct {
	pred *ReadOnlyPredictor
	// per region: prediction tallies by (predictedRO, attribution).
	regions map[uint64]*roRegionTally
}

type roRegionTally struct {
	written bool
	// counts[pred][attr]: pred 0=notRO 1=RO; attr indexes Attribution.
	counts [2][3]uint64
}

// NewReadOnlyAccuracy wraps a predictor for scoring and turns on its
// misprediction attribution. Wrap it before the first OnWrite, so every
// clear it attributes was recorded.
func NewReadOnlyAccuracy(pred *ReadOnlyPredictor) *ReadOnlyAccuracy {
	pred.owner = make([]uint64, pred.cfg.Entries)
	return &ReadOnlyAccuracy{pred: pred, regions: make(map[uint64]*roRegionTally)}
}

// Observe records one access's prediction. Call BEFORE applying the access
// to the predictor (i.e. before OnWrite for writes), mirroring hardware
// where the prediction is consumed before the bit updates.
func (a *ReadOnlyAccuracy) Observe(local memdef.Addr, write bool) {
	region := uint64(local) / a.pred.cfg.RegionBytes
	t := a.regions[region]
	if t == nil {
		t = &roRegionTally{}  // one tally per touched region, amortized over the run
		a.regions[region] = t // one tally per touched region, amortized over the run
	}
	predRO := 0
	if a.pred.Predict(local) {
		predRO = 1
	}
	t.counts[predRO][a.pred.attribute(local)]++
	if write {
		t.written = true
	}
}

// Finalize settles every buffered prediction against ground truth and
// returns the Fig. 10 breakdown.
func (a *ReadOnlyAccuracy) Finalize() stats.PredictorStats {
	var ps stats.PredictorStats
	for _, region := range sortedKeys(a.regions) {
		t := a.regions[region]
		truthRO := 0
		if !t.written {
			truthRO = 1
		}
		for pred := 0; pred < 2; pred++ {
			for attr := 0; attr < 3; attr++ {
				n := t.counts[pred][attr]
				if n == 0 {
					continue
				}
				if pred == truthRO {
					ps.Counts[stats.OutcomeCorrect] += n
					continue
				}
				switch Attribution(attr) {
				case AttrAliasing:
					ps.Counts[stats.OutcomeMPAliasing] += n
				default:
					// Init-state entries and same-region transitions both
					// trace back to initialization for the read-only
					// predictor (its only runtime transition is the
					// one-way RO→not-RO clear by this region's own write,
					// which the offline truth already reflects).
					ps.Counts[stats.OutcomeMPInit] += n
				}
			}
		}
	}
	return ps
}

// StreamingAccuracy scores the streaming predictor against an oracle
// tracker of unlimited capacity (paper Fig. 11 methodology): for each
// access, the prediction is compared with the detection result of the
// oracle window containing that access. Mispredictions are attributed to
// initialization, aliasing, or runtime pattern changes (split by the
// read-only status of the chunk).
type StreamingAccuracy struct {
	pred *StreamingPredictor
	ro   *ReadOnlyPredictor
	// oracle per-chunk window state.
	chunks map[uint64]*streamChunkTally
	out    stats.PredictorStats
}

type streamChunkTally struct {
	blockBit uint64
	accesses int
	// buffered predictions in the current oracle window:
	// counts[predStream][attr][roAtPrediction]
	counts [2][3][2]uint64
}

// NewStreamingAccuracy wraps the two predictors for scoring and turns on
// the streaming predictor's misprediction attribution; wrap it before the
// first Train. The read-only predictor (nil when the design has none) is
// consulted only to split runtime mispredictions into the paper's RO /
// non-RO categories.
func NewStreamingAccuracy(pred *StreamingPredictor, ro *ReadOnlyPredictor) *StreamingAccuracy {
	pred.owner = make([]uint64, pred.cfg.Entries)
	return &StreamingAccuracy{pred: pred, ro: ro, chunks: make(map[uint64]*streamChunkTally)}
}

// Observe records one access's prediction and advances the oracle window.
// Call BEFORE the MAT/predictor update for the access.
func (s *StreamingAccuracy) Observe(local memdef.Addr) {
	chunk := uint64(local) / s.pred.cfg.ChunkBytes
	t := s.chunks[chunk]
	if t == nil {
		t = &streamChunkTally{} // one tally per touched chunk, amortized over the run
		s.chunks[chunk] = t     // one tally per touched chunk, amortized over the run
	}
	predStream := 0
	if s.pred.Predict(local) {
		predStream = 1
	}
	roNow := 0
	if s.ro != nil && s.ro.Predict(local) {
		roNow = 1
	}
	t.counts[predStream][s.pred.attribute(local)][roNow]++

	// Mirror the MAT: the window advances at block granularity.
	bit := uint64(1) << uint(memdef.BlockInChunk(local))
	if t.blockBit&bit == 0 {
		t.blockBit |= bit
		t.accesses++
	}
	if t.accesses >= s.pred.cfg.WindowAccesses {
		s.settle(chunk, t)
	}
}

// settle closes an oracle window for a chunk and scores its predictions.
func (s *StreamingAccuracy) settle(chunk uint64, t *streamChunkTally) {
	truthStream := 0
	if t.blockBit == (uint64(1)<<uint(memdef.BlocksPerChunk))-1 {
		truthStream = 1
	}
	for pred := 0; pred < 2; pred++ {
		for attr := 0; attr < 3; attr++ {
			for ro := 0; ro < 2; ro++ {
				n := t.counts[pred][attr][ro]
				if n == 0 {
					continue
				}
				if pred == truthStream {
					s.out.Counts[stats.OutcomeCorrect] += n
					continue
				}
				switch Attribution(attr) {
				case AttrInit:
					s.out.Counts[stats.OutcomeMPInit] += n
				case AttrAliasing:
					s.out.Counts[stats.OutcomeMPAliasing] += n
				default:
					if ro == 1 {
						s.out.Counts[stats.OutcomeMPRuntimeRO] += n
					} else {
						s.out.Counts[stats.OutcomeMPRuntimeNonRO] += n
					}
				}
			}
		}
	}
	*t = streamChunkTally{}
}

// Finalize settles every open oracle window and returns the Fig. 11
// breakdown. Windows shorter than K settle against the blocks seen so far,
// matching the MAT's timeout behaviour.
func (s *StreamingAccuracy) Finalize() stats.PredictorStats {
	for _, chunk := range sortedKeys(s.chunks) {
		if t := s.chunks[chunk]; t.accesses > 0 {
			s.settle(chunk, t)
		}
	}
	return s.out
}

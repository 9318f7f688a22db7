package detectors

import "shmgpu/internal/snapshot"

// Checkpoint/restore for the detector state machines. Restore targets must
// be constructed with identical configs; table sizes are validated, not
// reconstructed. Accuracy maps are serialized in sorted-key order — the
// settlement loops already sort, so the map iteration order is not
// observable and a canonical order keeps the snapshot bytes deterministic.
// Cold path only.

// State codes the predictor table and attribution state.
func (p *ReadOnlyPredictor) State(c *snapshot.Codec) {
	if !c.Count(len(p.bits), "detectors: read-only predictor entries") {
		return
	}
	for i := range p.bits {
		c.Bool(&p.bits[i])
		c.Bool(&p.everMarked[i])
		c.U64(&p.clearedBy[i])
		c.Bool(&p.hasClear[i])
	}
}

// State codes the predictor table and training attribution.
func (p *StreamingPredictor) State(c *snapshot.Codec) {
	if !c.Count(len(p.bits), "detectors: streaming predictor entries") {
		return
	}
	for i := range p.bits {
		c.Bool(&p.bits[i])
		c.U64(&p.trainedBy[i])
		c.Bool(&p.hasTrain[i])
	}
}

// State codes the tracker file: every tracker slot verbatim (slot index is
// the allocation order tiebreaker, so layout is observable) plus the
// occupancy counters.
func (f *MATFile) State(c *snapshot.Codec) {
	if !c.Count(len(f.trackers), "detectors: MAT trackers") {
		return
	}
	for i := range f.trackers {
		tr := &f.trackers[i]
		c.Bool(&tr.inUse)
		c.U64(&tr.chunk)
		c.U64(&tr.blockBit)
		c.Bool(&tr.hadWrite)
		c.Int(&tr.accesses)
		c.U64(&tr.deadline)
		c.U64(&tr.hardDeadline)
	}
	c.U64(&f.Monitored)
	c.U64(&f.Skipped)
}

// State codes the buffered per-region tallies.
func (a *ReadOnlyAccuracy) State(c *snapshot.Codec) {
	snapshot.SortedMap(c, &a.regions, (*snapshot.Codec).U64, func(c *snapshot.Codec, t **roRegionTally) {
		if *t == nil {
			*t = new(roRegionTally)
		}
		c.Bool(&(*t).written)
		for p := range (*t).counts {
			for at := range (*t).counts[p] {
				c.U64(&(*t).counts[p][at])
			}
		}
	})
}

// State codes the buffered per-chunk tallies and the settled stats.
func (s *StreamingAccuracy) State(c *snapshot.Codec) {
	snapshot.SortedMap(c, &s.chunks, (*snapshot.Codec).U64, func(c *snapshot.Codec, t **streamChunkTally) {
		if *t == nil {
			*t = new(streamChunkTally)
		}
		c.U64(&(*t).blockBit)
		c.Int(&(*t).accesses)
		for p := range (*t).counts {
			for at := range (*t).counts[p] {
				for ro := range (*t).counts[p][at] {
					c.U64(&(*t).counts[p][at][ro])
				}
			}
		}
	})
	s.out.State(c)
}

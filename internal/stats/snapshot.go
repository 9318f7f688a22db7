package stats

import "shmgpu/internal/snapshot"

// Checkpoint/restore for the counter types. All cold path.

// State codes the per-class byte counters.
func (t *Traffic) State(c *snapshot.Codec) {
	for i := range t.ReadBytes {
		c.U64(&t.ReadBytes[i])
	}
	for i := range t.WriteBytes {
		c.U64(&t.WriteBytes[i])
	}
}

// State codes the cache counters.
func (s *CacheStats) State(c *snapshot.Codec) {
	for _, v := range []*uint64{&s.Hits, &s.Misses, &s.MSHRMerges, &s.Evictions, &s.Writebacks, &s.SectorFills} {
		c.U64(v)
	}
}

// State codes the outcome breakdown.
func (p *PredictorStats) State(c *snapshot.Codec) {
	for i := range p.Counts {
		c.U64(&p.Counts[i])
	}
}

// State codes every counter in sorted-name order. Zero-valued counters
// are included: the key set itself is observable through Snapshot, so it
// must survive the round trip exactly.
func (r *Registry) State(c *snapshot.Codec) {
	snapshot.SortedMap(c, &r.counters, (*snapshot.Codec).String, (*snapshot.Codec).U64)
}

package telemetry

import (
	"shmgpu/internal/snapshot"
	"shmgpu/internal/stats"
)

// Checkpoint/restore for the collector. A forked run must produce
// byte-identical telemetry artifacts (JSONL, timeline, histograms) to a
// from-scratch run, so the collector's position — sampled timeline,
// event trace, histogram contents, next-sample cycle — is part of the
// simulator state proper. The restore target must be a collector built by
// New with the identical (normalized) config. Cold path only.

func (h *Histogram) state(c *snapshot.Codec) {
	for i := range h.counts {
		c.U64(&h.counts[i])
	}
	c.U64(&h.n)
	c.U64(&h.sum)
	c.U64(&h.max)
}

func eventState(c *snapshot.Codec, ev *Event) {
	c.U64(&ev.Cycle)
	c.U8((*uint8)(&ev.Kind))
	c.U8(&ev.Class)
	c.I16(&ev.Part)
	c.I16(&ev.Unit)
	c.U64(&ev.Value)
	if c.Loading() && int(ev.Kind) >= NumEventKinds {
		c.Failf("telemetry: captured event of unknown kind %d", ev.Kind)
	}
}

func sampleState(c *snapshot.Codec, s *Snapshot) {
	c.U64(&s.Cycle)
	c.U64(&s.Instructions)
	s.Traffic.State(c)
	for _, cs := range []*stats.CacheStats{&s.L1, &s.L2, &s.Ctr, &s.MAC, &s.BMT} {
		cs.State(c)
	}
	c.Int(&s.DRAMPending)
	for i := range s.Events {
		c.U64(&s.Events[i])
	}
}

// State codes the collector's full state. Loading fails unless the
// snapshot's collector had this one's config (MaxEvents is compared
// post-normalization: New maps 0 to DefaultMaxEvents on both sides).
func (col *Collector) State(c *snapshot.Codec) {
	cfg := col.cfg
	c.U64(&cfg.SampleInterval)
	c.Bool(&cfg.CaptureEvents)
	c.Int(&cfg.MaxEvents)
	if cfg != col.cfg {
		c.Failf("telemetry: snapshot collector config %+v does not match target %+v", cfg, col.cfg)
		return
	}
	for i := range col.counts {
		c.U64(&col.counts[i])
	}
	for _, h := range []*Histogram{&col.DRAMQueueDepth, &col.DRAMServiceLatency, &col.MEEReadLatency,
		&col.UVMMigrationLatency, &col.UVMPrefetchBatch} {
		h.state(c)
	}
	snapshot.Slice(c, &col.events, eventState)
	c.U64(&col.dropped)
	c.U64(&col.timeline.Interval)
	snapshot.Slice(c, &col.timeline.Samples, sampleState)
	c.U64(&col.nextSampleAt)
	c.U64(&col.endCycle)
	c.Bool(&col.finished)
}

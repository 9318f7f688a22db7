package telemetry

import "shmgpu/internal/stats"

// Snapshot is one timeline sample: the cumulative aggregate counters of the
// whole simulated system at a cycle. Per-interval activity is recovered by
// differencing consecutive snapshots (see Timeline.Deltas).
type Snapshot struct {
	// Cycle is the sample timestamp.
	Cycle uint64
	// Instructions is the cumulative issued-instruction count.
	Instructions uint64
	// Traffic is the cumulative DRAM traffic by class, all partitions.
	Traffic stats.Traffic
	// L1, L2 and the three metadata caches, aggregated across instances.
	L1, L2, Ctr, MAC, BMT stats.CacheStats
	// DRAMPending is the instantaneous queued+in-flight DRAM request count
	// (a gauge, not differenced).
	DRAMPending int
	// Events is the cumulative per-kind probe event counter array.
	Events [NumEventKinds]uint64
}

// Timeline is the interval-sampled history of one run. Samples hold
// cumulative counters at ascending cycles.
type Timeline struct {
	// Interval is the sampling period in cycles.
	Interval uint64
	// Samples are the cumulative snapshots, first at cycle 0, then every
	// Interval cycles, then one final sample at the end of the run.
	Samples []Snapshot
}

// MaybeSample takes a timeline sample when the sampling interval has
// elapsed. The snapshot callback is only invoked when a sample is due, so
// the per-cycle cost is one comparison. snap fills the simulator-owned
// fields; the collector stamps Cycle and Events.
func (c *Collector) MaybeSample(now uint64, snap func() Snapshot) {
	if c == nil || c.cfg.SampleInterval == 0 || now < c.nextSampleAt {
		return
	}
	s := snap()
	s.Cycle = now
	s.Events = c.counts
	c.timeline.Samples = append(c.timeline.Samples, s) // one sample per SampleInterval, not per tick
	c.nextSampleAt = now + c.cfg.SampleInterval
}

// FinishRun records the final cycle and appends a terminal sample so runs
// shorter than one interval still produce a usable timeline. Idempotent.
func (c *Collector) FinishRun(now uint64, snap func() Snapshot) {
	if c == nil || c.finished {
		return
	}
	c.finished = true
	c.endCycle = now
	if c.cfg.SampleInterval == 0 {
		return
	}
	if n := len(c.timeline.Samples); n > 0 && c.timeline.Samples[n-1].Cycle >= now {
		return
	}
	s := snap()
	s.Cycle = now
	s.Events = c.counts
	c.timeline.Samples = append(c.timeline.Samples, s)
}

// Timeline returns the sampled timeline.
func (c *Collector) Timeline() Timeline {
	if c == nil {
		return Timeline{}
	}
	return c.timeline
}

// Deltas converts the cumulative samples into per-interval activity: entry
// i covers (Samples[i].Cycle, Samples[i+1].Cycle] and carries the counter
// differences, stamped with the interval-end cycle. Gauges (DRAMPending)
// keep their end-of-interval value. An empty or single-sample timeline
// yields no deltas.
func (t Timeline) Deltas() []Snapshot {
	if len(t.Samples) < 2 {
		return nil
	}
	out := make([]Snapshot, len(t.Samples)-1)
	for i := 1; i < len(t.Samples); i++ {
		prev, cur := t.Samples[i-1], t.Samples[i]
		d := Snapshot{
			Cycle:        cur.Cycle,
			Instructions: cur.Instructions - prev.Instructions,
			Traffic:      subTraffic(cur.Traffic, prev.Traffic),
			L1:           subCache(cur.L1, prev.L1),
			L2:           subCache(cur.L2, prev.L2),
			Ctr:          subCache(cur.Ctr, prev.Ctr),
			MAC:          subCache(cur.MAC, prev.MAC),
			BMT:          subCache(cur.BMT, prev.BMT),
			DRAMPending:  cur.DRAMPending,
		}
		for k := range d.Events {
			d.Events[k] = cur.Events[k] - prev.Events[k]
		}
		out[i-1] = d
	}
	return out
}

func subTraffic(a, b stats.Traffic) stats.Traffic {
	var out stats.Traffic
	for i := 0; i < stats.NumTrafficClasses; i++ {
		out.ReadBytes[i] = a.ReadBytes[i] - b.ReadBytes[i]
		out.WriteBytes[i] = a.WriteBytes[i] - b.WriteBytes[i]
	}
	return out
}

func subCache(a, b stats.CacheStats) stats.CacheStats {
	return stats.CacheStats{
		Hits:        a.Hits - b.Hits,
		Misses:      a.Misses - b.Misses,
		MSHRMerges:  a.MSHRMerges - b.MSHRMerges,
		Evictions:   a.Evictions - b.Evictions,
		Writebacks:  a.Writebacks - b.Writebacks,
		SectorFills: a.SectorFills - b.SectorFills,
	}
}

package cache

import (
	"shmgpu/internal/flatmap"
	"shmgpu/internal/memdef"
	"shmgpu/internal/snapshot"
)

// Checkpoint/restore. The restore target must already be a cache built by
// New with the identical configuration — the snapshot carries the config
// for validation only, never to reconstruct geometry. wbScratch is not
// serialized: its contents are only valid between a Write/Fill call and
// the caller consuming the returned slice, and no snapshot is ever taken
// inside that window. Cold path only.

// State codes the cache's mutable state. Loading fails on any
// configuration or geometry mismatch.
func (cc *Cache) State(c *snapshot.Codec) {
	cfg := cc.cfg
	c.String(&cfg.Name)
	c.Int(&cfg.SizeBytes)
	c.Int(&cfg.Ways)
	c.Int(&cfg.MSHRs)
	c.Int(&cfg.MaxMergesPerMSHR)
	if c.Loading() && c.Err() == nil && cfg != cc.cfg {
		c.Failf("cache %s: snapshot was taken with config %+v, this cache has %+v", cc.cfg.Name, cfg, cc.cfg)
	}
	if !c.Count(len(cc.lines), "cache "+cc.cfg.Name+": lines") {
		return
	}
	for i := range cc.lines {
		ln := &cc.lines[i]
		c.U64(&cc.keys[i])
		c.U8(&ln.valid)
		c.U8(&ln.dirty)
		c.U64(&ln.lru)
		if k := cc.keys[i]; c.Loading() && c.Err() == nil && k != 0 && int((k-1)&cc.setMask) != i/cc.ways {
			c.Failf("cache %s: way %d holds block %#x of another set", cc.cfg.Name, i, (k-1)*memdef.BlockSize)
		}
	}
	flatmap.MapState(c, &cc.mshrs, func(c *snapshot.Codec, m *mshr) {
		c.U8(&m.pending)
		c.Int(&m.merges)
	})
	c.U64(&cc.lruClock)
	cc.Stats.State(c)
}

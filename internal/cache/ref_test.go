package cache

import (
	"math/bits"

	"shmgpu/internal/flatmap"
	"shmgpu/internal/memdef"
	"shmgpu/internal/stats"
)

// refCache is the earlier cache layout, kept as the differential test's
// reference: every way carried its own tag, used flag and LRU stamp in one
// array of lines, lookups went through findLine, and a miss that installs
// a line rescanned the set in allocate. Its MSHR entries keep the earlier
// int merge count (refMSHR), so the differential test also covers the
// 2-byte mshr.
type refCache struct {
	cfg       Config
	lines     []refLine
	ways      int
	setMask   uint64
	mshrs     flatmap.Map[refMSHR]
	mshrCap   int
	lruClock  uint64
	wbScratch []Writeback
	Stats     stats.CacheStats
	OnEvict   func(blockAddr memdef.Addr, validMask uint8)
}

// refMSHR is the earlier 16-byte MSHR entry.
type refMSHR struct {
	pending uint8
	merges  int
}

type refLine struct {
	tag   uint64
	valid uint8
	dirty uint8
	lru   uint64
	used  bool
}

func newRef(cfg Config) *refCache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	blocks := cfg.SizeBytes / memdef.BlockSize
	return &refCache{
		cfg:     cfg,
		lines:   make([]refLine, blocks),
		ways:    cfg.Ways,
		setMask: uint64(blocks/cfg.Ways - 1),
		mshrs:   flatmap.NewMap[refMSHR](cfg.MSHRs),
		mshrCap: cfg.MSHRs,
	}
}

func (c *refCache) set(block memdef.Addr) []refLine {
	si := (uint64(block) / memdef.BlockSize) & c.setMask
	return c.lines[si*uint64(c.ways) : (si+1)*uint64(c.ways)]
}

func (c *refCache) findLine(block memdef.Addr) *refLine {
	set := c.set(block)
	tag := uint64(block) / memdef.BlockSize
	for i := range set {
		if set[i].used && set[i].tag == tag {
			return &set[i]
		}
	}
	return nil
}

func (c *refCache) Probe(addr memdef.Addr) bool {
	ln := c.findLine(memdef.BlockAddr(addr))
	return ln != nil && ln.valid&sectorBit(addr) != 0
}

func (c *refCache) Read(addr memdef.Addr) Outcome {
	block := memdef.BlockAddr(addr)
	bit := sectorBit(addr)
	if ln := c.findLine(block); ln != nil && ln.valid&bit != 0 {
		c.touch(ln)
		c.Stats.Hits++
		return Hit
	}
	if m := c.mshrs.Get(uint64(block)); m != nil {
		if m.pending&bit != 0 {
			if m.merges >= c.cfg.MaxMergesPerMSHR {
				return Blocked
			}
			m.merges++
			c.Stats.Misses++
			c.Stats.MSHRMerges++
			return MissMerged
		}
		m.pending |= bit
		c.Stats.Misses++
		return MissNew
	}
	if c.mshrs.Len() >= c.mshrCap {
		return Blocked
	}
	c.mshrs.Put(uint64(block)).pending = bit
	c.Stats.Misses++
	return MissNew
}

func (c *refCache) Write(addr memdef.Addr) (Outcome, []Writeback) {
	block := memdef.BlockAddr(addr)
	bit := sectorBit(addr)
	if ln := c.findLine(block); ln != nil {
		ln.valid |= bit
		ln.dirty |= bit
		c.touch(ln)
		c.Stats.Hits++
		return Hit, nil
	}
	ln, wb := c.allocate(block)
	ln.valid = bit
	ln.dirty = bit
	c.Stats.Misses++
	return MissNew, wb
}

func (c *refCache) Fill(addr memdef.Addr) (wb []Writeback, waiters int) {
	block := memdef.BlockAddr(addr)
	bit := sectorBit(addr)
	if m := c.mshrs.Get(uint64(block)); m != nil && m.pending&bit != 0 {
		waiters = 1 + m.merges
		m.pending &^= bit
		m.merges = 0
		if m.pending == 0 {
			c.mshrs.Delete(uint64(block))
		}
	}
	ln := c.findLine(block)
	if ln == nil {
		ln, wb = c.allocate(block)
	}
	ln.valid |= bit
	ln.dirty &^= bit
	c.touch(ln)
	c.Stats.SectorFills++
	return wb, waiters
}

func (c *refCache) allocate(block memdef.Addr) (*refLine, []Writeback) {
	set := c.set(block)
	victim := &set[0]
	for i := range set {
		if !set[i].used {
			victim = &set[i]
			break
		}
		if set[i].lru < victim.lru {
			victim = &set[i]
		}
	}
	var wb []Writeback
	if victim.used {
		c.Stats.Evictions++
		if c.OnEvict != nil && victim.valid != 0 {
			c.OnEvict(memdef.Addr(victim.tag*memdef.BlockSize), victim.valid)
		}
		if victim.dirty != 0 {
			c.Stats.Writebacks++
			c.wbScratch = append(c.wbScratch[:0], Writeback{
				BlockAddr:  memdef.Addr(victim.tag * memdef.BlockSize),
				SectorMask: victim.dirty,
			})
			wb = c.wbScratch
		}
	}
	victim.tag = uint64(block) / memdef.BlockSize
	victim.valid = 0
	victim.dirty = 0
	victim.used = true
	c.touch(victim)
	return victim, wb
}

func (c *refCache) touch(ln *refLine) {
	c.lruClock++
	ln.lru = c.lruClock
}

func (c *refCache) MSHRsInUse() int { return c.mshrs.Len() }

func (c *refCache) MSHRFull() bool { return c.mshrs.Len() >= c.mshrCap }

func (c *refCache) CleanInvalidate(addr memdef.Addr) {
	if ln := c.findLine(memdef.BlockAddr(addr)); ln != nil {
		bit := sectorBit(addr)
		ln.valid &^= bit
		ln.dirty &^= bit
		if ln.valid == 0 {
			ln.used = false
		}
	}
}

// FlushAll is only called with the MSHR file drained (the test harness
// fills every outstanding sector first), so the leak report is omitted.
func (c *refCache) FlushAll() []Writeback {
	var wbs []Writeback
	for i := range c.lines {
		ln := &c.lines[i]
		if ln.used && ln.dirty != 0 {
			c.Stats.Writebacks++
			wbs = append(wbs, Writeback{
				BlockAddr:  memdef.Addr(ln.tag * memdef.BlockSize),
				SectorMask: ln.dirty,
			})
		}
		*ln = refLine{}
	}
	return wbs
}

func (c *refCache) DirtySectorCount() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].used {
			n += bits.OnesCount8(c.lines[i].dirty)
		}
	}
	return n
}

func (c *refCache) ValidSectorCount() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].used {
			n += bits.OnesCount8(c.lines[i].valid)
		}
	}
	return n
}

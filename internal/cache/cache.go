// Package cache implements the set-associative sectored cache with an MSHR
// file that backs every cache in the simulator: the per-SM L1s, the L2 banks,
// and the three per-partition security-metadata caches (counter, MAC, BMT).
//
// The cache is a state machine only — it tracks tags, sector valid/dirty
// bits, LRU order, and outstanding misses — while all timing (latencies,
// queueing, bandwidth) is orchestrated by the caller. This keeps one
// well-tested implementation shared across very different timing contexts.
//
// Lines are memdef.BlockSize (128 B) with four 32 B sectors. Reads miss per
// sector and allocate MSHR entries; writes are full-sector writes (GPU
// coalescing guarantees this) and never fetch. Fills install sectors,
// allocating the line on first fill and evicting dirty sectors of the
// victim line as write-backs.
package cache

import (
	"fmt"
	"math"
	"math/bits"

	"shmgpu/internal/flatmap"
	"shmgpu/internal/invariant"
	"shmgpu/internal/memdef"
	"shmgpu/internal/stats"
)

// Config describes one cache instance.
type Config struct {
	// Name identifies the cache in stats and error messages.
	Name string
	// SizeBytes is the total capacity.
	SizeBytes int
	// Ways is the associativity.
	Ways int
	// MSHRs is the number of outstanding-miss registers (distinct blocks).
	MSHRs int
	// MaxMergesPerMSHR bounds requests merged into one MSHR entry
	// (paper: each L2 MSHR entry can merge 16 requests).
	MaxMergesPerMSHR int
}

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.SizeBytes%memdef.BlockSize != 0 {
		return fmt.Errorf("cache %s: size %d not a positive multiple of block size", c.Name, c.SizeBytes)
	}
	if c.SizeBytes > maxSizeBytes {
		return fmt.Errorf("cache %s: size %d exceeds %d", c.Name, c.SizeBytes, maxSizeBytes)
	}
	blocks := c.SizeBytes / memdef.BlockSize
	if c.Ways <= 0 || blocks%c.Ways != 0 {
		return fmt.Errorf("cache %s: %d blocks not divisible by %d ways", c.Name, blocks, c.Ways)
	}
	sets := blocks / c.Ways
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: set count %d not a power of two", c.Name, sets)
	}
	if c.MSHRs <= 0 || c.MSHRs > maxMSHRs {
		return fmt.Errorf("cache %s: MSHR count must be in [1, %d], got %d", c.Name, maxMSHRs, c.MSHRs)
	}
	if c.MaxMergesPerMSHR <= 0 || c.MaxMergesPerMSHR > maxMerges {
		return fmt.Errorf("cache %s: MaxMergesPerMSHR must be in [1, %d], got %d", c.Name, maxMerges, c.MaxMergesPerMSHR)
	}
	return nil
}

// Outcome is the result of a cache lookup.
type Outcome uint8

const (
	// Hit means the sector was present (read) or written in place.
	Hit Outcome = iota
	// MissNew means a new MSHR was allocated; the caller must issue a
	// fetch for the sector to the next level.
	MissNew
	// MissMerged means the sector is already being fetched; the request
	// was merged into the existing MSHR.
	MissMerged
	// Blocked means no MSHR (or merge slot) was available; the caller
	// must retry later. No state was changed.
	Blocked
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case MissNew:
		return "miss-new"
	case MissMerged:
		return "miss-merged"
	default:
		return "blocked"
	}
}

// Writeback is a dirty-sector eviction the caller must forward downstream.
type Writeback struct {
	// BlockAddr is the 128 B-aligned block address.
	BlockAddr memdef.Addr
	// SectorMask has bit i set if sector i is dirty and must be written.
	SectorMask uint8
}

// DirtySectors returns the number of dirty sectors in the writeback.
func (w Writeback) DirtySectors() int { return bits.OnesCount8(w.SectorMask) }

// line is one way's per-line state. Its tag and occupancy live in
// Cache.keys, which a lookup scans; line is read only for the way found.
type line struct {
	lru   uint64
	valid uint8 // per-sector valid bits
	dirty uint8 // per-sector dirty bits
}

// mshr tracks one block's outstanding sector fetches. Entries live in an
// open-addressed table keyed by block address, so allocating and retiring
// an MSHR never touches the heap. The entry is 2 bytes, so a table slot
// (key, used flag, entry) is 16 bytes; TestMSHRLayout pins both.
type mshr struct {
	// pending has bit i set while sector i is being fetched.
	pending uint8
	// merges never exceeds MaxMergesPerMSHR, which Validate bounds by
	// maxMerges.
	merges uint8
}

// maxMerges bounds MaxMergesPerMSHR by what mshr.merges holds.
const maxMerges = math.MaxUint8

// Upper bounds on the sizes New allocates up front, so a config naming an
// absurd size is an error instead of a cell that exhausts memory. Each is
// at least 8× the largest default that reaches it: the 128 KiB L2 bank and
// the metadata caches' 256 MSHRs.
const (
	maxSizeBytes = 16 << 20
	maxMSHRs     = 4096
)

// Cache is one sectored cache instance. Create with New; the zero value is
// not usable.
type Cache struct {
	cfg Config
	// keys holds each way's block tag plus one, 0 for a free way, numSets ×
	// Ways row-major. It is the authoritative tag and occupancy array: a
	// set's keys are contiguous (8 ways fill one 64-byte host cache line),
	// so a lookup reads one cache line and touches lines only for the way
	// it finds or claims.
	keys     []uint64
	lines    []line // per-way state, indexed like keys
	ways     int
	setMask  uint64
	mshrs    flatmap.Map[mshr]
	mshrCap  int
	lruClock uint64
	// wbScratch backs the Writeback slices returned by Write and Fill, and
	// flushBuf the one FlushAll returns; see the validity notes on those
	// methods.
	wbScratch []Writeback
	flushBuf  []Writeback
	// Stats is the access-counter block for this cache.
	Stats stats.CacheStats
	// OnEvict, when set, observes every line eviction with the evicted
	// block address and its valid-sector mask (dirty sectors are
	// additionally returned as Writebacks to the caller). Victim-cache
	// schemes hook this to capture clean evictions.
	OnEvict func(blockAddr memdef.Addr, validMask uint8)
}

// New builds a cache from cfg, panicking on invalid configuration (configs
// are compile-time constants in this codebase, so misconfiguration is a
// programming error).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	blocks := cfg.SizeBytes / memdef.BlockSize
	numSets := blocks / cfg.Ways
	return &Cache{
		cfg:     cfg,
		keys:    make([]uint64, blocks),
		lines:   make([]line, blocks),
		ways:    cfg.Ways,
		setMask: uint64(numSets - 1),
		mshrs:   flatmap.NewMap[mshr](cfg.MSHRs),
		mshrCap: cfg.MSHRs,
	}
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// keyOf returns the keys entry of block: its tag plus one, so 0 is free.
func keyOf(block memdef.Addr) uint64 { return uint64(block)/memdef.BlockSize + 1 }

// setBase returns the index in keys and lines of way 0 of block's set.
func (c *Cache) setBase(block memdef.Addr) int {
	return int((uint64(block)/memdef.BlockSize)&c.setMask) * c.ways
}

// find returns the index of the way holding block, or -1.
func (c *Cache) find(block memdef.Addr) int {
	base, key := c.setBase(block), keyOf(block)
	for i, k := range c.keys[base : base+c.ways] {
		if k == key {
			return base + i
		}
	}
	return -1
}

// wayFor scans block's set once and returns the way holding it (hit), or
// else the way allocation claims: the first free way, or with none free the
// first least-recently-used way. Only that last case reads the LRU stamps.
func (c *Cache) wayFor(block memdef.Addr) (way int, hit bool) {
	base, key := c.setBase(block), keyOf(block)
	free := -1
	for i, k := range c.keys[base : base+c.ways] {
		if k == key {
			return base + i, true
		}
		if k == 0 && free < 0 {
			free = base + i
		}
	}
	if free >= 0 {
		return free, false
	}
	victim := base
	for i := base + 1; i < base+c.ways; i++ {
		if c.lines[i].lru < c.lines[victim].lru {
			victim = i
		}
	}
	return victim, false
}

func sectorBit(addr memdef.Addr) uint8 {
	return 1 << uint(memdef.SectorInBlock(addr))
}

// Probe reports whether the sector containing addr is present, without
// touching LRU state or stats.
func (c *Cache) Probe(addr memdef.Addr) bool {
	w := c.find(memdef.BlockAddr(addr))
	return w >= 0 && c.lines[w].valid&sectorBit(addr) != 0
}

// Read looks up the sector containing addr. On MissNew the caller must issue
// a downstream fetch for the sector and later call Fill. On MissMerged the
// in-flight fetch will satisfy this request too. On Blocked nothing changed.
func (c *Cache) Read(addr memdef.Addr) Outcome {
	block := memdef.BlockAddr(addr)
	bit := sectorBit(addr)
	if w := c.find(block); w >= 0 && c.lines[w].valid&bit != 0 {
		c.touch(&c.lines[w])
		c.Stats.Hits++
		return Hit
	}
	if m := c.mshrs.Get(uint64(block)); m != nil {
		if m.pending&bit != 0 {
			if int(m.merges) >= c.cfg.MaxMergesPerMSHR {
				return Blocked
			}
			m.merges++
			c.Stats.Misses++
			c.Stats.MSHRMerges++
			return MissMerged
		}
		// Same block, different sector: reuse the entry.
		m.pending |= bit
		c.Stats.Misses++
		return MissNew
	}
	if c.mshrs.Len() >= c.mshrCap {
		return Blocked
	}
	c.mshrs.Put(uint64(block)).pending = bit
	if invariant.Enabled() && c.mshrs.Len() > c.mshrCap {
		invariant.Failf("mshr-occupancy", "cache "+c.cfg.Name, 0,
			"%d MSHRs allocated, capacity %d (block %#x)", c.mshrs.Len(), c.mshrCap, uint64(block))
	}
	c.Stats.Misses++
	return MissNew
}

// Write stores a full sector. GPU write-backs arrive as complete 32 B
// sectors, so no fetch-on-write is needed: a write miss allocates the line
// (possibly evicting) and marks the sector valid+dirty. Any dirty sectors of
// the evicted victim are returned for the caller to forward downstream.
// Write never blocks.
//
// The returned Writeback slice aliases a per-cache scratch buffer and is
// valid only until the next Write or Fill on this cache; callers must
// consume it before touching the cache again (all callers forward it
// immediately).
func (c *Cache) Write(addr memdef.Addr) (Outcome, []Writeback) {
	block := memdef.BlockAddr(addr)
	bit := sectorBit(addr)
	w, hit := c.wayFor(block)
	ln := &c.lines[w]
	if hit {
		ln.valid |= bit
		ln.dirty |= bit
		c.touch(ln)
		c.Stats.Hits++
		return Hit, nil
	}
	wb := c.claim(w, block)
	ln.valid = bit
	ln.dirty = bit
	c.Stats.Misses++
	return MissNew, wb
}

// Fill installs a fetched sector and returns any eviction caused by line
// allocation plus the number of merged requesters waiting on the sector
// (at least 1: the original MissNew requester). Fill for a sector with no
// outstanding MSHR installs the sector anyway and reports 0 waiters —
// callers use this for prefetch-like installs (e.g. victim-cache pushes).
//
// Like Write, the returned Writeback slice aliases the cache's scratch
// buffer and is valid only until the next Write or Fill on this cache.
func (c *Cache) Fill(addr memdef.Addr) (wb []Writeback, waiters int) {
	block := memdef.BlockAddr(addr)
	bit := sectorBit(addr)
	waiters = 0
	if m := c.mshrs.Get(uint64(block)); m != nil && m.pending&bit != 0 {
		waiters = 1 + int(m.merges)
		m.pending &^= bit
		m.merges = 0
		if m.pending == 0 {
			c.mshrs.Delete(uint64(block))
		}
	}
	w, hit := c.wayFor(block)
	if !hit {
		wb = c.claim(w, block)
	}
	ln := &c.lines[w]
	ln.valid |= bit
	ln.dirty &^= bit
	c.touch(ln)
	c.Stats.SectorFills++
	return wb, waiters
}

// claim evicts whatever way w holds and installs block there with no valid
// sectors. Victim dirty sectors become write-backs.
func (c *Cache) claim(w int, block memdef.Addr) []Writeback {
	ln := &c.lines[w]
	var wb []Writeback
	if old := c.keys[w]; old != 0 {
		victim := memdef.Addr((old - 1) * memdef.BlockSize)
		c.Stats.Evictions++
		if c.OnEvict != nil && ln.valid != 0 {
			c.OnEvict(victim, ln.valid)
		}
		if ln.dirty != 0 {
			c.Stats.Writebacks++
			c.wbScratch = append(c.wbScratch[:0], Writeback{ // single-entry scratch: capacity 1 after the first dirty eviction
				BlockAddr:  victim,
				SectorMask: ln.dirty,
			})
			wb = c.wbScratch
		}
	}
	c.keys[w] = keyOf(block)
	ln.valid = 0
	ln.dirty = 0
	c.touch(ln)
	return wb
}

func (c *Cache) touch(ln *line) {
	c.lruClock++
	ln.lru = c.lruClock
}

// MSHRsInUse returns the number of allocated MSHR entries.
func (c *Cache) MSHRsInUse() int { return c.mshrs.Len() }

// MSHRFull reports whether a new-block miss would be Blocked right now.
func (c *Cache) MSHRFull() bool { return c.mshrs.Len() >= c.mshrCap }

// CleanInvalidate drops the sector containing addr if present, without
// writing back. Used when a downstream owner revokes a cached copy.
func (c *Cache) CleanInvalidate(addr memdef.Addr) {
	if w := c.find(memdef.BlockAddr(addr)); w >= 0 {
		bit := sectorBit(addr)
		ln := &c.lines[w]
		ln.valid &^= bit
		ln.dirty &^= bit
		if ln.valid == 0 {
			c.keys[w] = 0
		}
	}
}

// FlushAll writes back every dirty sector and invalidates the whole cache.
// Used at kernel boundaries. Outstanding MSHRs must be drained by the caller
// before flushing; flushing under outstanding misses is a cycle-model bug
// (a leaked fetch), reported as an invariant violation with the offending
// block addresses.
//
// The returned slice aliases a buffer the cache owns and keeps across
// flushes. Unlike the Write and Fill results it survives later Write, Fill
// and Read calls, so a caller may consume it over many cycles, but it is
// valid only until the next FlushAll on this cache. It is nil when no
// sector was dirty.
func (c *Cache) FlushAll() []Writeback {
	if c.mshrs.Len() != 0 {
		// Reduce to the order-insensitive minimum for a deterministic
		// representative of the leaked MSHR set.
		first := memdef.Addr(^uint64(0))
		c.mshrs.Range(func(b uint64, _ *mshr) bool {
			if memdef.Addr(b) < first {
				first = memdef.Addr(b)
			}
			return true
		})
		invariant.Failf("mshr-drain", "cache "+c.cfg.Name, 0,
			"FlushAll with %d outstanding MSHRs (first leaked block %#x)",
			c.mshrs.Len(), uint64(first))
	}
	wbs := c.flushBuf[:0]
	for i, k := range c.keys {
		if k != 0 && c.lines[i].dirty != 0 {
			c.Stats.Writebacks++
			wbs = append(wbs, Writeback{
				BlockAddr:  memdef.Addr((k - 1) * memdef.BlockSize),
				SectorMask: c.lines[i].dirty,
			})
		}
	}
	clear(c.keys)
	clear(c.lines)
	c.flushBuf = wbs
	if len(wbs) == 0 {
		return nil
	}
	return wbs
}

// DirtySectorCount returns the number of dirty sectors currently held,
// mostly for tests and occupancy stats.
func (c *Cache) DirtySectorCount() int {
	n := 0
	for i, k := range c.keys {
		if k != 0 {
			n += bits.OnesCount8(c.lines[i].dirty)
		}
	}
	return n
}

// ValidSectorCount returns the number of valid sectors currently held.
func (c *Cache) ValidSectorCount() int {
	n := 0
	for i, k := range c.keys {
		if k != 0 {
			n += bits.OnesCount8(c.lines[i].valid)
		}
	}
	return n
}

// Package hostmem models a host-backed memory tier behind a
// page-granularity demand-migration boundary (UVM-style). The GPU side
// owns a fixed number of device page frames; accesses to non-resident
// pages fault, start a PCIe-modeled migration, and are retried by the
// requester until the page arrives (AMD XNACK retry-on-fault). When the
// working set exceeds the frame budget the least recently used page is
// evicted, with dirty pages paying a writeback transfer. Under a secure
// design every fault-in pays the metadata rebuild cost (MetaCycles): the
// tier trusts only device memory, so security metadata is torn down on
// eviction and re-established when the page returns. A design without
// metadata sets MetaCycles to 0 and pays only the link. A page that lands
// for a waiting access is held out of eviction until an access touches
// it, so every demand migration serves the access that caused it.
//
// On top of demand paging the tier runs an optional migration-ahead
// engine. A demand fault can trigger prefetches: PrefetchStride detects
// per-fault-stream strides in a small table and fetches ahead along the
// stride; PrefetchStream asks the embedding layer (via Classify) whether
// the faulting page is classified streaming by the paper's detector and,
// if so, bulk-fetches the next sequential pages and marks the whole run
// for eager eviction — streamed-through pages are spent and go first.
// Adjacent prefetched pages coalesce with the demand page into one
// batched PCIe transaction: the link transfers the batch back to back,
// and the one-way latency plus the metadata re-establishment cost are
// paid once per batch instead of once per page. With no prefetch policy
// the fault path is byte-for-byte the demand-only protocol, and at a
// frame budget covering the working set no faults ever occur, so no
// fault streams form and the prefetcher is provably idle.
//
// The tier is deliberately engine-agnostic: it knows nothing about SMs,
// crossbars, or the MEE. The embedding layer drives it through three
// calls — Access on every admission attempt, Tick once per cycle, and
// NextEvent for the fast-forward horizon — and observes migrations via
// the OnFaultIn/OnEvict/OnPrefetch callbacks (metadata
// teardown/re-establishment and telemetry live there) plus the Classify
// hook feeding the stream policy. All state is preallocated at
// construction; the per-cycle path performs no heap allocation.
package hostmem

import "fmt"

// Prefetch selects the migration-ahead policy.
type Prefetch uint8

const (
	// PrefetchNone keeps the tier purely demand-driven.
	PrefetchNone Prefetch = iota
	// PrefetchStride detects sequential strides across the demand-fault
	// stream and migrates ahead along a confirmed stride.
	PrefetchStride
	// PrefetchStream consults the embedding layer's streaming
	// classification (the paper's detector, via Classify): faults on
	// streaming-classified pages bulk-fetch the next sequential pages
	// and mark the run for eager eviction.
	PrefetchStream
)

// ParsePrefetch maps a config string to a Prefetch policy. The empty
// string means the default (none).
func ParsePrefetch(s string) (Prefetch, error) {
	switch s {
	case "", "none":
		return PrefetchNone, nil
	case "stride":
		return PrefetchStride, nil
	case "stream":
		return PrefetchStream, nil
	}
	return PrefetchNone, fmt.Errorf("hostmem: unknown prefetch policy %q", s)
}

func (p Prefetch) String() string {
	switch p {
	case PrefetchStride:
		return "stride"
	case PrefetchStream:
		return "stream"
	}
	return "none"
}

// Default timing parameters. PCIe numbers approximate a Gen3 x16 link
// relative to the simulator's GPU core clock: ~600 cycles one-way
// latency and 16 B/cycle of migration bandwidth.
const (
	DefaultPageBytes         = 64 << 10
	DefaultPCIeLatency       = 600
	DefaultPCIeBytesPerCycle = 16
	DefaultMaxInflight       = 16
	DefaultThrashWindow      = 4096
	// Metadata re-establishment cost per fault-in: a full BMT/counter
	// rebuild walks the page's counter and MAC blocks.
	DefaultRebuildCycles = 256
	// Migration-ahead defaults: how many pages a confirmed stream
	// fetches ahead, and how many adjacent pages coalesce into one
	// batched PCIe transaction.
	DefaultPrefetchDegree = 8
	DefaultBatchPages     = 8
)

// Fault-stream stride detection: a small LRU table of recent demand
// fault streams. A stream forms when the same stride is observed twice
// in a row (streamMinConfidence); strides beyond streamMaxStride pages
// are treated as unrelated faults.
const (
	streamTableSize     = 8
	streamMaxStride     = 64
	streamMinConfidence = 2
)

// Config parameterizes a Tier. Zero values take the package defaults,
// except Frames which must be set explicitly (the embedding layer
// derives it from the oversubscription ratio) and MetaCycles, where 0
// means the design has no metadata to rebuild. The simulator sets only
// PageBytes, Frames, MetaCycles and Prefetch; the other fields let unit
// tests build small scenarios.
type Config struct {
	PageBytes         uint64
	Frames            int    // device page frames available to this tier
	PCIeLatency       uint64 // one-way link latency, cycles
	PCIeBytesPerCycle uint64 // migration bandwidth
	MetaCycles        uint64 // per-batch metadata rebuild cost; 0 = no metadata
	MaxInflight       int    // migration ring capacity (batches)
	ThrashWindow      uint64 // eviction younger than this counts as thrash

	// Prefetch selects the migration-ahead policy; PrefetchDegree is
	// how many pages one trigger fetches ahead (0 = default when a
	// policy is set). BatchPages caps how many adjacent pages coalesce
	// into one PCIe transaction (0 = default when a policy is set, 1
	// otherwise; batching only forms around prefetches, so demand-only
	// tiers always transfer single pages). Batches complete page by
	// page as the transfer streams in, so the leading demand page never
	// waits on its prefetch tail.
	Prefetch       Prefetch
	PrefetchDegree int
	BatchPages     int
}

func (c *Config) applyDefaults() {
	if c.PageBytes == 0 {
		c.PageBytes = DefaultPageBytes
	}
	if c.PCIeLatency == 0 {
		c.PCIeLatency = DefaultPCIeLatency
	}
	if c.PCIeBytesPerCycle == 0 {
		c.PCIeBytesPerCycle = DefaultPCIeBytesPerCycle
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = DefaultMaxInflight
	}
	if c.ThrashWindow == 0 {
		c.ThrashWindow = DefaultThrashWindow
	}
	if c.PrefetchDegree <= 0 && c.Prefetch != PrefetchNone {
		c.PrefetchDegree = DefaultPrefetchDegree
	}
	if c.BatchPages <= 0 {
		if c.Prefetch != PrefetchNone {
			c.BatchPages = DefaultBatchPages
		} else {
			c.BatchPages = 1
		}
	}
}

// Validate rejects configurations the tier cannot run.
func (c Config) Validate() error {
	if c.PageBytes != 0 && c.PageBytes&(c.PageBytes-1) != 0 {
		return fmt.Errorf("hostmem: PageBytes %d is not a power of two", c.PageBytes)
	}
	if c.Frames < 0 {
		return fmt.Errorf("hostmem: negative Frames %d", c.Frames)
	}
	return nil
}

// Stats counts tier activity since construction (or load).
type Stats struct {
	Faults          uint64 // demand migrations started
	Replays         uint64 // retried accesses to a faulted/busy page
	MigrationsIn    uint64 // pages migrated in (demand + prefetch)
	Evictions       uint64
	WritebacksDirty uint64
	WritebacksClean uint64
	Thrash          uint64 // evictions within ThrashWindow of admission
	BytesIn         uint64
	BytesOut        uint64
	MetaCycles      uint64 // cumulative metadata re-establishment cycles
	Prefetches      uint64 // pages migrated ahead of demand
	PrefUseful      uint64 // prefetched pages touched after arrival
	PrefLate        uint64 // prefetched pages demanded while in flight
	PrefUseless     uint64 // prefetched pages evicted untouched
	Batches         uint64 // multi-page coalesced PCIe transactions
}

// AccessResult classifies one admission attempt.
type AccessResult uint8

const (
	// Admit: page resident (or untracked); the access proceeds.
	Admit AccessResult = iota
	// Fault: page was host-resident; a migration just started. The
	// access must be retried (pause-and-replay).
	Fault
	// Stall: page is migrating, or the migration ring is full. The
	// access must be retried.
	Stall
)

type pageState uint8

const (
	pageHost pageState = iota
	pageMigrating
	// pageLanded: resident, but an access is waiting to replay on it (a
	// demand fault or a late prefetch). The page stays out of the victim
	// heap until an access touches it, so a fault always makes progress:
	// without the hold, another requester's fault in the landing cycle
	// could evict the page before its own faulting access replays, and
	// on a tight frame budget two pages could swap back and forth while
	// one of them is never used.
	pageLanded
	pageResident
)

// Prefetch accounting state per page (accuracy/coverage counters).
type prefState uint8

const (
	pfNone     prefState = iota
	pfInflight           // prefetch issued, migration in flight
	pfArrived            // prefetched page resident, not yet touched
)

// migration is one in-flight PCIe transaction: a contiguous run of pages
// starting at page. The link transfers the run back to back and the
// one-way latency plus MetaCycles are paid once for the whole batch.
type migration struct {
	page    int
	pages   int
	eager   bool   // stream-classified: evict eagerly once resident
	faultAt uint64 // cycle the trigger fault was taken
	ready   uint64 // cycle the whole batch becomes resident
}

// Normal LRU stamps live above eagerStampBase; eager (streamed)
// pages are stamped from a counter starting at 1, so the victim heap
// drains spent streaming pages in fetch order before touching the LRU
// order of everything else.
const eagerStampBase = uint64(1) << 63

// faultStream is one entry of the stride-detection table.
type faultStream struct {
	last   int32
	stride int32
	conf   uint8
	used   uint64 // streamSeq at last update; 0 = empty slot
}

// Tier tracks page residency for one contiguous working set starting at
// address 0 (the simulator places all workload buffers there). Pages at
// or beyond the working set are untracked and always admit.
type Tier struct {
	cfg      Config
	numPages int

	state   []pageState
	dirty   []bool
	stamp   []uint64 // last-access seq
	admitAt []uint64 // admission cycle, for thrash detection
	eager   []bool   // stream-classified: stamped low, never promoted
	pstate  []prefState

	// Victim min-heap over resident pages keyed by hkey. Keys go stale
	// when an LRU touch bumps a stamp (the touch itself stays O(1));
	// pop re-keys stale roots lazily, so eviction is amortized O(log n)
	// and still returns the exact min-stamp victim: stamps only grow
	// after a page is pushed, so every node's true stamp bounds its
	// heap key from above and a clean root is a global minimum.
	heap    []int32
	hkey    []uint64
	heapLen int

	seq       uint64 // monotonic access sequence (cycle-tie-free LRU)
	eagerSeq  uint64 // stamp source for eager pages, below eagerStampBase
	streamSeq uint64 // LRU clock for the stride table
	streams   [streamTableSize]faultStream

	ring      []migration
	ringHead  int
	ringLen   int
	inflight  int    // pages across all in-flight batches
	busyUntil uint64 // PCIe link serialization point
	resident  int

	stats Stats

	// OnFaultIn fires per page when a migration completes (page now
	// resident); latency is fault-to-ready in cycles. OnEvict fires
	// when a victim is dropped to the host tier; thrash marks an
	// eviction within ThrashWindow of the victim's admission.
	// OnPrefetch fires once per migration batch that carries prefetched
	// pages, with the batch's first page and total size. Classify, used
	// by PrefetchStream, reports whether a page is currently classified
	// streaming. All may be nil. Bound once before the run; never
	// called concurrently.
	OnFaultIn  func(page int, latency uint64)
	OnEvict    func(page int, dirty, thrash bool)
	OnPrefetch func(page, pages int)
	Classify   func(page int) bool
}

// New builds a tier covering workingSetBytes. Frames ≥ the page count
// means the working set fits: every page is prepopulated resident and
// the tier never faults, so behaviour is byte-identical to no tier at
// all (the migration-equivalence property) — and since prefetches only
// trigger on faults, every prefetch policy is equally invisible.
func New(cfg Config, workingSetBytes uint64) (*Tier, error) {
	cfg.applyDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if workingSetBytes == 0 {
		workingSetBytes = cfg.PageBytes
	}
	numPages := int((workingSetBytes + cfg.PageBytes - 1) / cfg.PageBytes)
	if numPages < 1 {
		numPages = 1
	}
	if cfg.Frames < 1 {
		cfg.Frames = 1
	}
	if cfg.Frames > numPages {
		cfg.Frames = numPages
	}
	t := &Tier{
		cfg:      cfg,
		numPages: numPages,
		state:    make([]pageState, numPages),
		dirty:    make([]bool, numPages),
		stamp:    make([]uint64, numPages),
		admitAt:  make([]uint64, numPages),
		eager:    make([]bool, numPages),
		pstate:   make([]prefState, numPages),
		heap:     make([]int32, numPages),
		hkey:     make([]uint64, numPages),
		ring:     make([]migration, cfg.MaxInflight),
		seq:      eagerStampBase,
		eagerSeq: 1,
	}
	// Initial placement: the host→device setup copy fills the frame
	// budget in page order before the run starts, so only the overflow
	// demand-migrates. Placement is free (no stats): when the working
	// set fits (Frames == numPages) the tier never faults and is
	// indistinguishable from tier-off (the migration-equivalence
	// property).
	for p := 0; p < cfg.Frames; p++ {
		t.state[p] = pageResident
		t.stamp[p] = t.seq
		t.seq++
		t.heapPush(p)
	}
	t.resident = cfg.Frames
	return t, nil
}

// NumPages reports the tracked page count.
func (t *Tier) NumPages() int { return t.numPages }

// Resident reports how many tracked pages are device-resident.
func (t *Tier) Resident() int { return t.resident }

// Stats returns a copy of the activity counters.
func (t *Tier) Stats() Stats { return t.stats }

// InflightMigrations reports how many migration batches are in flight.
func (t *Tier) InflightMigrations() int { return t.ringLen }

// PageRange returns the [lo, hi) address span of a tracked page.
func (t *Tier) PageRange(page int) (lo, hi uint64) {
	lo = uint64(page) * t.cfg.PageBytes
	return lo, lo + t.cfg.PageBytes
}

// IsResident reports whether a page is device-resident (untracked pages
// count as resident).
func (t *Tier) IsResident(page int) bool {
	if page < 0 || page >= t.numPages {
		return true
	}
	return t.state[page] >= pageLanded
}

// heapPush adds a newly resident page to the victim heap, keyed by its
// current stamp.
func (t *Tier) heapPush(page int) {
	t.hkey[page] = t.stamp[page]
	i := t.heapLen
	t.heap[i] = int32(page)
	t.heapLen++
	for i > 0 {
		parent := (i - 1) / 2
		if t.hkey[t.heap[parent]] <= t.hkey[t.heap[i]] {
			break
		}
		t.heap[parent], t.heap[i] = t.heap[i], t.heap[parent]
		i = parent
	}
}

// heapSiftDown restores the heap property below slot i.
func (t *Tier) heapSiftDown(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < t.heapLen && t.hkey[t.heap[l]] < t.hkey[t.heap[min]] {
			min = l
		}
		if r < t.heapLen && t.hkey[t.heap[r]] < t.hkey[t.heap[min]] {
			min = r
		}
		if min == i {
			return
		}
		t.heap[min], t.heap[i] = t.heap[i], t.heap[min]
		i = min
	}
}

// heapPop removes and returns the resident page with the smallest
// current stamp, or -1 when the heap is empty. Stale roots (pages whose
// stamp grew since they were keyed) are re-keyed and re-sifted before a
// winner is declared.
func (t *Tier) heapPop() int {
	for t.heapLen > 0 {
		root := int(t.heap[0])
		if t.hkey[root] != t.stamp[root] {
			t.hkey[root] = t.stamp[root]
			t.heapSiftDown(0)
			continue
		}
		t.heapLen--
		t.heap[0] = t.heap[t.heapLen]
		t.heapSiftDown(0)
		return root
	}
	return -1
}

// Access attempts to admit one memory access at cycle now. Admit means
// the access proceeds; Fault/Stall mean the requester must hold the
// access at the head of its queue and retry next cycle. A demand fault
// is also the prefetcher's trigger point: confirmed streams extend the
// fault into a batched migration of the pages ahead.
func (t *Tier) Access(addr uint64, write bool, now uint64) AccessResult {
	page := int(addr / t.cfg.PageBytes)
	if page >= t.numPages {
		return Admit
	}
	switch t.state[page] {
	case pageLanded, pageResident:
		// Eager (streamed) pages keep their low stamp: re-touches on
		// the way through must not promote them past the LRU order of
		// the pages that will be reused.
		if !t.eager[page] {
			t.stamp[page] = t.seq
			t.seq++
		}
		if t.state[page] == pageLanded {
			t.state[page] = pageResident
			t.heapPush(page)
		}
		if t.pstate[page] == pfArrived {
			t.pstate[page] = pfNone
			t.stats.PrefUseful++
		}
		if write {
			t.dirty[page] = true
		}
		return Admit
	case pageMigrating:
		t.stats.Replays++
		if t.pstate[page] == pfInflight {
			// Demanded before arrival: the prefetch was late. It still
			// converts to an ordinary (partially hidden) fault, so it
			// leaves the accuracy accounting here.
			t.pstate[page] = pfNone
			t.stats.PrefLate++
		}
		return Stall
	}
	// Host-resident: take the fault if a migration slot is free.
	if t.ringLen == t.cfg.MaxInflight {
		t.stats.Replays++
		return Stall
	}
	if t.resident+t.inflight >= t.cfg.Frames && !t.evictOne(now) {
		// Every frame is reserved by an in-flight migration or held by a
		// landed page.
		t.stats.Replays++
		return Stall
	}
	t.stats.Faults++
	t.stats.BytesIn += t.cfg.PageBytes
	t.state[page] = pageMigrating
	// The demand page's frame reservation counts from this point, so the
	// prefetch candidates evaluated below see it and cannot overcommit
	// the frame budget.
	t.inflight++

	// Migration-ahead: decide how far past the demand page to fetch.
	stride, degree, eager := t.prefetchPlan(page)

	// Coalesce sequential prefetches into the demand batch (one PCIe
	// transaction; latency and metadata paid once). The batch completes
	// incrementally — the demand page leads the transfer and becomes
	// resident after its own slice, never waiting on its prefetch tail.
	m := migration{page: page, pages: 1, eager: eager, faultAt: now}
	if stride == 1 {
		for next := page + 1; degree > 0 && m.pages < t.cfg.BatchPages; next++ {
			if !t.prefetchPage(next, now) {
				break
			}
			m.pages++
			degree--
		}
	}
	t.appendMigration(m, now)

	// Non-unit strides are not adjacent, so each prefetched page is its
	// own link transaction (still pipelined behind the demand batch).
	if stride != 0 && stride != 1 {
		for i := 1; i <= degree && t.ringLen < t.cfg.MaxInflight; i++ {
			q := page + i*stride
			if !t.prefetchPage(q, now) {
				continue
			}
			t.appendMigration(migration{page: q, pages: 1, eager: eager, faultAt: now}, now)
		}
	}
	return Fault
}

// Blocked reports whether Access(addr, ...) would return Stall and change
// nothing but Stats.Replays, at this cycle and every later one until Tick
// lands a page (NextEvent) or another Access mutates the tier. That holds
// for a migrating page whose late-prefetch accounting is settled, and for
// a host page that cannot start a migration: the ring is full, or every
// frame is reserved by an in-flight migration or held by a landed page
// (pageLanded), so no page is evictable.
// A migrating page still marked pfInflight is not blocked — its first
// stall flips the prefetch to late. The fast-forward horizon uses this to
// skip a blocked requester's replays and charge them with ChargeReplays.
func (t *Tier) Blocked(addr uint64) bool {
	page := int(addr / t.cfg.PageBytes)
	if page >= t.numPages {
		return false
	}
	switch t.state[page] {
	case pageLanded, pageResident:
		return false
	case pageMigrating:
		return t.pstate[page] != pfInflight
	}
	return t.ringLen == t.cfg.MaxInflight ||
		t.resident+t.inflight >= t.cfg.Frames && t.heapLen == 0
}

// ChargeReplays counts n replays of blocked accesses that the embedding
// layer skipped instead of calling Access for each (see Blocked).
func (t *Tier) ChargeReplays(n uint64) { t.stats.Replays += n }

// prefetchPlan maps a demand fault to a (stride, degree, eager) fetch
// plan. Degree 0 means no prefetching.
func (t *Tier) prefetchPlan(page int) (stride, degree int, eager bool) {
	switch t.cfg.Prefetch {
	case PrefetchStride:
		if s, ok := t.strideObserve(page); ok {
			return s, t.cfg.PrefetchDegree, false
		}
	case PrefetchStream:
		if t.Classify != nil && t.Classify(page) {
			return 1, t.cfg.PrefetchDegree, true
		}
	}
	return 0, 0, false
}

// strideObserve feeds one demand fault to the stride table and reports
// the confirmed stride, if any. Streams are confirmed after
// streamMinConfidence consecutive matching deltas and torn down by LRU
// replacement once their faults stop matching.
func (t *Tier) strideObserve(page int) (int, bool) {
	t.streamSeq++
	// Continuation of a tracked stream?
	for i := range t.streams {
		s := &t.streams[i]
		if s.used == 0 || s.stride == 0 {
			continue
		}
		if int(s.last)+int(s.stride) == page {
			s.last = int32(page)
			s.used = t.streamSeq
			if s.conf < streamMinConfidence {
				s.conf++
			}
			return int(s.stride), s.conf >= streamMinConfidence
		}
	}
	// Near an existing stream head: adopt the new delta as its stride.
	for i := range t.streams {
		s := &t.streams[i]
		if s.used == 0 {
			continue
		}
		d := page - int(s.last)
		if d != 0 && d >= -streamMaxStride && d <= streamMaxStride {
			s.stride = int32(d)
			s.conf = 1
			s.last = int32(page)
			s.used = t.streamSeq
			return 0, false
		}
	}
	// Unrelated fault: replace the least-recently-used slot.
	victim := 0
	for i := 1; i < len(t.streams); i++ {
		if t.streams[i].used < t.streams[victim].used {
			victim = i
		}
	}
	t.streams[victim] = faultStream{last: int32(page), used: t.streamSeq}
	return 0, false
}

// prefetchPage reserves a frame for one prefetch candidate and marks it
// migrating. False means the candidate is out of range, already
// resident/migrating, or no frame could be freed.
func (t *Tier) prefetchPage(page int, now uint64) bool {
	if page < 0 || page >= t.numPages || t.state[page] != pageHost {
		return false
	}
	if t.resident+t.inflight >= t.cfg.Frames && !t.evictOne(now) {
		return false
	}
	t.state[page] = pageMigrating
	t.pstate[page] = pfInflight
	t.inflight++
	t.stats.Prefetches++
	t.stats.BytesIn += t.cfg.PageBytes
	return true
}

// appendMigration serializes one batch on the link and queues it on the
// ring. Evictions (and their writebacks) for every page of the batch
// have already been charged, so ready cycles stay monotone along the
// ring. The demand-path cost model with batching off is unchanged:
// ready = start + transfer + PCIeLatency + MetaCycles.
func (t *Tier) appendMigration(m migration, now uint64) {
	transfer := uint64(m.pages) * t.perPageTransfer()
	start := now
	if t.busyUntil > start {
		start = t.busyUntil
	}
	t.busyUntil = start + transfer
	m.ready = start + transfer + t.cfg.PCIeLatency + t.cfg.MetaCycles
	t.stats.MetaCycles += t.cfg.MetaCycles
	if m.pages > 1 {
		t.stats.Batches++
	}
	t.ring[(t.ringHead+t.ringLen)%len(t.ring)] = m
	t.ringLen++
	if t.OnPrefetch != nil && (m.pages > 1 || t.pstate[m.page] == pfInflight) {
		t.OnPrefetch(m.page, m.pages)
	}
}

// evictOne drops the LRU victim to the host tier, charging a dirty
// writeback to the shared link when needed. Eager (streamed) pages
// drain first by construction of their stamps. Returns false when no
// resident victim exists.
func (t *Tier) evictOne(now uint64) bool {
	victim := t.heapPop()
	if victim < 0 {
		return false
	}
	if t.pstate[victim] == pfArrived {
		t.pstate[victim] = pfNone
		t.stats.PrefUseless++
	}
	t.eager[victim] = false
	wasDirty := t.dirty[victim]
	t.state[victim] = pageHost
	t.dirty[victim] = false
	t.resident--
	t.stats.Evictions++
	if wasDirty {
		t.stats.WritebacksDirty++
		t.stats.BytesOut += t.cfg.PageBytes
		if t.busyUntil < now {
			t.busyUntil = now
		}
		t.busyUntil += t.perPageTransfer()
	} else {
		t.stats.WritebacksClean++
	}
	thrash := now-t.admitAt[victim] < t.cfg.ThrashWindow
	if thrash {
		t.stats.Thrash++
	}
	if t.OnEvict != nil {
		t.OnEvict(victim, wasDirty, thrash)
	}
	return true
}

// perPageTransfer is the link occupancy of one page, in cycles.
func (t *Tier) perPageTransfer() uint64 {
	p := t.cfg.PageBytes / t.cfg.PCIeBytesPerCycle
	if p == 0 {
		p = 1
	}
	return p
}

// Tick completes migrations whose transfer has finished. Batches
// complete incrementally, page by page as the transfer streams in: with
// k pages still pending, the next page lands at ready − (k−1) ×
// per-page transfer (the last page lands exactly at ready). The demand
// page leads its batch, so it is never delayed by its prefetch tail,
// and a single-page (demand-only) migration behaves exactly as before.
// Ready cycles are monotonic along the ring (the link is serialized),
// so consuming from the head preserves completion order.
func (t *Tier) Tick(now uint64) {
	perPage := t.perPageTransfer()
	for t.ringLen > 0 {
		m := &t.ring[t.ringHead]
		landed := m.ready - uint64(m.pages-1)*perPage
		if landed > now {
			return
		}
		page := m.page
		t.resident++
		t.inflight--
		if m.eager {
			t.stamp[page] = t.eagerSeq
			t.eagerSeq++
			t.eager[page] = true
		} else {
			t.stamp[page] = t.seq
			t.seq++
		}
		t.admitAt[page] = now
		if t.pstate[page] == pfInflight {
			t.pstate[page] = pfArrived
			t.state[page] = pageResident
			t.heapPush(page)
		} else {
			t.state[page] = pageLanded
		}
		t.stats.MigrationsIn++
		if t.OnFaultIn != nil {
			t.OnFaultIn(page, landed-m.faultAt)
		}
		m.page++
		m.pages--
		if m.pages == 0 {
			t.ringHead = (t.ringHead + 1) % len(t.ring)
			t.ringLen--
		}
	}
}

// NextEvent reports the earliest future cycle at which the tier can act
// (the head batch's next page landing), or ^uint64(0) when idle.
// Callers fold this into the fast-forward horizon; prefetch completions
// are ordinary ring entries, so they are nextEvent sources like any
// demand fault.
func (t *Tier) NextEvent(now uint64) uint64 {
	if t.ringLen == 0 {
		return ^uint64(0)
	}
	m := t.ring[t.ringHead]
	r := m.ready - uint64(m.pages-1)*t.perPageTransfer()
	if r <= now {
		return now + 1
	}
	return r
}

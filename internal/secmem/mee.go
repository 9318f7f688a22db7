package secmem

import (
	"fmt"

	"shmgpu/internal/cache"
	"shmgpu/internal/detectors"
	"shmgpu/internal/dram"
	"shmgpu/internal/flatmap"
	"shmgpu/internal/invariant"
	"shmgpu/internal/memdef"
	"shmgpu/internal/metadata"
	"shmgpu/internal/ringbuf"
	"shmgpu/internal/stats"
	"shmgpu/internal/telemetry"
)

// DRAMPort routes sector requests to a partition's DRAM channel. The GPU
// system implements it over its channel array; metadata constructed from
// physical addresses may target partitions other than the MEE's own.
type DRAMPort interface {
	// Enqueue submits a request to partition part's channel, returning
	// false when that channel's queue is full.
	Enqueue(part int, r dram.Req, now uint64) bool
}

// pendingKind classifies an outstanding DRAM request by purpose.
type pendingKind uint8

const (
	pkData pendingKind = iota
	pkCounter
	pkMAC
	pkBMT
	pkMisc // fire-and-forget traffic (mispredict recovery, scans)
)

// pendingEntry is one slot of the MEE's pending slab: the completion
// action of one in-flight DRAM request, found through the slot index its
// token carries.
type pendingEntry struct {
	kind pendingKind
	live bool
	// gen counts the slot's releases (modulo genMask+1). A token carries
	// the generation it was issued under, so a stale token naming a reused
	// slot is ignored.
	gen uint32
	// key is the cache key address the completion fills (metadata space),
	// or unused for pkData/pkMisc.
	key memdef.Addr
	// txn is the transaction awaiting this data sector (pkData only).
	txn *txn
}

// A token's low 48 bits (below the owner, see TokenFor) are the pending
// slot in the low slotBits and the slot's generation above them. 2^28
// slots bound the slab at 8 GiB, far beyond any in-flight population.
const (
	slotBits = 28
	slotMask = 1<<slotBits - 1
	genMask  = 1<<(48-slotBits) - 1
)

// txn tracks one in-flight read through the MEE: the response returns to
// the L2 once the ciphertext sector has arrived AND its OTP is ready.
type txn struct {
	req      memdef.Request
	haveData bool
	haveOTP  bool
	otpAt    uint64
	dataAt   uint64
	submitAt uint64
	enqueued bool // pushed on the ready heap
}

// inputEntry is one queued L2 request with its submission cycle (used for
// the telemetry latency accounting; the timing model itself is unchanged).
type inputEntry struct {
	req memdef.Request
	at  uint64
}

type readyTxn struct {
	at uint64
	t  *txn
}

// readyHeap is a min-heap on at. It mirrors container/heap's sift
// algorithms exactly (rather than using the package, whose interface boxes
// every pushed value): the pop order among equal-at entries is observable in
// response ordering, so the algorithm must not change.
type readyHeap []readyTxn

func (h *readyHeap) push(x readyTxn) {
	*h = append(*h, x) //shm:alloc-ok amortized heap growth, bounded by in-flight reads
	h.up(len(*h) - 1)
}

func (h *readyHeap) popMin() readyTxn {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	h.down(0, n)
	it := old[n]
	old[n] = readyTxn{}
	*h = old[:n]
	return it
}

func (h readyHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || h[i].at <= h[j].at {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h readyHeap) down(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h[j2].at < h[j1].at {
			j = j2 // right child
		}
		if h[i].at <= h[j].at {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

type outgoing struct {
	part int
	req  dram.Req
}

// MEE is one partition's memory encryption engine.
type MEE struct {
	cfg    Config
	layout *metadata.Layout
	pmap   *memdef.PartitionMap
	port   DRAMPort

	ctrCache *cache.Cache
	macCache *cache.Cache
	bmtCache *cache.Cache

	roPred *detectors.ReadOnlyPredictor
	stPred *detectors.StreamingPredictor
	mats   *detectors.MATFile

	// oracle predictor state (OracleDetectors).
	roOracle map[uint64]bool // region -> read-only truth
	stOracle map[uint64]bool // chunk -> streaming truth

	// accuracy harnesses (TrackAccuracy).
	roAcc *detectors.ReadOnlyAccuracy
	stAcc *detectors.StreamingAccuracy

	victim VictimCache

	// common-counter divergence state: pages (counter-block coverage)
	// whose counters no longer hold the common value.
	diverged flatmap.Map[struct{}]

	// sharedCounter is the on-chip shared counter for read-only regions.
	sharedCounter uint64

	input    ringbuf.Ring[inputEntry]
	outgoing ringbuf.Ring[outgoing]
	// pending holds the completion action of every in-flight DRAM request
	// in a slab indexed by the slot its token carries, so a completion is
	// one indexed load. pendFree stacks the released slots (reused last
	// in, first out) and pendLive counts the live ones; the slab never
	// grows past the in-flight high-water mark.
	pending  []pendingEntry
	pendFree []int32
	pendLive int
	// ctrWait queues read transactions blocked on a counter-sector fetch,
	// FIFO per sector (wake order feeds aesSchedule and is observable in
	// timing).
	ctrWait flatmap.MultiMap[*txn]
	ready   readyHeap
	// responses is the per-Tick output buffer, reused across ticks; the
	// slice Tick returns is valid only until the next Tick.
	responses []memdef.Request
	// txnFree recycles txn objects (one per in-flight read) so the steady
	// state allocates none.
	txnFree  []*txn
	aesFree  uint64
	lastTick uint64

	// secBuf backs the slices counterSectors/macSectors/bmtSectors return;
	// each caller consumes its slice before the next call on the same index.
	secBuf [3][memdef.SectorsPerBlock]memdef.Addr
	// bmtPathBuf/bmtSlotBuf are the reusable BMT-walk scratch buffers.
	bmtPathBuf []memdef.Addr
	bmtSlotBuf []int

	// Reg collects ad-hoc event counters (transitions, mispredict classes,
	// victim hits, etc.).
	Reg stats.Registry
	// mdcBlocked counts metadata-cache reads the cache refused (Blocked).
	// It can fire several times a cycle, so it is a plain field rather than
	// a Reg map update; FoldCounters moves it into Reg as "mdc_blocked".
	mdcBlocked uint64

	// trace, when set, observes every data access the MEE processes
	// (debug/analysis hook; see SetTrace).
	trace func(now uint64, r memdef.Request)

	// probe, when non-nil, observes the request lifecycle (accept,
	// read-done latency), metadata fetches, predictions, and detections.
	probe telemetry.Probe
}

// SetTrace installs a per-access observer (nil to disable). Used by
// analysis tooling; not part of the timing model.
func (m *MEE) SetTrace(fn func(now uint64, r memdef.Request)) { m.trace = fn }

// SetProbe installs the telemetry probe (nil to disable), propagating it to
// the MAT file so tracker arms/skips are observed too.
func (m *MEE) SetProbe(p telemetry.Probe) {
	m.probe = p
	if m.mats != nil {
		m.mats.Probe = p
		m.mats.Part = int16(m.cfg.Partition)
	}
}

// NewMEE builds one partition's engine. port routes DRAM requests; layout
// is derived from cfg.ProtectedBytes.
func NewMEE(cfg Config, port DRAMPort) *MEE {
	layout, err := metadata.NewLayout(cfg.ProtectedBytes)
	if err != nil {
		panic(fmt.Sprintf("secmem: %v", err))
	}
	m := &MEE{
		cfg:    cfg,
		layout: layout,
		pmap:   memdef.NewPartitionMap(cfg.NumPartitions),
		port:   port,
	}
	if cfg.Enabled {
		m.ctrCache = cache.New(cfg.CtrCache)
		m.macCache = cache.New(cfg.MACCache)
		m.bmtCache = cache.New(cfg.BMTCache)
		m.roPred = detectors.NewReadOnlyPredictor(cfg.ReadOnly)
		m.stPred = detectors.NewStreamingPredictor(cfg.Streaming)
		m.mats = detectors.NewMATFile(cfg.Streaming)
		if cfg.OracleDetectors {
			m.roOracle = map[uint64]bool{}
			m.stOracle = map[uint64]bool{}
		}
		if cfg.TrackAccuracy {
			m.roAcc = detectors.NewReadOnlyAccuracy(m.roPred)
			m.stAcc = detectors.NewStreamingAccuracy(m.stPred, m.roPred)
		}
	}
	return m
}

// Config returns the MEE configuration.
func (m *MEE) Config() Config { return m.cfg }

// Layout exposes the metadata layout (tests, reporting).
func (m *MEE) Layout() *metadata.Layout { return m.layout }

// SetVictimCache installs the L2 victim-cache hook. Every metadata-cache
// eviction (clean or dirty) is pushed into the L2 while victim mode is
// active; dirty sectors are additionally written back to DRAM as usual.
func (m *MEE) SetVictimCache(v VictimCache) {
	m.victim = v
	if !m.cfg.Enabled || v == nil {
		return
	}
	push := func(blockAddr memdef.Addr, validMask uint8) {
		if !v.VictimActive() {
			return
		}
		for s := 0; s < memdef.SectorsPerBlock; s++ {
			if validMask&(1<<uint(s)) != 0 {
				v.PushVictim(blockAddr + memdef.Addr(s*memdef.SectorSize))
			}
		}
	}
	m.ctrCache.OnEvict = push
	m.macCache.OnEvict = push
	m.bmtCache.OnEvict = push
}

// CacheStats returns the three metadata caches' stats (nil-safe when the
// MEE is disabled).
func (m *MEE) CacheStats() (ctr, mac, bmt stats.CacheStats) {
	if !m.cfg.Enabled {
		return
	}
	return m.ctrCache.Stats, m.macCache.Stats, m.bmtCache.Stats
}

// SharedCounter returns the on-chip shared counter value.
func (m *MEE) SharedCounter() uint64 { return m.sharedCounter }

// MarkInputRange marks [lo, hi) of LOCAL addresses read-only (host→device
// copy during context initialization).
func (m *MEE) MarkInputRange(lo, hi memdef.Addr) {
	if !m.cfg.Enabled {
		return
	}
	m.roPred.MarkInputRange(lo, hi)
	if m.roOracle != nil {
		for r := uint64(lo) / m.cfg.ReadOnly.RegionBytes; r <= (uint64(hi)-1)/m.cfg.ReadOnly.RegionBytes; r++ {
			m.roOracle[r] = true
		}
	}
}

// OraclePreloadReadOnly installs profiling truth for the region range
// [lo, hi) of local addresses (SHM_upper_bound initialization).
func (m *MEE) OraclePreloadReadOnly(lo, hi memdef.Addr, ro bool) {
	if m.roOracle == nil || hi <= lo {
		return
	}
	for r := uint64(lo) / m.cfg.ReadOnly.RegionBytes; r <= (uint64(hi)-1)/m.cfg.ReadOnly.RegionBytes; r++ {
		if ro {
			m.roOracle[r] = true
		} else {
			delete(m.roOracle, r)
		}
	}
}

// OraclePreloadStreaming installs profiling truth for the chunk range
// [lo, hi) of local addresses (SHM_upper_bound initialization).
func (m *MEE) OraclePreloadStreaming(lo, hi memdef.Addr, streaming bool) {
	if m.stOracle == nil || hi <= lo {
		return
	}
	for c := uint64(lo) / m.cfg.Streaming.ChunkBytes; c <= (uint64(hi)-1)/m.cfg.Streaming.ChunkBytes; c++ {
		m.stOracle[c] = streaming
	}
}

// InputReadOnlyReset implements the paper's new API (§IV-B, Fig. 9) for a
// LOCAL address range: the command processor scans the per-block counters
// in the range for the maximum major counter, advances the shared counter
// past it, and re-marks the regions read-only. The scan's DRAM traffic is
// charged as counter reads.
func (m *MEE) InputReadOnlyReset(lo, hi memdef.Addr, now uint64) {
	if !m.cfg.Enabled || !m.cfg.ReadOnlyOpt || hi <= lo {
		return
	}
	// Scan the counter sectors covering [lo, hi). Consecutive counter
	// locations scan at high bandwidth (the paper notes the overhead is
	// negligible); we charge the reads as fire-and-forget traffic.
	first, _ := m.layout.CounterIndex(lo)
	last, _ := m.layout.CounterIndex(hi - 1)
	for cb := first; cb <= last; cb++ {
		base := m.layout.CounterBlockAddr(cb)
		for s := 0; s < memdef.SectorsPerBlock; s++ {
			m.sendMeta(pkMisc, base+memdef.Addr(s*memdef.SectorSize), memdef.Read, stats.TrafficCounter)
		}
	}
	// Advance the shared counter past any major counter in the range so
	// the reset cannot enable cross-kernel replay. The functional model
	// tracks real majors; the timing model bumps monotonically.
	m.sharedCounter++
	m.roPred.Reset(lo, hi)
	if m.roOracle != nil {
		for r := uint64(lo) / m.cfg.ReadOnly.RegionBytes; r <= (uint64(hi)-1)/m.cfg.ReadOnly.RegionBytes; r++ {
			m.roOracle[r] = true
		}
	}
	m.Reg.Inc("input_readonly_reset")
	_ = now
}

// HostOverwrite models a mid-context host→device copy WITHOUT the reset
// API: the touched regions lose their read-only status.
func (m *MEE) HostOverwrite(lo, hi memdef.Addr) {
	if !m.cfg.Enabled || hi <= lo {
		return
	}
	for a := memdef.RegionAddr(lo); a < hi; a += memdef.RegionSize {
		if m.roPred.OnWrite(a) {
			m.Reg.Inc("ro_transition_host")
		}
		if m.roOracle != nil {
			delete(m.roOracle, uint64(a)/m.cfg.ReadOnly.RegionBytes)
		}
	}
}

// MigrationOverwrite models a UVM page fault-in under full metadata
// rebuild: the migrated range is re-encrypted with fresh counters, so —
// exactly as with a host copy — the touched regions lose their
// read-only status and the profiling oracle forgets them. It returns
// the number of RO transitions instead of bumping the registry: the
// caller runs on the per-cycle tick path, where the registry's map
// insert is off-limits, and accumulates the count for end-of-run merge.
func (m *MEE) MigrationOverwrite(lo, hi memdef.Addr) uint64 {
	if !m.cfg.Enabled || hi <= lo {
		return 0
	}
	var transitions uint64
	for a := memdef.RegionAddr(lo); a < hi; a += memdef.RegionSize {
		if m.roPred.OnWrite(a) {
			transitions++
		}
		if m.roOracle != nil {
			delete(m.roOracle, uint64(a)/m.cfg.ReadOnly.RegionBytes)
		}
	}
	return transitions
}

// CanAccept reports whether SubmitRead/SubmitWrite would succeed.
func (m *MEE) CanAccept() bool { return m.input.Len() < m.cfg.InputQueue }

// SubmitRead accepts one L2 sector miss. Returns false when the input
// queue is full (back-pressure to the L2 bank).
func (m *MEE) SubmitRead(r memdef.Request, now uint64) bool {
	if !m.CanAccept() {
		return false
	}
	r.Kind = memdef.Read
	m.input.Push(inputEntry{req: r, at: now})
	if m.probe != nil {
		m.probe.Emit(telemetry.Event{Cycle: now, Kind: telemetry.EvMEEAccept, Part: int16(m.cfg.Partition), Class: 0})
	}
	return true
}

// SubmitWrite accepts one dirty L2 sector write-back.
func (m *MEE) SubmitWrite(r memdef.Request, now uint64) bool {
	if !m.CanAccept() {
		return false
	}
	r.Kind = memdef.Write
	m.input.Push(inputEntry{req: r, at: now})
	if m.probe != nil {
		m.probe.Emit(telemetry.Event{Cycle: now, Kind: telemetry.EvMEEAccept, Part: int16(m.cfg.Partition), Class: 1})
	}
	return true
}

// Idle reports whether the MEE holds no queued or in-flight work.
func (m *MEE) Idle() bool {
	return m.input.Len() == 0 && m.outgoing.Len() == 0 && m.pendLive == 0 &&
		len(m.ready) == 0 && len(m.responses) == 0
}

// Tick advances the MEE one cycle and returns completed read responses.
// The returned slice aliases an internal buffer and is valid only until the
// next Tick; callers must consume it immediately.
func (m *MEE) Tick(now uint64) []memdef.Request {
	if invariant.Enabled() && now < m.lastTick {
		invariant.Failf("clock-monotonic", fmt.Sprintf("mee[%d]", m.cfg.Partition), now,
			"Tick clock ran backwards: now=%d < last=%d", now, m.lastTick)
	}
	m.lastTick = now
	// 1. Drain the outgoing buffer into DRAM channels.
	for m.outgoing.Len() > 0 {
		o := m.outgoing.Front()
		if !m.port.Enqueue(o.part, o.req, now) {
			break
		}
		m.outgoing.PopFront()
	}
	// 2. Process input requests while there is outgoing headroom.
	issued := 0
	for m.input.Len() > 0 && issued < m.cfg.IssuePerCycle && m.outgoing.Len() < 32 {
		e := m.input.PopFront()
		if m.cfg.Enabled {
			m.process(e.req, e.at, now)
		} else {
			m.passthrough(e.req, e.at, now)
		}
		issued++
	}
	// 3. Expire MAT monitoring phases (coarse: every 64 cycles).
	if m.cfg.Enabled && !m.cfg.OracleDetectors && now%64 == 0 {
		for _, det := range m.mats.Tick(now) {
			m.applyDetection(det, now)
		}
	}
	// 4. Release ready responses. The txn is recycled here: once popped it
	// is referenced by no pending entry or wait list (completion removed
	// those before the heap push), so the pool reuse is safe.
	for len(m.ready) > 0 && m.ready[0].at <= now {
		rt := m.ready.popMin()
		m.responses = append(m.responses, rt.t.req) //shm:alloc-ok fills the reused responses scratch, amortized
		if m.probe != nil {
			m.probe.Emit(telemetry.Event{
				Cycle: rt.at, Kind: telemetry.EvMEEReadDone,
				Part: int16(m.cfg.Partition), Value: rt.at - rt.t.submitAt,
			})
		}
		m.releaseTxn(rt.t)
	}
	out := m.responses
	m.responses = m.responses[:0]
	return out
}

// getTxn takes a transaction object from the free pool (or allocates one);
// releaseTxn zeroes and returns it. One txn lives per in-flight read.
func (m *MEE) getTxn() *txn {
	if n := len(m.txnFree); n > 0 {
		t := m.txnFree[n-1]
		m.txnFree = m.txnFree[:n-1]
		return t
	}
	return &txn{} //shm:alloc-ok pool fallback: allocates once per in-flight high-water mark
}

func (m *MEE) releaseTxn(t *txn) {
	*t = txn{}
	m.txnFree = append(m.txnFree, t) //shm:alloc-ok amortized pool growth, bounded by in-flight reads
}

// passthrough is the insecure baseline: data requests go straight to DRAM.
func (m *MEE) passthrough(r memdef.Request, submitAt, now uint64) {
	if r.Kind == memdef.Write {
		m.send(m.cfg.Partition, dram.Req{Local: r.Local, Kind: memdef.Write, Class: stats.TrafficData}, pendingEntry{kind: pkMisc})
		return
	}
	t := m.getTxn()
	t.req = r
	t.haveOTP = true
	t.submitAt = submitAt
	m.send(m.cfg.Partition, dram.Req{Local: r.Local, Kind: memdef.Read, Class: stats.TrafficData}, pendingEntry{kind: pkData, txn: t})
	_ = now
}

// send buffers a DRAM request and registers its completion entry in a
// pending slot. The token names the owning partition in its top bits, so
// the system can route completions from any channel back to the issuing
// MEE (metadata built from physical addresses crosses partitions), and the
// slot and its generation below them. DRAM treats tokens as opaque.
func (m *MEE) send(part int, r dram.Req, pe pendingEntry) {
	var slot int32
	if n := len(m.pendFree); n > 0 {
		slot = m.pendFree[n-1]
		m.pendFree = m.pendFree[:n-1]
	} else {
		slot = int32(len(m.pending))
		m.pending = append(m.pending, pendingEntry{}) //shm:alloc-ok amortized slab growth, bounded by in-flight requests
	}
	e := &m.pending[slot]
	pe.live, pe.gen = true, e.gen
	*e = pe
	m.pendLive++
	r.Token = TokenFor(m.cfg.Partition, uint64(e.gen)<<slotBits|uint64(slot))
	m.outgoing.Push(outgoing{part: part, req: r})
}

// slotOf returns the live pending slot token names, or -1 when the token
// belongs to another MEE, names no slot, or names a slot since released
// (its generation moved on).
func (m *MEE) slotOf(token uint64) int {
	slot := token & slotMask
	if TokenOwner(token) != m.cfg.Partition || slot >= uint64(len(m.pending)) {
		return -1
	}
	if e := &m.pending[slot]; !e.live || uint64(e.gen) != token>>slotBits&genMask {
		return -1
	}
	return int(slot)
}

// TokenFor builds a DRAM token owned by the given MEE partition; the low
// 48 bits of seq ride along unchanged.
func TokenFor(partition int, seq uint64) uint64 {
	return uint64(partition+1)<<48 | (seq & (1<<48 - 1))
}

// TokenOwner recovers the owning MEE partition from a token (-1 if the
// token was not produced by TokenFor).
func TokenOwner(token uint64) int {
	return int(token>>48) - 1
}

// sendMeta routes a metadata sector request. Under LocalMetadata the sector
// stays in this partition; otherwise the metadata address is physical and
// is routed to its owning partition.
func (m *MEE) sendMeta(kind pendingKind, metaAddr memdef.Addr, rw memdef.AccessKind, class stats.TrafficClass) {
	part := m.cfg.Partition
	local := metaAddr
	if !m.cfg.LocalMetadata {
		part, local = m.pmap.ToLocal(metaAddr)
	}
	m.send(part, dram.Req{Local: local, Kind: rw, Class: class}, pendingEntry{kind: kind, key: metaAddr})
	if m.probe != nil {
		var unit int16
		if rw == memdef.Write {
			unit = 1
		}
		m.probe.Emit(telemetry.Event{
			Cycle: m.lastTick, Kind: telemetry.EvMetaFetch,
			Part: int16(m.cfg.Partition), Class: uint8(class), Unit: unit,
		})
	}
}

// isReadOnly decides the read-only status used by the encryption path:
// spaces that are read-only by nature (constant/texture/instruction), or
// regions the detector (or oracle) currently predicts read-only.
func (m *MEE) isReadOnly(r memdef.Request) bool {
	if !m.cfg.ReadOnlyOpt {
		return false
	}
	if r.Space.ReadOnlyByNature() {
		return true
	}
	if m.roOracle != nil {
		return m.roOracle[uint64(r.Local)/m.cfg.ReadOnly.RegionBytes]
	}
	return m.roPred.Predict(r.Local)
}

// isStreaming decides the MAC granularity for the chunk of r.
func (m *MEE) isStreaming(r memdef.Request) bool {
	if !m.cfg.DualGranMAC {
		return false
	}
	if m.stOracle != nil {
		s, ok := m.stOracle[uint64(r.Local)/m.cfg.Streaming.ChunkBytes]
		if !ok {
			return true // eager default, like the bit vector
		}
		return s
	}
	return m.stPred.Predict(r.Local)
}

// PredictStreaming reports the streaming classification this MEE would
// apply to a local chunk address: the oracle preload when present,
// otherwise the trained bit-vector predictor. False when the
// dual-granularity MAC mechanism (which owns the streaming detector) is
// disabled. The UVM stream-prefetch policy consumes this to decide
// which faulting pages are migrated ahead in bulk.
func (m *MEE) PredictStreaming(local memdef.Addr) bool {
	if !m.cfg.DualGranMAC {
		return false
	}
	if m.stOracle != nil {
		s, ok := m.stOracle[uint64(local)/m.cfg.Streaming.ChunkBytes]
		if !ok {
			return true // eager default, like the bit vector
		}
		return s
	}
	return m.stPred.Predict(local)
}

// metaAddrFor returns the base address used for metadata derivation: local
// under PSSM addressing, physical otherwise.
func (m *MEE) metaAddrFor(r memdef.Request) memdef.Addr {
	if m.cfg.LocalMetadata {
		return r.Local
	}
	return r.Phys
}

// sectorList fills one of the fixed scratch buffers with the sectors to
// fetch for a metadata miss: the primary sector alone under the sectored
// organization, the full block otherwise. The returned slice is valid until
// the next call with the same buffer index.
func (m *MEE) sectorList(buf int, sec memdef.Addr) []memdef.Addr {
	out := m.secBuf[buf][:0]
	if m.cfg.SectoredMetadata {
		return append(out, sec) //shm:alloc-ok fills the fixed secBuf scratch; capacity covers a full block
	}
	base := memdef.BlockAddr(sec)
	for i := 0; i < memdef.SectorsPerBlock; i++ {
		out = append(out, base+memdef.Addr(i*memdef.SectorSize)) //shm:alloc-ok fills the fixed secBuf scratch; capacity covers a full block
	}
	return out
}

// counterSectors returns the metadata sectors to fetch for a counter miss.
func (m *MEE) counterSectors(metaAddr memdef.Addr) []memdef.Addr {
	return m.sectorList(0, m.layout.CounterSectorFor(metaAddr))
}

func (m *MEE) macSectors(macByteAddr memdef.Addr) []memdef.Addr {
	return m.sectorList(1, memdef.SectorAddr(macByteAddr))
}

// aesSchedule books one OTP generation on the pipelined AES engine and
// returns its completion cycle.
func (m *MEE) aesSchedule(now uint64) uint64 {
	if m.aesFree < now {
		m.aesFree = now
	}
	start := m.aesFree
	m.aesFree++ // pipelined: one issue per cycle
	return start + m.cfg.AESLatency
}

// mdcRead performs a metadata-cache read with optional victim-L2 probe,
// issuing DRAM fetches on miss. avail=true means the sector is usable right
// now (hit, victim hit, or MSHR-exhaustion fallback); pending=true means a
// fill for sectors[0] will arrive later (callers may register waiters).
func (m *MEE) mdcRead(c *cache.Cache, kind pendingKind, sectors []memdef.Addr, class stats.TrafficClass) (avail, pending bool) {
	primary := sectors[0]
	switch c.Read(primary) {
	case cache.Hit:
		return true, false
	case cache.MissMerged:
		return false, true // fetch already in flight
	case cache.Blocked:
		// The sector's MSHR already merges MaxMergesPerMSHR reads, or the
		// MSHR file is full. On the benchmark's highbw cells every Blocked
		// was the merge-cap overflow; the 256 MSHRs did not fill. No fill
		// will answer this lookup, so report the sector as available
		// rather than strand a waiter: an over-merged read is served
		// without stalling. Counted as mdc_blocked.
		m.mdcBlocked++
		return true, false
	}
	// MissNew: probe the victim L2 first.
	if m.victim != nil && m.victim.VictimActive() && m.victim.ProbeVictim(primary) {
		c.Fill(primary)
		m.Reg.Inc("victim_hit")
		return true, false
	}
	m.sendMeta(kind, primary, memdef.Read, class)
	// Non-sectored organizations drag the sibling sectors along.
	for _, s := range sectors[1:] {
		if c.Read(s) == cache.MissNew {
			m.sendMeta(kind, s, memdef.Read, class)
		}
	}
	return false, true
}

// mdcWrite performs a write-allocate metadata-cache update: on miss the
// sector is fetched (read-modify-write) and then dirtied. Evicted dirty
// sectors become DRAM writes; with victim mode active, evictions are also
// pushed into the L2.
func (m *MEE) mdcWrite(c *cache.Cache, kind pendingKind, sector memdef.Addr, class stats.TrafficClass) {
	if !c.Probe(sector) {
		// Write-allocate: fetch the sector first (unless already being
		// fetched), then dirty it on arrival — modeled by issuing the
		// fetch and dirtying immediately (state-only cache).
		switch c.Read(sector) {
		case cache.MissNew:
			if m.victim != nil && m.victim.VictimActive() && m.victim.ProbeVictim(sector) {
				m.Reg.Inc("victim_hit")
			} else {
				m.sendMeta(kind, sector, memdef.Read, class)
			}
		case cache.Blocked:
			m.mdcBlocked++
		}
		c.Fill(sector)
	}
	_, wbs := c.Write(sector)
	m.spillWritebacks(kind, wbs, class)
}

func (m *MEE) spillWritebacks(kind pendingKind, wbs []cache.Writeback, class stats.TrafficClass) {
	for _, wb := range wbs {
		for s := 0; s < memdef.SectorsPerBlock; s++ {
			if wb.SectorMask&(1<<uint(s)) == 0 {
				continue
			}
			addr := wb.BlockAddr + memdef.Addr(s*memdef.SectorSize)
			m.sendMeta(pkMisc, addr, memdef.Write, class)
			if m.victim != nil && m.victim.VictimActive() {
				m.victim.PushVictim(addr)
			}
		}
	}
}

// process handles one data request through the full secure-memory path.
// submitAt is the cycle the request entered the input queue (telemetry
// latency accounting only).
func (m *MEE) process(r memdef.Request, submitAt, now uint64) {
	meta := m.metaAddrFor(r)
	ro := m.isReadOnly(r)
	streaming := m.isStreaming(r)

	if m.probe != nil {
		if m.cfg.ReadOnlyOpt {
			m.probe.Emit(telemetry.Event{Cycle: now, Kind: telemetry.EvPredictRO,
				Part: int16(m.cfg.Partition), Class: boolClass(ro)})
		}
		if m.cfg.DualGranMAC {
			m.probe.Emit(telemetry.Event{Cycle: now, Kind: telemetry.EvPredictStream,
				Part: int16(m.cfg.Partition), Class: boolClass(streaming)})
		}
	}

	// Accuracy harness observes the prediction before any state updates.
	if m.roAcc != nil {
		m.roAcc.Observe(r.Local, r.Kind == memdef.Write)
	}
	if m.stAcc != nil {
		m.stAcc.Observe(r.Local, r.Kind == memdef.Write)
	}

	// Access characterization (paper Fig. 5): with oracle truth loaded,
	// classify every off-chip access as streaming / read-only.
	if m.stOracle != nil {
		m.Reg.Inc("access_total")
		if streaming {
			m.Reg.Inc("access_streaming")
		}
		if ro {
			m.Reg.Inc("access_readonly")
		}
	}

	// Streaming detector observes every off-chip access.
	if !m.cfg.OracleDetectors && m.cfg.DualGranMAC {
		if m.trace != nil {
			m.trace(now, r)
		}
		if det, done := m.mats.Observe(r.Local, r.Kind == memdef.Write, now); done {
			m.applyDetection(det, now)
		}
	}

	if r.Kind == memdef.Write {
		m.processWrite(r, meta, ro, streaming, now)
		return
	}
	m.processRead(r, meta, ro, streaming, submitAt, now)
}

// boolClass encodes a prediction outcome for probe events.
func boolClass(v bool) uint8 {
	if v {
		return 1
	}
	return 0
}

func (m *MEE) processRead(r memdef.Request, meta memdef.Addr, ro, streaming bool, submitAt, now uint64) {
	t := m.getTxn()
	t.req = r
	t.submitAt = submitAt

	// Data fetch always goes to this partition's DRAM.
	m.send(m.cfg.Partition, dram.Req{Local: r.Local, Kind: memdef.Read, Class: stats.TrafficData},
		pendingEntry{kind: pkData, txn: t})

	// Counter path → OTP.
	switch {
	case ro:
		// Shared counter is on chip: OTP generation starts immediately,
		// no counter fetch, no BMT coverage.
		t.otpAt = m.aesSchedule(now)
		t.haveOTP = false
		m.scheduleOTPKnown(t)
	case m.cfg.CommonCounters && !m.divergedPage(meta):
		// Common value known on chip: the counter fetch is saved, but the
		// page's common/diverged status is itself integrity-tree-covered
		// state, so the freshness walk is still charged (with normal BMT
		// cache locality).
		t.otpAt = m.aesSchedule(now)
		m.scheduleOTPKnown(t)
		m.bmtWalk(meta)
	default:
		sectors := m.counterSectors(meta)
		avail, pending := m.mdcRead(m.ctrCache, pkCounter, sectors, stats.TrafficCounter)
		if avail {
			t.otpAt = m.aesSchedule(now)
			m.scheduleOTPKnown(t)
		} else if pending {
			// OTP waits for the counter sector; BMT verifies the fetched
			// counter off the critical path.
			m.ctrWait.Add(uint64(sectors[0]), t)
			m.bmtWalk(meta)
		}
	}

	// MAC fetch: off the critical path (data is forwarded speculatively;
	// a verification failure raises an exception later).
	m.macFetch(meta, streaming, memdef.Read)
}

func (m *MEE) processWrite(r memdef.Request, meta memdef.Addr, ro, streaming bool, now uint64) {
	// A write to a read-only-predicted region triggers the RO→not-RO
	// transition and counter propagation (Fig. 8).
	if m.cfg.ReadOnlyOpt && !r.Space.ReadOnlyByNature() {
		transition := false
		if m.roOracle != nil {
			region := uint64(r.Local) / m.cfg.ReadOnly.RegionBytes
			if m.roOracle[region] {
				delete(m.roOracle, region)
				transition = true
			}
		} else if m.roPred.OnWrite(r.Local) {
			transition = true
		}
		if transition {
			m.Reg.Inc("ro_transition")
			m.propagateSharedCounter(r.Local, meta)
			ro = false
		}
	}

	// Counter read-modify-write (skipped while the page still holds the
	// common value is wrong: a write diverges it).
	switch {
	case ro:
		// Writes never target RO state (cleared above); defensive only.
	case m.cfg.CommonCounters && !m.divergedPage(meta):
		m.divergePage(meta)
		// Counters are architecturally known (common value): install the
		// diverged counters as dirty without a fetch.
		m.mdcInstallDirty(m.ctrCache, m.layout.CounterSectorFor(meta), stats.TrafficCounter)
		m.bmtLeafUpdate(meta)
	default:
		m.mdcWrite(m.ctrCache, pkCounter, m.layout.CounterSectorFor(meta), stats.TrafficCounter)
		m.bmtLeafUpdate(meta)
	}

	// MAC update.
	if streaming {
		// Per-chunk MAC: update the chunk MAC (dirty); per-block MACs are
		// produced but marked not-dirty (no write traffic).
		m.mdcWrite(m.macCache, pkMAC, memdef.SectorAddr(m.layout.ChunkMACAddr(meta)), stats.TrafficMAC)
	} else {
		m.mdcWrite(m.macCache, pkMAC, memdef.SectorAddr(m.layout.BlockMACAddr(meta)), stats.TrafficMAC)
	}

	// Ciphertext write to DRAM (posted; encryption latency off critical
	// path, AES occupancy booked).
	m.aesSchedule(now)
	m.send(m.cfg.Partition, dram.Req{Local: r.Local, Kind: memdef.Write, Class: stats.TrafficData},
		pendingEntry{kind: pkMisc})
}

// mdcInstallDirty installs a sector as dirty without a backing fetch
// (contents architecturally known, e.g. diverging common counters).
func (m *MEE) mdcInstallDirty(c *cache.Cache, sector memdef.Addr, class stats.TrafficClass) {
	_, wbs := c.Write(sector)
	var kind pendingKind
	switch class {
	case stats.TrafficCounter:
		kind = pkCounter
	case stats.TrafficMAC:
		kind = pkMAC
	default:
		kind = pkBMT
	}
	m.spillWritebacks(kind, wbs, class)
}

// divergedPage reports whether the counter page (counter-block coverage,
// 8 KB) of meta has left the common-counter state.
func (m *MEE) divergedPage(meta memdef.Addr) bool {
	cb, _ := m.layout.CounterIndex(meta)
	return m.diverged.Has(cb)
}

func (m *MEE) divergePage(meta memdef.Addr) {
	cb, _ := m.layout.CounterIndex(meta)
	if !m.diverged.Has(cb) {
		m.diverged.Put(cb)
		m.Reg.Inc("cctr_diverged")
	}
}

// propagateSharedCounter performs the Fig. 8 burst: the region's counter
// blocks take the shared counter as their major counter (dirty counter-
// cache updates) and the BMT grows to cover them (leaf updates).
func (m *MEE) propagateSharedCounter(local, meta memdef.Addr) {
	regionMeta := memdef.RegionAddr(meta)
	for off := memdef.Addr(0); off < memdef.RegionSize; off += metadata.CounterCoverage {
		blockMeta := regionMeta + off
		base, _ := m.layout.CounterAddrFor(blockMeta)
		for s := 0; s < memdef.SectorsPerBlock; s++ {
			m.mdcInstallDirty(m.ctrCache, base+memdef.Addr(s*memdef.SectorSize), stats.TrafficCounter)
		}
		m.bmtLeafUpdate(blockMeta)
	}
	_ = local
}

// bmtWalk charges the read-path BMT traversal for a counter miss: walk up
// the stored levels until a BMT-cache hit (a cached node is trusted and
// terminates verification, per Rogers et al.).
func (m *MEE) bmtWalk(meta memdef.Addr) {
	if m.layout.BMTLevels() == 0 {
		return
	}
	cb, _ := m.layout.CounterIndex(meta)
	var path []memdef.Addr
	path, m.bmtSlotBuf = m.layout.BMTPathForCounterInto(cb, m.bmtPathBuf, m.bmtSlotBuf)
	m.bmtPathBuf = path
	for _, nodeAddr := range path {
		sector := memdef.SectorAddr(nodeAddr) // node hash lives in its first sector region; sector granularity
		hit, _ := m.mdcRead(m.bmtCache, pkBMT, m.bmtSectors(sector), stats.TrafficBMT)
		if hit {
			return
		}
	}
}

func (m *MEE) bmtSectors(sector memdef.Addr) []memdef.Addr {
	return m.sectorList(2, sector)
}

// bmtLeafUpdate charges the write-path BMT work for a counter update: the
// leaf node sector is dirtied in the BMT cache (write-allocate). Dirty BMT
// evictions cascade naturally through spillWritebacks.
func (m *MEE) bmtLeafUpdate(meta memdef.Addr) {
	if m.layout.BMTLevels() == 0 {
		return
	}
	cb, _ := m.layout.CounterIndex(meta)
	path, slots := m.layout.BMTPathForCounterInto(cb, m.bmtPathBuf, m.bmtSlotBuf)
	m.bmtPathBuf, m.bmtSlotBuf = path, slots
	leafSector := path[0] + memdef.Addr((slots[0]*metadata.HashSize/memdef.SectorSize)*memdef.SectorSize)
	m.mdcWrite(m.bmtCache, pkBMT, leafSector, stats.TrafficBMT)
}

// macFetch charges the integrity-verification fetch for a read or the
// pre-update fetch check for a write.
func (m *MEE) macFetch(meta memdef.Addr, streaming bool, kind memdef.AccessKind) {
	var addr memdef.Addr
	if streaming {
		addr = m.layout.ChunkMACAddr(meta)
	} else {
		addr = m.layout.BlockMACAddr(meta)
	}
	m.mdcRead(m.macCache, pkMAC, m.macSectors(addr), stats.TrafficMAC)
	_ = kind
}

// scheduleOTPKnown finalizes a txn whose OTP completion time is known.
func (m *MEE) scheduleOTPKnown(t *txn) {
	t.haveOTP = true
	m.maybeReady(t)
}

func (m *MEE) maybeReady(t *txn) {
	if t.enqueued || !t.haveOTP || !t.haveData {
		return
	}
	at := t.dataAt
	if t.otpAt > at {
		at = t.otpAt
	}
	// One cycle for the XOR/decrypt stage.
	m.ready.push(readyTxn{at: at + 1, t: t})
	t.enqueued = true
}

// NextEvent returns the earliest cycle strictly after now at which ticking
// the MEE is not a no-op: queued input or buffered DRAM requests retry next
// cycle, the ready heap's root releases at its timestamp, and armed MAT
// trackers expire at their deadline rounded up to the next 64-cycle
// detector tick (Tick only runs expiry at now%64 == 0, so that is the cycle
// an every-cycle run would observe the detection). ^uint64(0) means only
// another component's progress (a DRAM completion, new L2 input) can make
// the MEE actable.
func (m *MEE) NextEvent(now uint64) uint64 {
	if m.input.Len() > 0 || m.outgoing.Len() > 0 {
		return now + 1
	}
	next := ^uint64(0)
	if len(m.ready) > 0 {
		next = m.ready[0].at
	}
	if m.cfg.Enabled && !m.cfg.OracleDetectors {
		if d := m.mats.NextDeadline(); d != ^uint64(0) {
			if r := (d + 63) &^ 63; r < next {
				next = r
			}
		}
	}
	if next <= now {
		return now + 1
	}
	return next
}

// applyDetection implements the Tables III/IV misprediction handling when a
// MAT monitoring phase completes, then trains the predictor.
//
//shm:cold detections close a monitoring phase; they are rare events, not per-access work
func (m *MEE) applyDetection(det detectors.Detection, now uint64) {
	if det.Accesses == 0 {
		// A monitor armed ahead of the stream that never saw an access
		// carries no information; do not train or recover.
		m.Reg.Inc("det_empty")
		return
	}
	if det.Streaming {
		m.Reg.Inc("det_stream")
	} else {
		m.Reg.Inc("det_random")
	}
	if m.probe != nil {
		var class uint8
		if det.Streaming {
			class |= 1
		}
		if det.TimedOut {
			class |= 2
		}
		if det.HadWrite {
			class |= 4
		}
		m.probe.Emit(telemetry.Event{
			Cycle: now, Kind: telemetry.EvDetection,
			Part: int16(m.cfg.Partition), Class: class, Value: uint64(det.Accesses),
		})
	}
	if det.TimedOut {
		m.Reg.Inc("det_timeout")
		m.Reg.Add("det_timeout_accesses", uint64(det.Accesses))
		m.Reg.Inc(fmt.Sprintf("det_timeout_bucket_%d", det.Accesses/8))
	}
	chunkBase := memdef.Addr(det.Chunk * m.cfg.Streaming.ChunkBytes)
	predictedStreaming := m.stPred.Predict(chunkBase)
	ro := m.cfg.ReadOnlyOpt && m.roPred.Predict(chunkBase)

	switch {
	case predictedStreaming == det.Streaming:
		// Correct prediction: zero additional bandwidth.
	case predictedStreaming && !det.Streaming:
		// Stream mispredicted; chunk is actually random.
		if det.HadWrite || !ro {
			// Re-fetch all data blocks in the chunk to (re)produce the
			// per-block MACs (read in a non-RO region, or any write).
			m.Reg.Inc("mp_refetch_chunk_data")
			for b := 0; b < memdef.BlocksPerChunk; b++ {
				for s := 0; s < memdef.SectorsPerBlock; s++ {
					a := chunkBase + memdef.Addr(b*memdef.BlockSize+s*memdef.SectorSize)
					m.send(m.cfg.Partition, dram.Req{Local: a, Kind: memdef.Read, Class: stats.TrafficMispredict},
						pendingEntry{kind: pkMisc})
				}
			}
		} else {
			// Read in an RO region: per-block MACs are up to date; only
			// re-fetch them for the accessed blocks.
			m.Reg.Inc("mp_refetch_blk_macs")
			macLo := m.layout.BlockMACAddr(chunkBase)
			macHi := m.layout.BlockMACAddr(chunkBase + memdef.ChunkSize - 1)
			for a := memdef.SectorAddr(macLo); a <= macHi; a += memdef.SectorSize {
				m.sendMeta(pkMisc, a, memdef.Read, stats.TrafficMispredict)
			}
		}
	case !predictedStreaming && det.Streaming:
		// Random mispredicted; chunk actually streams.
		if det.HadWrite {
			// Write stream: just produce and update the chunk MAC.
			m.mdcWrite(m.macCache, pkMAC, memdef.SectorAddr(m.layout.ChunkMACAddr(chunkBase)), stats.TrafficMAC)
			m.Reg.Inc("mp_update_chunk_mac")
		} else if !ro {
			// Read stream in a non-RO region: re-fetch the chunk MAC.
			m.Reg.Inc("mp_refetch_chunk_mac")
			m.sendMeta(pkMisc, memdef.SectorAddr(m.layout.ChunkMACAddr(chunkBase)), memdef.Read, stats.TrafficMispredict)
		}
		// RO read stream: per-block MACs were valid; zero overhead.
	}
	m.stPred.Train(det.Chunk, det.Streaming)
	_ = now
}

// OnDRAMComplete routes a finished DRAM request back into the MEE. A token
// that names no live slot of this MEE is ignored.
func (m *MEE) OnDRAMComplete(token uint64, now uint64) {
	slot := m.slotOf(token)
	if slot < 0 {
		return
	}
	e := &m.pending[slot]
	pe := *e
	*e = pendingEntry{gen: (pe.gen + 1) & genMask}
	m.pendFree = append(m.pendFree, int32(slot)) //shm:alloc-ok amortized free-stack growth, bounded by the slab
	m.pendLive--
	switch pe.kind {
	case pkData:
		pe.txn.haveData = true
		pe.txn.dataAt = now
		m.maybeReady(pe.txn)
	case pkCounter:
		m.ctrCache.Fill(pe.key)
		m.ctrWait.Drain(uint64(pe.key), func(t *txn) { //shm:alloc-ok drain callback capturing two words; fills happen once per counter miss, not per access
			t.otpAt = m.aesSchedule(now)
			m.scheduleOTPKnown(t)
		})
	case pkMAC:
		m.macCache.Fill(pe.key)
	case pkBMT:
		m.bmtCache.Fill(pe.key)
	case pkMisc:
		// Fire-and-forget traffic: nothing to do.
	}
}

// FlushKernel drains detector state at a kernel boundary: active MAT phases
// finalize (with misprediction handling) exactly as on timeout.
func (m *MEE) FlushKernel(now uint64) {
	if !m.cfg.Enabled || m.cfg.OracleDetectors {
		return
	}
	for _, det := range m.mats.Flush() {
		m.applyDetection(det, now)
	}
}

// FlushMetadata writes back all dirty metadata cache state (kernel/context
// boundary). The MEE must be Idle (drained) first.
func (m *MEE) FlushMetadata() {
	if !m.cfg.Enabled {
		return
	}
	m.spillWritebacks(pkCounter, m.ctrCache.FlushAll(), stats.TrafficCounter)
	m.spillWritebacks(pkMAC, m.macCache.FlushAll(), stats.TrafficMAC)
	m.spillWritebacks(pkBMT, m.bmtCache.FlushAll(), stats.TrafficBMT)
}

// AccuracyResults finalizes and returns the Fig. 10/11 breakdowns. Call
// once at end of run; requires TrackAccuracy.
func (m *MEE) AccuracyResults() (ro, st stats.PredictorStats) {
	if m.roAcc != nil {
		ro = m.roAcc.Finalize()
	}
	if m.stAcc != nil {
		st = m.stAcc.Finalize()
	}
	return ro, st
}

// FoldCounters moves the counters kept as plain fields into Reg, adding
// each only when nonzero so Reg's key set is what per-event Reg.Inc calls
// would have left. Call it before reading or saving Reg.
func (m *MEE) FoldCounters() {
	if m.mdcBlocked != 0 {
		m.Reg.Add("mdc_blocked", m.mdcBlocked)
		m.mdcBlocked = 0
	}
}

// MATStats exposes tracker utilization (monitored chunks, skipped accesses).
func (m *MEE) MATStats() (monitored, skipped uint64) {
	if m.mats == nil {
		return 0, 0
	}
	return m.mats.Monitored, m.mats.Skipped
}

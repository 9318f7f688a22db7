// Package securemem is the functional secure-memory library: a software
// model of the paper's protected GPU device memory that actually encrypts,
// authenticates, and freshness-protects every block it stores, with the
// adaptive optimizations the paper proposes — the on-chip shared counter
// for read-only regions (no per-block counters, no integrity-tree coverage)
// and dual-granularity MACs (an 8 B MAC per 128 B block plus an 8 B MAC per
// 4 KB chunk).
//
// The library exposes the attacker's view of off-chip memory explicitly:
// AttackerView returns the raw backing store (ciphertext and all security
// metadata). Tampering with it — bit flips, splices, or replays of stale
// values including whole metadata subtrees — is detected on the next read,
// exactly per the paper's threat model.
//
// This package and the timing simulator (internal/secmem) share the
// metadata layout arithmetic of internal/metadata. The cryptography
// (internal/cryptoengine, internal/bmt) runs only here: the timing model
// charges cycles for it without computing it. Sharing the arithmetic does
// not make the models agree on addresses. Nothing yet checks the metadata
// addresses the timing model derives, and its Naive and Common_ctr
// write-backs compute them from the wrong physical address (ROADMAP
// items 8 and 11).
//
// This is a functional model: it charges no cycles. The performance of the
// same mechanisms is evaluated by the timing simulator (internal/gpu +
// internal/secmem), driven through the shmgpu root package.
package securemem

import (
	"errors"
	"fmt"

	"shmgpu/internal/bmt"
	"shmgpu/internal/cryptoengine"
	"shmgpu/internal/memdef"
	"shmgpu/internal/metadata"
)

// Errors reported by verification. Use errors.Is.
var (
	// ErrIntegrity means a MAC check failed: the ciphertext or its MAC
	// was tampered with.
	ErrIntegrity = errors.New("securemem: integrity verification failed")
	// ErrFreshness means the integrity tree rejected the counter state:
	// a replay of stale data/metadata was detected.
	ErrFreshness = errors.New("securemem: freshness verification failed")
	// ErrBounds means an access fell outside the protected range or was
	// not block-aligned.
	ErrBounds = errors.New("securemem: out-of-bounds or misaligned access")
)

// BlockSize is the protection granularity in bytes (one cache block).
const BlockSize = memdef.BlockSize

// ChunkSize is the coarse-grain MAC granularity in bytes.
const ChunkSize = memdef.ChunkSize

// Config configures a protected memory.
type Config struct {
	// Size is the protected capacity in bytes; it must be a positive
	// multiple of 8 KB (the split-counter coverage).
	Size uint64
	// ContextSeed derives the (K1, K2, K3) key tuple; a real GPU would
	// draw it from a hardware entropy source at context creation.
	ContextSeed uint64
	// Partition is the logical partition identity bound into every seed
	// and hash.
	Partition uint8
}

// Stats counts the memory's activity.
type Stats struct {
	Reads, Writes         uint64
	HostCopies            uint64
	ROTransitions         uint64
	MinorOverflows        uint64
	IntegrityFailures     uint64
	FreshnessFailures     uint64
	ChunkMACVerifications uint64
}

// Memory is one protected device-memory instance.
type Memory struct {
	cfg    Config
	layout *metadata.Layout
	eng    *cryptoengine.Engine
	tree   *bmt.Tree

	// backing is the attacker-visible off-chip store: ciphertext data,
	// counter blocks, both MAC levels, and the BMT nodes.
	backing []byte

	// On-chip (trusted) state: the shared counter for read-only regions
	// and the per-region read-only bits. The functional model keeps exact
	// per-region bits; the hardware's aliased bit vector only affects
	// performance, never correctness.
	sharedCounter uint64
	readOnly      map[uint64]bool

	stats Stats
}

type sliceBacking struct{ b []byte }

func (s sliceBacking) ReadRaw(addr memdef.Addr, buf []byte)  { copy(buf, s.b[addr:]) }
func (s sliceBacking) WriteRaw(addr memdef.Addr, buf []byte) { copy(s.b[addr:], buf) }

// New creates a protected memory. All data blocks start zeroed, encrypted
// under per-block counters at zero, with valid MACs and integrity tree.
func New(cfg Config) (*Memory, error) {
	layout, err := metadata.NewLayout(cfg.Size)
	if err != nil {
		return nil, err
	}
	m := &Memory{
		cfg:      cfg,
		layout:   layout,
		eng:      cryptoengine.New(cryptoengine.DeriveKeys(cfg.ContextSeed)),
		backing:  make([]byte, layout.TotalBytes()),
		readOnly: map[uint64]bool{},
	}
	m.tree = bmt.New(layout, m.eng, cfg.Partition, sliceBacking{m.backing})

	// Initialize every block's ciphertext and MACs under zero counters,
	// then build the tree over the (all-zero) counter region.
	zero := make([]byte, BlockSize)
	ct := make([]byte, BlockSize)
	for addr := memdef.Addr(0); uint64(addr) < cfg.Size; addr += BlockSize {
		seed := m.seedFor(addr, 0, 0)
		m.eng.EncryptBlock(ct, zero, seed)
		copy(m.backing[addr:], ct)
		m.storeBlockMAC(addr, m.eng.BlockMAC(ct, seed))
	}
	for chunk := memdef.Addr(0); uint64(chunk) < cfg.Size; chunk += ChunkSize {
		m.recomputeChunkMAC(chunk)
	}
	m.tree.Rebuild()
	return m, nil
}

// MustNew is New panicking on error.
func MustNew(cfg Config) *Memory {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Size returns the protected capacity.
func (m *Memory) Size() uint64 { return m.cfg.Size }

// Stats returns a copy of the activity counters.
func (m *Memory) Stats() Stats { return m.stats }

// SharedCounter returns the on-chip shared counter for read-only regions.
func (m *Memory) SharedCounter() uint64 { return m.sharedCounter }

// IsReadOnly reports whether the 16 KB region containing addr is currently
// in the read-only state (shared counter, no tree coverage).
func (m *Memory) IsReadOnly(addr memdef.Addr) bool {
	return m.readOnly[memdef.RegionID(addr)]
}

// AttackerView returns the raw off-chip backing store — ciphertext,
// counters, MACs, and tree nodes. It aliases the live store: mutations
// model physical attacks and are detected on subsequent reads.
func (m *Memory) AttackerView() []byte { return m.backing }

// Layout exposes the metadata layout, letting attack demonstrations locate
// counters, MACs and tree nodes precisely.
func (m *Memory) Layout() *metadata.Layout { return m.layout }

func (m *Memory) checkRange(addr memdef.Addr, n int) error {
	if uint64(addr)%BlockSize != 0 || n%BlockSize != 0 || n <= 0 {
		return fmt.Errorf("%w: addr %#x len %d (need %d-byte alignment)", ErrBounds, uint64(addr), n, BlockSize)
	}
	if uint64(addr)+uint64(n) > m.cfg.Size {
		return fmt.Errorf("%w: [%#x, %#x) beyond size %d", ErrBounds, uint64(addr), uint64(addr)+uint64(n), m.cfg.Size)
	}
	return nil
}

// seedFor builds the encryption seed for a block given its counters.
func (m *Memory) seedFor(addr memdef.Addr, major uint64, minor uint16) cryptoengine.Seed {
	return cryptoengine.Seed{
		Local:     memdef.BlockAddr(addr),
		Partition: m.cfg.Partition,
		Major:     major,
		Minor:     minor,
	}
}

// counterFor loads the counter block covering addr from backing.
func (m *Memory) counterFor(addr memdef.Addr) (metadata.CounterBlock, uint64, int) {
	cbIdx, slot := m.layout.CounterIndex(addr)
	var cb metadata.CounterBlock
	bmt.DecodeCounterBlock(m.backing[m.layout.CounterBlockAddr(cbIdx):], &cb)
	return cb, cbIdx, slot
}

func (m *Memory) storeCounter(cbIdx uint64, cb *metadata.CounterBlock) {
	var buf [bmt.CounterBlockBytes]byte
	bmt.EncodeCounterBlock(cb, buf[:])
	copy(m.backing[m.layout.CounterBlockAddr(cbIdx):], buf[:])
}

func (m *Memory) storeBlockMAC(addr memdef.Addr, mac uint64) {
	putU64(m.backing[m.layout.BlockMACAddr(addr):], mac)
}

func (m *Memory) loadBlockMAC(addr memdef.Addr) uint64 {
	return getU64(m.backing[m.layout.BlockMACAddr(addr):])
}

func (m *Memory) storeChunkMAC(addr memdef.Addr, mac uint64) {
	putU64(m.backing[m.layout.ChunkMACAddr(addr):], mac)
}

func (m *Memory) loadChunkMAC(addr memdef.Addr) uint64 {
	return getU64(m.backing[m.layout.ChunkMACAddr(addr):])
}

// recomputeChunkMAC rebuilds the coarse MAC of the chunk containing addr
// from the stored per-block MACs.
func (m *Memory) recomputeChunkMAC(addr memdef.Addr) {
	chunk := memdef.ChunkAddr(addr)
	macs := make([]uint64, memdef.BlocksPerChunk)
	for i := range macs {
		macs[i] = m.loadBlockMAC(chunk + memdef.Addr(i*BlockSize))
	}
	m.storeChunkMAC(chunk, m.eng.ChunkMAC(chunk, m.cfg.Partition, macs))
}

// blockSeed resolves the current seed for a block: the shared counter for
// read-only regions, the stored split counters otherwise.
func (m *Memory) blockSeed(addr memdef.Addr) (cryptoengine.Seed, error) {
	if m.IsReadOnly(addr) {
		return cryptoengine.ReadOnlySeed(addr, m.cfg.Partition, m.sharedCounter), nil
	}
	cb, cbIdx, slot := m.counterFor(addr)
	// Freshness: non-read-only counters are covered by the integrity
	// tree; a replayed counter (or spliced tree path) fails here.
	if err := m.tree.Verify(cbIdx); err != nil {
		m.stats.FreshnessFailures++
		return cryptoengine.Seed{}, fmt.Errorf("%w: %v", ErrFreshness, err)
	}
	major, minor := cb.Seed(slot)
	return m.seedFor(addr, major, minor), nil
}

// Read decrypts and verifies len(buf) bytes at addr (block-aligned). For
// read-only regions this uses the shared counter and skips the tree walk
// (integrity without freshness, per Table II); otherwise counters are
// freshness-checked against the on-chip root before use. Each block's
// stateful MAC is verified; on mismatch the chunk-level MAC is consulted as
// the second chance (the paper's dual-granularity conflict remedy) before
// reporting ErrIntegrity.
func (m *Memory) Read(addr memdef.Addr, buf []byte) error {
	if err := m.checkRange(addr, len(buf)); err != nil {
		return err
	}
	m.stats.Reads++
	ct := make([]byte, BlockSize)
	for off := 0; off < len(buf); off += BlockSize {
		a := addr + memdef.Addr(off)
		seed, err := m.blockSeed(a)
		if err != nil {
			return err
		}
		copy(ct, m.backing[a:])
		if m.loadBlockMAC(a) != m.eng.BlockMAC(ct, seed) {
			// Second chance: a stale block MAC can coexist with a valid
			// chunk MAC after granularity conflicts; accept if the
			// coarse MAC over stored block MACs verifies.
			if !m.verifyChunkOf(a) {
				m.stats.IntegrityFailures++
				return fmt.Errorf("%w: block %#x", ErrIntegrity, uint64(a))
			}
			m.stats.ChunkMACVerifications++
		}
		m.eng.DecryptBlock(buf[off:off+BlockSize], ct, seed)
	}
	return nil
}

// verifyChunkOf checks the chunk MAC of the chunk containing addr the way
// the hardware does for streaming data: every data block in the chunk is
// fetched, its block-level MAC is RECOMPUTED from the ciphertext and the
// current counters, and the coarse MAC is composed from those — so the
// chunk MAC genuinely authenticates the data, not merely the stored MAC
// chain.
func (m *Memory) verifyChunkOf(addr memdef.Addr) bool {
	chunk := memdef.ChunkAddr(addr)
	macs := make([]uint64, memdef.BlocksPerChunk)
	ct := make([]byte, BlockSize)
	for i := range macs {
		a := chunk + memdef.Addr(i*BlockSize)
		seed, err := m.blockSeed(a)
		if err != nil {
			return false
		}
		copy(ct, m.backing[a:])
		macs[i] = m.eng.BlockMAC(ct, seed)
	}
	return m.loadChunkMAC(chunk) == m.eng.ChunkMAC(chunk, m.cfg.Partition, macs)
}

// VerifyChunk explicitly checks the coarse-grain MAC of the chunk
// containing addr, the verification path used for streaming-detected data.
func (m *Memory) VerifyChunk(addr memdef.Addr) error {
	if uint64(addr) >= m.cfg.Size {
		return fmt.Errorf("%w: %#x", ErrBounds, uint64(addr))
	}
	m.stats.ChunkMACVerifications++
	if !m.verifyChunkOf(addr) {
		m.stats.IntegrityFailures++
		return fmt.Errorf("%w: chunk %#x", ErrIntegrity, uint64(memdef.ChunkAddr(addr)))
	}
	return nil
}

// Write encrypts and stores len(data) bytes at addr (block-aligned). A
// write into a read-only region first performs the RO→RW transition: the
// region's counters were materialized with (major=shared, minor=0) at copy
// time, so per-block counters take over seamlessly (paper Fig. 8) and the
// integrity tree re-covers the region.
func (m *Memory) Write(addr memdef.Addr, data []byte) error {
	if err := m.checkRange(addr, len(data)); err != nil {
		return err
	}
	m.stats.Writes++
	for off := 0; off < len(data); off += BlockSize {
		a := addr + memdef.Addr(off)
		if m.IsReadOnly(a) {
			m.transitionToRW(a)
		}
		cb, cbIdx, slot := m.counterFor(a)
		old := cb
		if cb.Increment(slot) {
			// Minor overflow: every sibling block covered by this
			// counter block must be re-encrypted under the new major
			// counter. Recover their plaintext with the OLD counters
			// first, then re-encrypt under the new ones.
			m.stats.MinorOverflows++
			m.storeCounter(cbIdx, &cb)
			m.reencryptCounterSpan(cbIdx, &old, &cb, slot)
		} else {
			m.storeCounter(cbIdx, &cb)
		}
		major, minor := cb.Seed(slot)
		seed := m.seedFor(a, major, minor)
		ct := make([]byte, BlockSize)
		m.eng.EncryptBlock(ct, data[off:off+BlockSize], seed)
		copy(m.backing[a:], ct)
		m.storeBlockMAC(a, m.eng.BlockMAC(ct, seed))
		m.recomputeChunkMAC(a)
		m.tree.Update(cbIdx)
	}
	return nil
}

// transitionToRW clears the read-only state of the region containing addr.
// Counters for read-only regions are stored as (major=shared, minors=0), so
// no propagation pass is needed in the functional model; the effect is the
// same as the paper's Fig. 8 counter-cache propagation.
func (m *Memory) transitionToRW(addr memdef.Addr) {
	delete(m.readOnly, memdef.RegionID(addr))
	m.stats.ROTransitions++
	// The region's counter blocks re-enter tree coverage; their content
	// is unchanged, but the tree must reflect them in case the copy-time
	// state predates the last Rebuild.
	regionBase := memdef.RegionAddr(addr)
	for off := memdef.Addr(0); off < memdef.RegionSize; off += metadata.CounterCoverage {
		cbIdx, _ := m.layout.CounterIndex(regionBase + off)
		m.tree.Update(cbIdx)
	}
}

// reencryptCounterSpan re-encrypts every block covered by a counter block
// after a minor-counter overflow reset (split-counter semantics): all
// sibling blocks move from their old (major, minor) seeds to the new major
// with zeroed minors. The overflowing slot itself is skipped — its caller
// is about to overwrite it with fresh data anyway.
func (m *Memory) reencryptCounterSpan(cbIdx uint64, old, fresh *metadata.CounterBlock, writtenSlot int) {
	base := memdef.Addr(cbIdx * metadata.CounterCoverage)
	pt := make([]byte, BlockSize)
	ct := make([]byte, BlockSize)
	for slot := 0; slot < metadata.MinorsPerCounterBlock; slot++ {
		a := base + memdef.Addr(slot*BlockSize)
		if uint64(a) >= m.cfg.Size {
			break
		}
		if slot == writtenSlot {
			continue
		}
		oldMajor, oldMinor := old.Seed(slot)
		copy(ct, m.backing[a:])
		m.eng.DecryptBlock(pt, ct, m.seedFor(a, oldMajor, oldMinor))
		newMajor, newMinor := fresh.Seed(slot)
		seed := m.seedFor(a, newMajor, newMinor)
		m.eng.EncryptBlock(ct, pt, seed)
		copy(m.backing[a:], ct)
		m.storeBlockMAC(a, m.eng.BlockMAC(ct, seed))
	}
	// Chunk MACs over the affected span must follow the new block MACs.
	for off := memdef.Addr(0); off < metadata.CounterCoverage && uint64(base+off) < m.cfg.Size; off += ChunkSize {
		m.recomputeChunkMAC(base + off)
	}
}

// Package metadata defines where security metadata lives in device memory
// and what it looks like: split-counter blocks, the per-block and per-chunk
// MAC regions (dual-granularity MACs), and the Bonsai Merkle Tree geometry
// over the counter region.
//
// The layout is pure address arithmetic over one protected address space.
// Under PSSM-style addressing every memory partition instantiates one
// Layout over its partition-local address space, so all metadata for a
// partition's data stays in that partition. Under the naive (physical
// address) scheme one Layout spans the whole physical space and metadata
// scatters across partitions — the redundancy PSSM eliminates.
package metadata

import (
	"fmt"

	"shmgpu/internal/memdef"
)

// Counter-organization constants (split counters, Yan/Rogers style,
// adapted to 128 B blocks as in the paper).
const (
	// CounterBlockSize is the size of one counter block in memory.
	CounterBlockSize = memdef.BlockSize
	// MajorBytes is the size of the major counter within a counter block.
	MajorBytes = 8
	// MinorsPerCounterBlock is the number of per-block minor counters in
	// one counter block. Each minor is 7 bits (stored one per byte in the
	// functional model for simplicity; the layout charges the packed size).
	MinorsPerCounterBlock = 64
	// MinorMax is the largest value a 7-bit minor counter can hold.
	MinorMax = 127
	// CounterCoverage is the data bytes covered by one counter block.
	CounterCoverage = MinorsPerCounterBlock * memdef.BlockSize // 8 KB
	// BMTArity is the integrity-tree fan-in: one 128 B node holds 16
	// 8 B child hashes.
	BMTArity = 16
	// HashSize is the BMT hash size in bytes.
	HashSize = 8
	// BlockMACBytes is the per-block MAC size.
	BlockMACBytes = 8
	// ChunkMACBytes is the per-chunk MAC size.
	ChunkMACBytes = 8
)

// Layout maps data addresses to metadata addresses within one protected
// address space of ProtectedBytes, laid out as:
//
//	[0, D)                      data
//	[D, D+D/64)                 counter blocks (128 B per 8 KB data)
//	[..., +D/16)                per-block MACs (8 B per 128 B block)
//	[..., +D/512)               per-chunk MACs (8 B per 4 KB chunk)
//	[...]                       BMT levels, leaves first; root on chip
type Layout struct {
	protected    uint64
	counterBase  uint64
	counterBytes uint64
	blkMACBase   uint64
	blkMACBytes  uint64
	chkMACBase   uint64
	chkMACBytes  uint64
	bmtBases     []uint64 // base address per level, level 0 = leaves
	bmtNodes     []uint64 // node count per level
	totalBytes   uint64
}

// NewLayout builds the layout for a protected space of protectedBytes,
// which must be a positive multiple of CounterCoverage (8 KB) so counter
// blocks tile it exactly.
func NewLayout(protectedBytes uint64) (*Layout, error) {
	if protectedBytes == 0 || protectedBytes%CounterCoverage != 0 {
		return nil, fmt.Errorf("metadata: protected size %d must be a positive multiple of %d", protectedBytes, CounterCoverage)
	}
	l := &Layout{protected: protectedBytes}
	l.counterBase = protectedBytes
	l.counterBytes = protectedBytes / MinorsPerCounterBlock // 128B per 8KB = /64
	l.blkMACBase = l.counterBase + l.counterBytes
	l.blkMACBytes = protectedBytes / memdef.BlockSize * BlockMACBytes
	l.chkMACBase = l.blkMACBase + l.blkMACBytes
	l.chkMACBytes = protectedBytes / memdef.ChunkSize * ChunkMACBytes

	// BMT: level 0 nodes each cover BMTArity counter blocks.
	next := l.chkMACBase + l.chkMACBytes
	n := l.counterBytes / CounterBlockSize // number of counter blocks
	for n > 1 {
		nodes := (n + BMTArity - 1) / BMTArity
		l.bmtBases = append(l.bmtBases, next)
		l.bmtNodes = append(l.bmtNodes, nodes)
		next += nodes * memdef.BlockSize
		n = nodes
	}
	l.totalBytes = next
	return l, nil
}

// ProtectedBytes returns the data capacity of the protected space.
func (l *Layout) ProtectedBytes() uint64 { return l.protected }

// TotalBytes returns data plus all metadata storage.
func (l *Layout) TotalBytes() uint64 { return l.totalBytes }

// MetadataBytes returns total metadata storage.
func (l *Layout) MetadataBytes() uint64 { return l.totalBytes - l.protected }

// StorageOverhead returns metadata bytes / data bytes.
func (l *Layout) StorageOverhead() float64 {
	return float64(l.MetadataBytes()) / float64(l.protected)
}

// NumCounterBlocks returns the number of counter blocks.
func (l *Layout) NumCounterBlocks() uint64 { return l.counterBytes / CounterBlockSize }

// CounterIndex returns the counter-block index and minor-counter slot for
// the data block containing addr.
func (l *Layout) CounterIndex(addr memdef.Addr) (counterBlock uint64, minorSlot int) {
	blk := memdef.BlockID(addr)
	return blk / MinorsPerCounterBlock, int(blk % MinorsPerCounterBlock)
}

// CounterBlockAddr returns the memory address of counter block i.
func (l *Layout) CounterBlockAddr(i uint64) memdef.Addr {
	return memdef.Addr(l.counterBase + i*CounterBlockSize)
}

// CounterAddrFor returns the address of the counter block covering addr and
// the minor slot of addr's data block within it.
func (l *Layout) CounterAddrFor(addr memdef.Addr) (memdef.Addr, int) {
	cb, slot := l.CounterIndex(addr)
	return l.CounterBlockAddr(cb), slot
}

// CounterSectorFor returns the 32 B sector that must be fetched to obtain
// the counters for addr under a sectored (PSSM) organization: PSSM
// re-organizes counter blocks so the major counter is replicated per
// sector, letting a single sector fetch serve any minor in it. Sector 0
// holds the major plus the first minors, matching that behaviour.
func (l *Layout) CounterSectorFor(addr memdef.Addr) memdef.Addr {
	base, slot := l.CounterAddrFor(addr)
	sector := slot * MinorsPerCounterBlock / memdef.BlockSize // 64 minors across 4 sectors → 16 per sector
	_ = sector
	// 64 minor slots spread over 4 sectors of the counter block.
	return base + memdef.Addr((slot/16)*memdef.SectorSize)
}

// BlockMACAddr returns the byte address of the 8 B per-block MAC for the
// data block containing addr.
func (l *Layout) BlockMACAddr(addr memdef.Addr) memdef.Addr {
	return memdef.Addr(l.blkMACBase + memdef.BlockID(addr)*BlockMACBytes)
}

// ChunkMACAddr returns the byte address of the 8 B per-chunk MAC for the
// 4 KB chunk containing addr.
func (l *Layout) ChunkMACAddr(addr memdef.Addr) memdef.Addr {
	return memdef.Addr(l.chkMACBase + memdef.ChunkID(addr)*ChunkMACBytes)
}

// InData reports whether addr falls inside the protected data range.
func (l *Layout) InData(addr memdef.Addr) bool { return uint64(addr) < l.protected }

// BMTLevels returns the number of stored BMT levels (the root above them
// lives on chip).
func (l *Layout) BMTLevels() int { return len(l.bmtBases) }

// BMTNodesAt returns the node count of a stored level.
func (l *Layout) BMTNodesAt(level int) uint64 { return l.bmtNodes[level] }

// BMTNodeAddr returns the address of node idx at a stored level.
func (l *Layout) BMTNodeAddr(level int, idx uint64) memdef.Addr {
	if level < 0 || level >= len(l.bmtBases) {
		panic(fmt.Sprintf("metadata: BMT level %d out of range [0,%d)", level, len(l.bmtBases)))
	}
	if idx >= l.bmtNodes[level] {
		panic(fmt.Sprintf("metadata: BMT node %d out of range at level %d (max %d)", idx, level, l.bmtNodes[level]))
	}
	return memdef.Addr(l.bmtBases[level] + idx*memdef.BlockSize)
}

// BMTPathForCounter returns the stored-node addresses visited when
// verifying counter block cb: its leaf-level node, then each ancestor up to
// (not including) the on-chip root. slotInParent[i] gives the child slot of
// step i's hash within step i's node.
func (l *Layout) BMTPathForCounter(cb uint64) (path []memdef.Addr, slots []int) {
	return l.BMTPathForCounterInto(cb, nil, nil)
}

// BMTPathForCounterInto is BMTPathForCounter appending into caller-provided
// buffers (truncated to length zero first), so per-access walks on the hot
// path can reuse scratch storage instead of allocating two slices per call.
func (l *Layout) BMTPathForCounterInto(cb uint64, pathBuf []memdef.Addr, slotBuf []int) (path []memdef.Addr, slots []int) {
	path, slots = pathBuf[:0], slotBuf[:0]
	if len(l.bmtBases) == 0 {
		return path, slots
	}
	idx := cb
	for level := 0; level < len(l.bmtBases); level++ {
		slot := int(idx % BMTArity)
		idx /= BMTArity
		path = append(path, l.BMTNodeAddr(level, idx)) // fills caller scratch; capacity reaches the tree height after the first walk
		slots = append(slots, slot)                    // fills caller scratch; capacity reaches the tree height after the first walk
	}
	return path, slots
}

// Describe renders the layout for docs and debugging.
func (l *Layout) Describe() string {
	return fmt.Sprintf(
		"protected=%d counters=[%#x,+%d] blkMAC=[%#x,+%d] chkMAC=[%#x,+%d] bmtLevels=%d total=%d (overhead %.2f%%)",
		l.protected, l.counterBase, l.counterBytes, l.blkMACBase, l.blkMACBytes,
		l.chkMACBase, l.chkMACBytes, len(l.bmtBases), l.totalBytes, 100*l.StorageOverhead())
}

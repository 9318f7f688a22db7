// Package memdef defines the address types, memory-geometry constants, and
// the physical-to-partition address mapping shared by every layer of the
// simulator and the functional secure-memory library.
//
// The geometry follows the paper's baseline GPU (Table V) and metadata
// organization (Table VI): 128 B cache blocks divided into 32 B sectors,
// 4 KB streaming-detection chunks, 16 KB read-only-detection regions, and
// 12 GDDR memory partitions addressed through partition-local offsets
// ("local addresses") in the style of PSSM.
package memdef

import (
	"fmt"
	"slices"
)

// Addr is a byte address. Physical addresses and partition-local addresses
// share this type; functions are explicit about which one they take.
type Addr uint64

// Geometry constants used throughout the system.
const (
	// BlockSize is the cache-line / memory-block size in bytes. MACs and
	// encryption counters are maintained at this granularity.
	BlockSize = 128
	// SectorSize is the sector size for sectored caches and the DRAM
	// access granularity.
	SectorSize = 32
	// SectorsPerBlock is the number of sectors in one cache block.
	SectorsPerBlock = BlockSize / SectorSize
	// ChunkSize is the granularity of streaming-access detection and of
	// the coarse-grain (per-chunk) MAC: 4 KB.
	ChunkSize = 4096
	// BlocksPerChunk is the number of 128 B blocks per 4 KB chunk.
	BlocksPerChunk = ChunkSize / BlockSize
	// RegionSize is the granularity of read-only detection: 16 KB.
	RegionSize = 16384
	// BlocksPerRegion is the number of 128 B blocks per 16 KB region.
	BlocksPerRegion = RegionSize / BlockSize
	// PartitionStride is the address-interleaving granularity across
	// memory partitions (256 B, i.e. two blocks, as in GPGPU-Sim's
	// default GDDR mapping).
	PartitionStride = 256
)

// Space identifies the GPU memory space an access targets (paper Table I).
type Space uint8

const (
	// SpaceGlobal is off-chip global memory (C+I+F).
	SpaceGlobal Space = iota
	// SpaceLocal is off-chip local memory (C+I+F).
	SpaceLocal
	// SpaceConstant is off-chip constant memory (C+I; read-only during
	// kernel execution).
	SpaceConstant
	// SpaceTexture is off-chip texture memory (C+I, optionally +F).
	SpaceTexture
	// SpaceInstruction is the application code region (C+I; read-only).
	SpaceInstruction
	numSpaces
)

// NumSpaces is the number of distinct memory spaces.
const NumSpaces = int(numSpaces)

var spaceNames = [...]string{
	SpaceGlobal:      "global",
	SpaceLocal:       "local",
	SpaceConstant:    "constant",
	SpaceTexture:     "texture",
	SpaceInstruction: "instruction",
}

// String returns the space name used in reports.
func (s Space) String() string {
	if int(s) < len(spaceNames) {
		return spaceNames[s]
	}
	return fmt.Sprintf("space(%d)", uint8(s))
}

// MarshalText encodes the space as its name.
func (s Space) MarshalText() ([]byte, error) {
	if int(s) >= len(spaceNames) {
		return nil, fmt.Errorf("memdef: invalid memory space %d", uint8(s))
	}
	return []byte(spaceNames[s]), nil
}

// UnmarshalText decodes a space name.
func (s *Space) UnmarshalText(text []byte) error {
	i := slices.Index(spaceNames[:], string(text))
	if i < 0 {
		return fmt.Errorf("memdef: unknown memory space %q", text)
	}
	*s = Space(i)
	return nil
}

// ReadOnlyByNature reports whether the space is read-only during kernel
// execution by construction of the programming model (paper Table I):
// constant memory, texture memory and instruction memory. Such spaces need
// confidentiality and integrity but not freshness.
func (s Space) ReadOnlyByNature() bool {
	switch s {
	case SpaceConstant, SpaceTexture, SpaceInstruction:
		return true
	}
	return false
}

// BlockAddr returns the address of the 128 B block containing a.
func BlockAddr(a Addr) Addr { return a &^ (BlockSize - 1) }

// SectorAddr returns the address of the 32 B sector containing a.
func SectorAddr(a Addr) Addr { return a &^ (SectorSize - 1) }

// ChunkAddr returns the address of the 4 KB chunk containing a.
func ChunkAddr(a Addr) Addr { return a &^ (ChunkSize - 1) }

// RegionAddr returns the address of the 16 KB region containing a.
func RegionAddr(a Addr) Addr { return a &^ (RegionSize - 1) }

// BlockID returns the block index of address a.
func BlockID(a Addr) uint64 { return uint64(a) / BlockSize }

// ChunkID returns the chunk index of address a.
func ChunkID(a Addr) uint64 { return uint64(a) / ChunkSize }

// RegionID returns the region index of address a.
func RegionID(a Addr) uint64 { return uint64(a) / RegionSize }

// SectorInBlock returns the sector index (0..3) of address a within its block.
func SectorInBlock(a Addr) int { return int(a%BlockSize) / SectorSize }

// BlockInChunk returns the block index (0..31) of address a within its chunk.
func BlockInChunk(a Addr) int { return int(a%ChunkSize) / BlockSize }

// AccessKind distinguishes reads from writes at the memory-system level.
type AccessKind uint8

const (
	// Read is an L2 miss fill from DRAM.
	Read AccessKind = iota
	// Write is a dirty L2 write-back to DRAM.
	Write
)

// String returns "read" or "write".
func (k AccessKind) String() string {
	if k == Read {
		return "read"
	}
	return "write"
}

// PartitionMap maps physical addresses to (partition, local address) pairs
// and back. The mapping interleaves PartitionStride-sized slices of the
// physical address space across partitions, XOR-folding higher address bits
// into the partition index to spread pathological strides, as real GDDR
// address mappings do. The mapping is exactly invertible, which the
// metadata layout relies on.
type PartitionMap struct {
	numPartitions int
}

// NewPartitionMap returns a mapping across n partitions. n must be > 0.
func NewPartitionMap(n int) *PartitionMap {
	if n <= 0 {
		panic("memdef: partition count must be positive")
	}
	return &PartitionMap{numPartitions: n}
}

// NumPartitions returns the number of partitions.
func (m *PartitionMap) NumPartitions() int { return m.numPartitions }

// ToLocal maps a physical address to its partition index and partition-local
// address. The local address preserves the offset within the 256 B stride,
// so block/sector/chunk geometry is preserved under the mapping as long as
// PartitionStride is a multiple of ChunkSize... it is not, so note:
// chunk and region IDs used by the detectors are computed from LOCAL
// addresses, exactly as the paper specifies ("using local addresses").
func (m *PartitionMap) ToLocal(phys Addr) (partition int, local Addr) {
	stride := uint64(phys) / PartitionStride
	offset := uint64(phys) % PartitionStride
	n := uint64(m.numPartitions)
	row := stride / n
	// Mix the row bits into the partition selector so power-of-two strides
	// do not camp on a subset of partitions. The mix depends only on the
	// row, which the local address preserves, keeping the map invertible.
	part := (stride + mixRow(row)) % n
	return int(part), Addr(row*PartitionStride + offset)
}

// mixRow is a splitmix64-style finalizer over the local row index.
func mixRow(row uint64) uint64 {
	z := row + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// ToPhysical inverts ToLocal.
func (m *PartitionMap) ToPhysical(partition int, local Addr) Addr {
	n := uint64(m.numPartitions)
	row := uint64(local) / PartitionStride
	offset := uint64(local) % PartitionStride
	// Recover stride = row*n + r with (r + mixRow(row)) % n == partition.
	r := (uint64(partition) + n - mixRow(row)%n) % n
	stride := row*n + r
	return Addr(stride*PartitionStride + offset)
}

// LocalCapacity returns the size of the local address space of one partition
// for a device memory of total bytes.
func (m *PartitionMap) LocalCapacity(total uint64) uint64 {
	return total / uint64(m.numPartitions)
}

// LocalRange returns the partition-local address range that the physical
// range [lo, hi) occupies in EVERY partition. Because the mapping
// interleaves fixed-size strides round-robin (with a permuted partition
// choice per row), a contiguous physical range covers the same contiguous
// band of local rows in each partition; the returned range is that band,
// conservatively rounded outward to stride boundaries. Used to mark
// read-only input buffers in each partition's predictor and to scope
// InputReadOnlyReset scans.
func (m *PartitionMap) LocalRange(lo, hi Addr) (localLo, localHi Addr) {
	if hi <= lo {
		return 0, 0
	}
	n := uint64(m.numPartitions)
	rowLo := uint64(lo) / PartitionStride / n
	rowHi := (uint64(hi)-1)/PartitionStride/n + 1
	return Addr(rowLo * PartitionStride), Addr(rowHi * PartitionStride)
}

// Request is one off-chip memory access as seen by a memory partition:
// an L2 sector miss (Read) or a dirty sector write-back (Write).
//
// It moves by value through every queue from the crossbar to the MEE, so
// its fields are ordered for a 24-byte layout, which a layout test in
// internal/gpu pins. The ids are int16: gpu.Config.Validate bounds the SM
// and partition counts far below math.MaxInt16. There is no request id or
// warp: nothing below the SM reads them.
type Request struct {
	// Phys is the physical sector address (SectorSize-aligned).
	Phys Addr
	// Local is the partition-local sector address.
	Local Addr
	// Partition is the memory partition index.
	Partition int16
	// SM is the issuing streaming multiprocessor (for response routing);
	// negative for internally generated traffic.
	SM int16
	// Kind is Read or Write.
	Kind AccessKind
	// Space is the GPU memory space of the data.
	Space Space
}

// String renders a compact description for logs and test failures.
func (r Request) String() string {
	return fmt.Sprintf("%s %s p%d local=0x%x phys=0x%x sm=%d", r.Kind, r.Space, r.Partition, uint64(r.Local), uint64(r.Phys), r.SM)
}

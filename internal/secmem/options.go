// Package secmem implements the Memory Encryption Engine (MEE) timing model
// that sits between one memory partition's L2 banks and its DRAM channel.
// It charges cycles and DRAM bandwidth for every security-metadata access
// the evaluated designs perform: encryption counters (split counters,
// common counters, or the on-chip shared counter for read-only regions),
// per-block and per-chunk MACs (dual-granularity), and Bonsai Merkle Tree
// walks — plus the misprediction-recovery traffic of paper Tables III/IV
// and the L2-victim-cache mode of §IV-D.
//
// The MEE is a pure timing model: no bytes are encrypted here. The
// functional semantics live in the securemem package, which shares the same
// layout, detector, and crypto code so the two cannot drift apart.
package secmem

import (
	"fmt"

	"shmgpu/internal/cache"
	"shmgpu/internal/detectors"
	"shmgpu/internal/memdef"
	"shmgpu/internal/metadata"
)

// Options selects a secure-memory design (paper Table VIII).
type Options struct {
	// Enabled turns the MEE on. False is the insecure baseline: requests
	// pass straight through to DRAM.
	Enabled bool
	// LocalMetadata constructs metadata from partition-local addresses
	// (PSSM). False uses physical addresses (the Naive and Common_ctr
	// designs), which scatters metadata across partitions and duplicates
	// it in every partition's metadata caches.
	LocalMetadata bool
	// SectoredMetadata fetches 32 B metadata sectors (PSSM). False
	// fetches full 128 B metadata blocks per miss, CPU-style.
	SectoredMetadata bool
	// CommonCounters enables the common-counter compression: pages whose
	// counters still hold the context-wide common value need no counter
	// fetch; the first write diverges the page.
	CommonCounters bool
	// ReadOnlyOpt enables the shared-counter path: read-only regions use
	// the on-chip shared counter (no counter fetch) and are excluded from
	// the BMT (no freshness walk).
	ReadOnlyOpt bool
	// DualGranMAC enables per-chunk MACs for streaming-predicted chunks.
	DualGranMAC bool
	// OracleDetectors replaces both predictors with unlimited-capacity
	// oracles preloaded from profiling (SHM_upper_bound).
	OracleDetectors bool
	// VictimL2 allows using the partition's L2 as a victim cache for
	// evicted metadata sectors when the sampled L2 miss rate is high.
	VictimL2 bool
	// TrackAccuracy enables the Fig. 10/11 prediction-accuracy harness.
	TrackAccuracy bool
}

// Config configures one partition's MEE.
type Config struct {
	Options
	// Partition is this MEE's partition index.
	Partition int
	// NumPartitions is the total partition count (for physical-address
	// metadata routing).
	NumPartitions int
	// ProtectedBytes is the protected space the metadata layout covers:
	// the per-partition local capacity under LocalMetadata, or the whole
	// device memory otherwise.
	ProtectedBytes uint64
	// CtrCache, MACCache, BMTCache configure the metadata caches
	// (paper Table VI: 2 KB, 128 B blocks, 4-way, 256 MSHRs each).
	CtrCache, MACCache, BMTCache cache.Config
	// ReadOnly and Streaming configure the two detectors.
	ReadOnly  detectors.ReadOnlyConfig
	Streaming detectors.StreamingConfig
	// AESLatency is the OTP generation latency in cycles.
	AESLatency uint64
	// HashLatency is the MAC/hash engine latency in cycles.
	HashLatency uint64
	// InputQueue bounds requests accepted from the L2 banks.
	InputQueue int
	// IssuePerCycle bounds requests processed per cycle.
	IssuePerCycle int
}

// DefaultConfig returns the paper's MEE configuration (Table VI) for one
// partition of a system with numPartitions partitions protecting
// protectedBytes per the addressing mode of opts.
func DefaultConfig(opts Options, partition, numPartitions int, protectedBytes uint64) Config {
	mdc := func(name string) cache.Config {
		return cache.Config{
			Name:             fmt.Sprintf("%s-p%d", name, partition),
			SizeBytes:        2048,
			Ways:             4,
			MSHRs:            256,
			MaxMergesPerMSHR: 16,
		}
	}
	return Config{
		Options:        opts,
		Partition:      partition,
		NumPartitions:  numPartitions,
		ProtectedBytes: protectedBytes,
		CtrCache:       mdc("ctr"),
		MACCache:       mdc("mac"),
		BMTCache:       mdc("bmt"),
		ReadOnly:       detectors.DefaultReadOnlyConfig(),
		Streaming:      detectors.DefaultStreamingConfig(),
		AESLatency:     40,
		HashLatency:    40,
		InputQueue:     64,
		IssuePerCycle:  2,
	}
}

// Validate reports a configuration NewMEE cannot build or that could never
// issue a request: the partition count, the metadata layout over
// ProtectedBytes, the three metadata caches, both detectors, and a
// positive input queue and issue width.
func (c Config) Validate() error {
	if c.NumPartitions <= 0 {
		return fmt.Errorf("secmem: NumPartitions must be positive, got %d", c.NumPartitions)
	}
	if _, err := metadata.NewLayout(c.ProtectedBytes); err != nil {
		return fmt.Errorf("secmem: %w", err)
	}
	for _, mdc := range []cache.Config{c.CtrCache, c.MACCache, c.BMTCache} {
		if err := mdc.Validate(); err != nil {
			return fmt.Errorf("secmem: %w", err)
		}
	}
	if err := c.ReadOnly.Validate(); err != nil {
		return fmt.Errorf("secmem: %w", err)
	}
	if err := c.Streaming.Validate(); err != nil {
		return fmt.Errorf("secmem: %w", err)
	}
	if c.InputQueue <= 0 || c.IssuePerCycle <= 0 {
		return fmt.Errorf("secmem: InputQueue and IssuePerCycle must be positive, got %d and %d", c.InputQueue, c.IssuePerCycle)
	}
	return nil
}

// VictimCache is the hook the GPU layer provides for the L2-as-victim-cache
// mode: evicted metadata sectors are pushed into the partition's L2, and
// metadata misses probe it before going to DRAM.
type VictimCache interface {
	// PushVictim installs a metadata sector into the L2.
	PushVictim(addr memdef.Addr)
	// ProbeVictim looks up (and consumes) a metadata sector; it reports
	// whether the sector was present.
	ProbeVictim(addr memdef.Addr) bool
	// VictimActive reports whether victim mode is currently enabled by
	// the L2 miss-rate sampler.
	VictimActive() bool
}

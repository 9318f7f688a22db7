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
// functional semantics and the cryptography live in the securemem package.
// Both packages compute metadata addresses with the layout arithmetic of
// internal/metadata, but nothing yet checks the addresses the MEE derives:
// under Naive and Common_ctr, L2 write-backs reach metaAddrFor with the
// wrong Phys (ROADMAP items 8 and 11).
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

// Tuning is the part of the MEE configuration a GPU config can vary: the
// values the ablation studies sweep and the fuzzer pushes to their edges.
// Everything else in Config is fixed at its Table VI value or derived from
// the partition.
type Tuning struct {
	// CacheBytes is the capacity of each of the counter, MAC and BMT
	// caches (paper: 2 KB).
	CacheBytes int
	// Trackers, WindowAccesses, TimeoutCycles and MonitorLead configure
	// the streaming detector's memory access trackers (paper: 8, K = 32,
	// 6000 cycles; lead 4 chunks).
	Trackers       int
	WindowAccesses int
	TimeoutCycles  uint64
	MonitorLead    uint64
	// ReadOnlyEntries and StreamingEntries are the two predictors'
	// bit-vector lengths (paper: 1024 and 2048).
	ReadOnlyEntries  int
	StreamingEntries int
	// InputQueue bounds requests accepted from the L2 banks; IssuePerCycle
	// bounds requests processed per cycle.
	InputQueue    int
	IssuePerCycle int
}

// DefaultTuning returns the paper's values (Table VI).
func DefaultTuning() Tuning {
	ro, st := detectors.DefaultReadOnlyConfig(), detectors.DefaultStreamingConfig()
	return Tuning{
		CacheBytes:       2048,
		Trackers:         st.Trackers,
		WindowAccesses:   st.WindowAccesses,
		TimeoutCycles:    st.TimeoutCycles,
		MonitorLead:      st.MonitorLead,
		ReadOnlyEntries:  ro.Entries,
		StreamingEntries: st.Entries,
		InputQueue:       64,
		IssuePerCycle:    2,
	}
}

// Config returns the MEE configuration for one partition of a system with
// numPartitions partitions protecting protectedBytes per the addressing
// mode of opts, with t's values and Table VI's for the rest.
func (t Tuning) Config(opts Options, partition, numPartitions int, protectedBytes uint64) Config {
	mdc := func(name string) cache.Config {
		return cache.Config{
			Name:             fmt.Sprintf("%s-p%d", name, partition),
			SizeBytes:        t.CacheBytes,
			Ways:             4,
			MSHRs:            256,
			MaxMergesPerMSHR: 16,
		}
	}
	ro, st := detectors.DefaultReadOnlyConfig(), detectors.DefaultStreamingConfig()
	ro.Entries = t.ReadOnlyEntries
	st.Entries, st.Trackers, st.WindowAccesses = t.StreamingEntries, t.Trackers, t.WindowAccesses
	st.TimeoutCycles, st.MonitorLead = t.TimeoutCycles, t.MonitorLead
	return Config{
		Options:        opts,
		Partition:      partition,
		NumPartitions:  numPartitions,
		ProtectedBytes: protectedBytes,
		CtrCache:       mdc("ctr"),
		MACCache:       mdc("mac"),
		BMTCache:       mdc("bmt"),
		ReadOnly:       ro,
		Streaming:      st,
		AESLatency:     40,
		HashLatency:    40,
		InputQueue:     t.InputQueue,
		IssuePerCycle:  t.IssuePerCycle,
	}
}

// Upper bounds on the MEE's input queue and issue width: 64× and 32×
// their Table VI values (64 and 2).
const (
	maxInputQueue    = 4096
	maxIssuePerCycle = 64
)

// Validate reports a configuration NewMEE cannot build or that could never
// issue a request: the partition count, the metadata layout over
// ProtectedBytes, the three metadata caches, both detectors, and an input
// queue and issue width within their bounds.
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
	if c.InputQueue <= 0 || c.InputQueue > maxInputQueue {
		return fmt.Errorf("secmem: InputQueue must be in [1, %d], got %d", maxInputQueue, c.InputQueue)
	}
	if c.IssuePerCycle <= 0 || c.IssuePerCycle > maxIssuePerCycle {
		return fmt.Errorf("secmem: IssuePerCycle must be in [1, %d], got %d", maxIssuePerCycle, c.IssuePerCycle)
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

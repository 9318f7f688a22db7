// Package gpu wires the full simulated GPU together: streaming
// multiprocessors (SMs) with warp schedulers and sectored L1 caches, a
// crossbar to the memory partitions, two sectored L2 banks per partition,
// the per-partition memory encryption engines (secmem.MEE), and the GDDR
// channels (dram.Channel). It owns the cycle loop and produces the
// simulation results (IPC, traffic, cache stats, predictor accuracy) that
// the experiment harness turns into the paper's figures.
//
// The model is a trace-generating, cycle-driven simulator in the spirit of
// GPGPU-Sim's memory-system modeling: warps issue one instruction per cycle
// when ready, block on memory uses, and hide latency through multithreading;
// bandwidth contention emerges from bounded queues at every hop.
package gpu

import (
	"fmt"

	"shmgpu/internal/dram"
	"shmgpu/internal/hostmem"
	"shmgpu/internal/secmem"
)

// Config describes the simulated GPU (paper Table V by default).
type Config struct {
	// SMs is the number of streaming multiprocessors.
	SMs int
	// WarpsPerSM is the number of concurrently resident warps per SM.
	WarpsPerSM int
	// Partitions is the number of memory partitions (DRAM channels).
	Partitions int
	// L2BanksPerPartition is the number of L2 banks per partition.
	L2BanksPerPartition int
	// L2BankBytes is the capacity of each L2 bank.
	L2BankBytes int
	// L2Ways is the L2 associativity.
	L2Ways int
	// L2MSHRs and L2Merges configure each bank's MSHR file.
	L2MSHRs, L2Merges int
	// L1Bytes and L1Ways configure each SM's L1.
	L1Bytes, L1Ways int
	// L1MSHRs bounds outstanding L1 misses per SM.
	L1MSHRs int
	// L1Latency and L2Latency are hit latencies in cycles.
	L1Latency, L2Latency uint64
	// MaxWarpInflightSectors is the per-warp cap on outstanding load
	// sectors: GPU warps issue independent loads non-blocking until a use
	// (scoreboarding), so several memory instructions overlap per warp.
	MaxWarpInflightSectors int
	// XbarLatency is the one-way interconnect latency in cycles.
	XbarLatency uint64
	// XbarQueueDepth is the per-partition crossbar request queue capacity;
	// SMs see back-pressure when a partition's queue is full. (Previously a
	// hardcoded 64 in the tick loop.)
	XbarQueueDepth int
	// DisableFastForward forces every-cycle ticking instead of the
	// event-horizon fast-forward. Results are identical either way (the
	// equivalence property test runs both); the knob exists for that test
	// and for debugging horizon regressions.
	DisableFastForward bool
	// DeviceMemoryBytes is the protected device memory size.
	DeviceMemoryBytes uint64
	// DRAM configures each partition's channel.
	DRAM dram.Config
	// MaxCycles bounds the simulation length per kernel (0 = unlimited).
	MaxCycles uint64
	// VictimMissRateThreshold enables L2-as-victim-cache when the sampled
	// L2 data miss rate exceeds it (paper: 0.90).
	VictimMissRateThreshold float64
	// VictimSampleWindow is the accesses per miss-rate sampling epoch.
	VictimSampleWindow uint64
	// MEETune, when non-nil, adjusts each partition's MEE configuration
	// after defaults are applied — the hook ablation studies use to sweep
	// tracker counts, metadata-cache sizes, timeouts, etc.
	MEETune func(*secmem.Config)
	// HostTier enables the host-backed memory tier (UVM demand paging):
	// the workload's footprint starts host-resident behind a
	// page-granularity migration boundary, and crossbar admission faults
	// on non-resident pages (see internal/hostmem and uvm.go). With
	// OversubRatio >= 1 the working set fits in device frames, every
	// page is prepopulated, and results are byte-identical to
	// HostTier=false — the migration-equivalence property the fuzz
	// battery pins.
	HostTier bool
	// UVMPageBytes is the migration page size (0 = hostmem default;
	// must be a power of two).
	UVMPageBytes uint64
	// OversubRatio is device frame capacity as a fraction of the
	// workload footprint: frames = floor(ratio * pages), so 0.5 fits
	// half the working set. Values >= 1 disable faulting entirely.
	// Required (> 0) when HostTier is set.
	OversubRatio float64
	// UVMMigrationPolicy selects the eviction victim: "lru" (default)
	// or "fifo".
	UVMMigrationPolicy string
	// UVMHostIntegrity selects metadata handling across the PCIe
	// boundary: "rebuild" (default) tears down device-side
	// counter/MAC/BMT coverage on eviction and fully re-establishes it
	// on fault-in (detector-visible, expensive); "hostside" trusts a
	// host-side MEE to keep coverage valid, so fault-in only re-keys.
	UVMHostIntegrity string
	// UVMPCIeLatency and UVMPCIeBytesPerCycle override the modeled
	// migration link (0 = hostmem defaults).
	UVMPCIeLatency, UVMPCIeBytesPerCycle uint64
	// UVMPrefetch selects the migration-ahead policy: "none" (default,
	// purely demand-driven), "stride" (per-fault-stream sequential
	// stride detection), or "stream" (the paper's streaming-detector
	// classification drives bulk fetch-ahead with eager eviction). At
	// OversubRatio >= 1 no faults occur, so every policy is provably
	// idle and results stay byte-identical to HostTier=false.
	UVMPrefetch string
	// UVMPrefetchDegree is how many pages one prefetch trigger fetches
	// ahead (0 = hostmem default).
	UVMPrefetchDegree int
	// UVMBatchPages caps how many adjacent pages coalesce into one
	// batched PCIe transaction, paying link latency and metadata
	// re-establishment once per batch (0 = hostmem default).
	UVMBatchPages int
	// UVMLargePages switches migration granularity to 2 MiB large pages
	// with 64 KiB sub-page dirty tracking, so writebacks transfer only
	// the sub-pages actually written. Mutually exclusive with
	// UVMPageBytes.
	UVMLargePages bool
}

// DefaultConfig returns the paper's baseline GPU (Table V), with a device
// memory sized down from 4 GB to keep simulations fast while preserving all
// addressing behaviour (the metadata layout scales linearly).
func DefaultConfig() Config {
	return Config{
		SMs:                     30,
		WarpsPerSM:              24,
		Partitions:              12,
		L2BanksPerPartition:     2,
		L2BankBytes:             128 << 10,
		L2Ways:                  8,
		L2MSHRs:                 192,
		L2Merges:                16,
		L1Bytes:                 64 << 10,
		L1Ways:                  4,
		L1MSHRs:                 64,
		L1Latency:               20,
		L2Latency:               30,
		XbarLatency:             20,
		XbarQueueDepth:          64,
		MaxWarpInflightSectors:  32,
		DeviceMemoryBytes:       768 << 20,
		DRAM:                    dram.DefaultConfig(),
		MaxCycles:               400_000,
		VictimMissRateThreshold: 0.90,
		VictimSampleWindow:      8192,
	}
}

// Validate checks configuration consistency.
func (c Config) Validate() error {
	if c.SMs <= 0 || c.WarpsPerSM <= 0 {
		return fmt.Errorf("gpu: SMs and warps must be positive")
	}
	if c.Partitions <= 0 || c.L2BanksPerPartition <= 0 {
		return fmt.Errorf("gpu: partitions and banks must be positive")
	}
	if c.DeviceMemoryBytes == 0 {
		return fmt.Errorf("gpu: DeviceMemoryBytes must be positive")
	}
	if c.DeviceMemoryBytes%uint64(c.Partitions) != 0 {
		return fmt.Errorf("gpu: device memory %d not divisible by %d partitions", c.DeviceMemoryBytes, c.Partitions)
	}
	if c.XbarQueueDepth <= 0 {
		return fmt.Errorf("gpu: XbarQueueDepth must be positive")
	}
	if c.MaxWarpInflightSectors <= 0 {
		// No warp could ever issue: without MaxCycles the run never ends.
		return fmt.Errorf("gpu: MaxWarpInflightSectors must be positive, got %d", c.MaxWarpInflightSectors)
	}
	if err := c.l1Config().Validate(); err != nil {
		return fmt.Errorf("gpu: %w", err)
	}
	if err := c.l2Config().Validate(); err != nil {
		return fmt.Errorf("gpu: %w", err)
	}
	if c.HostTier {
		if !(c.OversubRatio > 0) {
			return fmt.Errorf("gpu: HostTier requires OversubRatio > 0, got %g", c.OversubRatio)
		}
		if c.UVMPageBytes != 0 && c.UVMPageBytes&(c.UVMPageBytes-1) != 0 {
			return fmt.Errorf("gpu: UVMPageBytes %d is not a power of two", c.UVMPageBytes)
		}
		if _, err := hostmem.ParsePolicy(c.UVMMigrationPolicy); err != nil {
			return err
		}
		if _, err := hostmem.ParseIntegrity(c.UVMHostIntegrity); err != nil {
			return err
		}
		if _, err := hostmem.ParsePrefetch(c.UVMPrefetch); err != nil {
			return err
		}
		if c.UVMLargePages && c.UVMPageBytes != 0 {
			return fmt.Errorf("gpu: UVMLargePages and UVMPageBytes %d are mutually exclusive", c.UVMPageBytes)
		}
		if c.UVMPrefetchDegree < 0 || c.UVMBatchPages < 0 {
			return fmt.Errorf("gpu: UVMPrefetchDegree and UVMBatchPages must be non-negative")
		}
	}
	return c.DRAM.Validate()
}

// MEEOptionsToConfig builds the per-partition MEE config for the selected
// design options.
func (c Config) MEEOptionsToConfig(opts secmem.Options, partition int) secmem.Config {
	protected := c.DeviceMemoryBytes / uint64(c.Partitions)
	if !opts.LocalMetadata {
		protected = c.DeviceMemoryBytes
	}
	cfg := secmem.DefaultConfig(opts, partition, c.Partitions, protected)
	if c.MEETune != nil {
		c.MEETune(&cfg)
	}
	return cfg
}

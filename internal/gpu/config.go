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
	"shmgpu/internal/metadata"
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
	// MEE holds the MEE values that vary between configurations (paper
	// Table VI by default): the ablation studies sweep tracker counts,
	// metadata-cache sizes and timeouts through it.
	MEE secmem.Tuning
	// HostTier enables the host-backed memory tier (UVM demand paging):
	// the workload's footprint starts host-resident behind a
	// page-granularity migration boundary, and crossbar admission faults
	// on non-resident pages (see internal/hostmem and uvm.go). With
	// OversubRatio >= 1 the working set fits in device frames, every
	// page is prepopulated, and results are byte-identical to
	// HostTier=false — the migration-equivalence property the fuzz
	// battery pins.
	HostTier bool
	// UVMPageBytes is the migration page size: 0 (the hostmem default,
	// 64 KiB) or a power of two in [4 KiB, 2 MiB].
	UVMPageBytes uint64
	// OversubRatio is device frame capacity as a fraction of the
	// workload footprint: frames = floor(ratio * pages), so 0.5 fits
	// half the working set. Values >= 1 disable faulting entirely.
	// Required (> 0) when HostTier is set.
	OversubRatio float64
	// UVMPrefetch selects the migration-ahead policy: "none" (default,
	// purely demand-driven), "stride" (per-fault-stream sequential
	// stride detection), or "stream" (the paper's streaming-detector
	// classification drives bulk fetch-ahead with eager eviction). At
	// OversubRatio >= 1 no faults occur, so every policy is provably
	// idle and results stay byte-identical to HostTier=false.
	UVMPrefetch string
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
		MEE:                     secmem.DefaultTuning(),
	}
}

// Upper bounds on the grid and memory-system dimensions. Each is at least
// 8× its DefaultConfig value and at most math.MaxInt16, so SM, warp and
// partition ids fit an int16, and a config naming an absurd size is an
// error instead of a cell whose setup never finishes.
const (
	maxSMs                 = 256
	maxWarpsPerSM          = 256
	maxPartitions          = 128
	maxL2BanksPerPartition = 16
	maxXbarQueueDepth      = 4096
	maxWarpInflight        = 1024
)

// Upper bounds on the hit and interconnect latencies and on the victim
// cache's sampling window, each at least 8× its DefaultConfig value. A
// latency without a bound is a hang: a quick atax cell with a 1 000 000-cycle
// L2 latency and no MaxCycles had not finished after a minute of wall time.
const (
	maxLatency            = 1 << 10
	maxVictimSampleWindow = 1 << 20
)

// The accepted UVM migration page sizes (besides 0, the default). A page
// below minUVMPageBytes multiplies the tier's per-page arrays: at 1 B per
// page a multi-MB footprint would need hundreds of MB of bookkeeping.
const (
	minUVMPageBytes = 4 << 10
	maxUVMPageBytes = 2 << 20
)

// Validate checks configuration consistency.
func (c Config) Validate() error {
	for _, d := range []struct {
		name   string
		n, max int
	}{
		{"SMs", c.SMs, maxSMs},
		{"WarpsPerSM", c.WarpsPerSM, maxWarpsPerSM},
		{"Partitions", c.Partitions, maxPartitions},
		{"L2BanksPerPartition", c.L2BanksPerPartition, maxL2BanksPerPartition},
	} {
		if d.n <= 0 || d.n > d.max {
			return fmt.Errorf("gpu: %s must be in [1, %d], got %d", d.name, d.max, d.n)
		}
	}
	for _, d := range []struct {
		name   string
		n, max uint64
	}{
		{"L1Latency", c.L1Latency, maxLatency},
		{"L2Latency", c.L2Latency, maxLatency},
		{"XbarLatency", c.XbarLatency, maxLatency},
		{"VictimSampleWindow", c.VictimSampleWindow, maxVictimSampleWindow},
	} {
		if d.n > d.max {
			return fmt.Errorf("gpu: %s must be at most %d, got %d", d.name, d.max, d.n)
		}
	}
	if c.DeviceMemoryBytes == 0 {
		return fmt.Errorf("gpu: DeviceMemoryBytes must be positive")
	}
	if c.DeviceMemoryBytes%uint64(c.Partitions) != 0 {
		return fmt.Errorf("gpu: device memory %d not divisible by %d partitions", c.DeviceMemoryBytes, c.Partitions)
	}
	// Counter blocks must tile each partition's protected space (and so
	// the whole space the naive design protects).
	if _, err := metadata.NewLayout(c.DeviceMemoryBytes / uint64(c.Partitions)); err != nil {
		return fmt.Errorf("gpu: %w", err)
	}
	if c.XbarQueueDepth <= 0 || c.XbarQueueDepth > maxXbarQueueDepth {
		return fmt.Errorf("gpu: XbarQueueDepth must be in [1, %d], got %d", maxXbarQueueDepth, c.XbarQueueDepth)
	}
	if c.MaxWarpInflightSectors <= 0 || c.MaxWarpInflightSectors > maxWarpInflight {
		// At 0 no warp could ever issue: without MaxCycles the run never ends.
		return fmt.Errorf("gpu: MaxWarpInflightSectors must be in [1, %d], got %d", maxWarpInflight, c.MaxWarpInflightSectors)
	}
	if err := c.l1Config().Validate(); err != nil {
		return fmt.Errorf("gpu: %w", err)
	}
	if err := c.l2Config().Validate(); err != nil {
		return fmt.Errorf("gpu: %w", err)
	}
	// Every partition's MEE takes the same MEE values under either
	// addressing mode, so one partition's config checks them.
	if err := c.MEEOptionsToConfig(secmem.Options{}, 0).Validate(); err != nil {
		return fmt.Errorf("gpu: MEE: %w", err)
	}
	if c.HostTier {
		if !(c.OversubRatio > 0) {
			return fmt.Errorf("gpu: HostTier requires OversubRatio > 0, got %g", c.OversubRatio)
		}
		if p := c.UVMPageBytes; p != 0 && (p&(p-1) != 0 || p < minUVMPageBytes || p > maxUVMPageBytes) {
			return fmt.Errorf("gpu: UVMPageBytes must be 0 or a power of two in [%d, %d], got %d", minUVMPageBytes, maxUVMPageBytes, p)
		}
		if _, err := hostmem.ParsePrefetch(c.UVMPrefetch); err != nil {
			return err
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
	return c.MEE.Config(opts, partition, c.Partitions, protected)
}

// Package fuzz is the simulator's generative testing layer: a seeded
// random generator of valid GPU configurations and synthetic workloads, a
// differential-oracle runner that executes each generated cell under
// multiple cycle-skipping modes and secure-memory schemes and checks a
// battery of equivalence, metamorphic and conservation properties, and a
// deterministic shrinker that reduces failing cells to minimal replayable
// JSON repros.
//
// The package exists because the cycle core's correctness story rests on
// promises that hand-picked corpora cannot exhaust: event-horizon
// fast-forward must be byte-identical to every-cycle ticking, runs must be
// bit-reproducible under a seed, and the metadata-traffic accounting the
// paper's comparisons rest on must obey closed-form conservation laws for
// every configuration, not just the shipped benchmarks. cmd/shmfuzz drives
// timed campaigns over this package; the native go-fuzz targets in
// fuzz_test.go wrap the same oracles.
package fuzz

import (
	"encoding/json"
	"fmt"
	"os"

	"shmgpu/internal/dram"
	"shmgpu/internal/gpu"
	"shmgpu/internal/memdef"
	"shmgpu/internal/scheme"
	"shmgpu/internal/secmem"
	"shmgpu/internal/workload"
)

// Case is one replayable fuzz cell: a seed, a GPU configuration delta, a
// synthetic workload, and the scheme set to run it under. The zero value
// of every optional field means "use the tiny base default", so shrunk
// repros serialize to only the fields that matter.
type Case struct {
	// Name labels the cell in findings and logs.
	Name string `json:"name,omitempty"`
	// Seed is the workload seed (threaded into every warp program).
	Seed int64 `json:"seed"`
	// Config is the GPU configuration delta over the tiny base.
	Config ConfigSpec `json:"config"`
	// Workload is the synthetic kernel model.
	Workload WorkloadSpec `json:"workload"`
	// Schemes is the secure-memory designs to run (default: Baseline,
	// Naive, PSSM, SHM).
	Schemes []string `json:"schemes,omitempty"`
}

// ConfigSpec is the fuzzer-visible subset of gpu.Config. Zero fields take
// the tiny-base default (see BaseConfig), keeping repro JSON minimal.
type ConfigSpec struct {
	SMs            int `json:"sms,omitempty"`
	WarpsPerSM     int `json:"warps,omitempty"`
	Partitions     int `json:"partitions,omitempty"`
	L2Banks        int `json:"l2_banks,omitempty"`
	L2BankKB       int `json:"l2_bank_kb,omitempty"`
	L1KB           int `json:"l1_kb,omitempty"`
	L1MSHRs        int `json:"l1_mshrs,omitempty"`
	L2MSHRs        int `json:"l2_mshrs,omitempty"`
	XbarQueueDepth int `json:"xbar_queue,omitempty"`
	MaxInflight    int `json:"max_inflight,omitempty"`
	DeviceMemMB    int `json:"device_mem_mb,omitempty"`
	MaxKCycles     int `json:"max_kcycles,omitempty"`
	DRAMQueueDepth int `json:"dram_queue,omitempty"`
	DRAMBanks      int `json:"dram_banks,omitempty"`
	// UVM host-tier knobs. OversubPct > 0 enables the host-backed tier
	// with a device frame budget covering OversubPct percent of the
	// working set (100 ⇒ everything fits, which the migration-equivalence
	// oracle pins byte-identical to the tier being off). UVMPageKB
	// overrides the migration page size (tiny-base default 16 KB, so even
	// one-buffer working sets span several pages); UVMFIFO switches the
	// eviction policy from LRU to FIFO; UVMHostSide selects the cheap
	// host-side integrity mode instead of the device-side rebuild.
	OversubPct  int  `json:"oversub_pct,omitempty"`
	UVMPageKB   int  `json:"uvm_page_kb,omitempty"`
	UVMFIFO     bool `json:"uvm_fifo,omitempty"`
	UVMHostSide bool `json:"uvm_hostside,omitempty"`
	// UVMPrefetch selects the migration-ahead policy ("" = demand-only;
	// "stride" or "stream"); UVMBatchPages caps coalesced migration batch
	// size; UVMLargePage switches to 2 MiB pages with sub-page dirty
	// tracking (it overrides UVMPageKB — the two are mutually exclusive
	// in gpu.Config).
	UVMPrefetch   string `json:"uvm_prefetch,omitempty"`
	UVMBatchPages int    `json:"uvm_batch,omitempty"`
	UVMLargePage  bool   `json:"uvm_large_page,omitempty"`

	// MEE / detector knobs, applied through Config.MEETune.
	MDCacheBytes   int    `json:"mdc_bytes,omitempty"`
	Trackers       int    `json:"trackers,omitempty"`
	WindowAccesses int    `json:"window_accesses,omitempty"`
	TimeoutCycles  uint64 `json:"timeout_cycles,omitempty"`
	MonitorLead    uint64 `json:"monitor_lead,omitempty"`
	ROEntries      int    `json:"ro_entries,omitempty"`
	StreamEntries  int    `json:"stream_entries,omitempty"`
	MEEInputQueue  int    `json:"mee_input_queue,omitempty"`
	MEEIssue       int    `json:"mee_issue,omitempty"`
}

// WorkloadSpec is the synthetic kernel model of a cell.
type WorkloadSpec struct {
	Buffers         []BufferSpec `json:"buffers"`
	ComputePerMem   int          `json:"compute_per_mem,omitempty"`
	Kernels         int          `json:"kernels,omitempty"`
	MemInstsPerWarp int          `json:"mem_insts,omitempty"`
	FrontierWindow  int          `json:"frontier_window,omitempty"`
	RewriteInputs   bool         `json:"rewrite_inputs,omitempty"`
	UseResetAPI     bool         `json:"use_reset_api,omitempty"`
}

// BufferSpec declares one device allocation of the synthetic kernel.
type BufferSpec struct {
	Name       string  `json:"name,omitempty"`
	KB         int     `json:"kb"`
	Pattern    string  `json:"pattern,omitempty"` // stream|random|stencil|gather
	Space      string  `json:"space,omitempty"`   // global|local|constant|texture
	ReadOnly   bool    `json:"read_only,omitempty"`
	WriteFrac  float64 `json:"write_frac,omitempty"`
	Weight     float64 `json:"weight,omitempty"` // default 1
	HostCopied bool    `json:"host_copied,omitempty"`
}

// Tiny-base defaults. The base is deliberately far smaller than
// QuickConfig: a fuzz campaign's value is cells per second, and every
// mechanism (sectoring, MSHRs, queue back-pressure, detector phases,
// metadata walks) is exercised at this scale too.
const (
	baseSMs          = 2
	baseWarps        = 4
	basePartitions   = 2
	baseL2Banks      = 1
	baseL2BankKB     = 16
	baseL1KB         = 4
	baseL1MSHRs      = 8
	baseL2MSHRs      = 16
	baseXbarQueue    = 8
	baseMaxInflight  = 8
	baseDeviceMemMB  = 4
	baseMaxKCycles   = 60
	baseDRAMQueue    = 8
	baseDRAMBanks    = 4
	baseMemInsts     = 16
	baseKernels      = 1
	baseBufferKB     = 16
	baseBufferWeight = 1.0
	baseUVMPageKB    = 16
)

// DefaultSchemes is the scheme set a Case with no explicit Schemes runs:
// the insecure baseline, the CPU-style naive design, PSSM, and full SHM —
// the minimum set over which all cross-scheme metamorphic oracles apply.
var DefaultSchemes = []string{"Baseline", "Naive", "PSSM", "SHM"}

func orInt(v, def int) int {
	if v == 0 {
		return def
	}
	return v
}

func orU64(v, def uint64) uint64 {
	if v == 0 {
		return def
	}
	return v
}

// SchemeNames returns the cell's scheme list with the default applied.
func (c Case) SchemeNames() []string {
	if len(c.Schemes) == 0 {
		return append([]string(nil), DefaultSchemes...)
	}
	return c.Schemes
}

// GPUConfig materializes the cell's gpu.Config: the tiny base with the
// spec's non-zero fields applied, plus an MEETune hook carrying the
// detector and MEE-queue overrides.
func (c Case) GPUConfig() gpu.Config {
	s := c.Config
	cfg := gpu.Config{
		SMs:                     orInt(s.SMs, baseSMs),
		WarpsPerSM:              orInt(s.WarpsPerSM, baseWarps),
		Partitions:              orInt(s.Partitions, basePartitions),
		L2BanksPerPartition:     orInt(s.L2Banks, baseL2Banks),
		L2BankBytes:             orInt(s.L2BankKB, baseL2BankKB) << 10,
		L2Ways:                  4,
		L2MSHRs:                 orInt(s.L2MSHRs, baseL2MSHRs),
		L2Merges:                4,
		L1Bytes:                 orInt(s.L1KB, baseL1KB) << 10,
		L1Ways:                  2,
		L1MSHRs:                 orInt(s.L1MSHRs, baseL1MSHRs),
		L1Latency:               20,
		L2Latency:               30,
		XbarLatency:             20,
		XbarQueueDepth:          orInt(s.XbarQueueDepth, baseXbarQueue),
		MaxWarpInflightSectors:  orInt(s.MaxInflight, baseMaxInflight),
		DeviceMemoryBytes:       uint64(orInt(s.DeviceMemMB, baseDeviceMemMB)) << 20,
		MaxCycles:               uint64(orInt(s.MaxKCycles, baseMaxKCycles)) * 1000,
		VictimMissRateThreshold: 0.90,
		VictimSampleWindow:      1024,
		DRAM: dram.Config{
			Banks:           orInt(s.DRAMBanks, baseDRAMBanks),
			RowBytes:        512,
			CASCycles:       40,
			RowCycles:       80,
			BytesPerCycleFP: 4759,
			QueueDepth:      orInt(s.DRAMQueueDepth, baseDRAMQueue),
		},
	}
	if s.OversubPct > 0 {
		cfg.HostTier = true
		cfg.OversubRatio = float64(s.OversubPct) / 100
		if s.UVMLargePage {
			cfg.UVMLargePages = true
		} else {
			cfg.UVMPageBytes = uint64(orInt(s.UVMPageKB, baseUVMPageKB)) << 10
		}
		if s.UVMFIFO {
			cfg.UVMMigrationPolicy = "fifo"
		}
		if s.UVMHostSide {
			cfg.UVMHostIntegrity = "hostside"
		}
		cfg.UVMPrefetch = s.UVMPrefetch
		cfg.UVMBatchPages = s.UVMBatchPages
	}
	if s.needsMEETune() {
		s := s // capture the spec, not the loop/receiver variable
		cfg.MEETune = func(mc *secmem.Config) {
			if s.MDCacheBytes != 0 {
				mc.CtrCache.SizeBytes = s.MDCacheBytes
				mc.MACCache.SizeBytes = s.MDCacheBytes
				mc.BMTCache.SizeBytes = s.MDCacheBytes
			}
			if s.Trackers != 0 {
				mc.Streaming.Trackers = s.Trackers
			}
			if s.WindowAccesses != 0 {
				mc.Streaming.WindowAccesses = s.WindowAccesses
			}
			if s.TimeoutCycles != 0 {
				mc.Streaming.TimeoutCycles = s.TimeoutCycles
			}
			if s.MonitorLead != 0 {
				mc.Streaming.MonitorLead = s.MonitorLead
			}
			if s.ROEntries != 0 {
				mc.ReadOnly.Entries = s.ROEntries
			}
			if s.StreamEntries != 0 {
				mc.Streaming.Entries = s.StreamEntries
			}
			if s.MEEInputQueue != 0 {
				mc.InputQueue = s.MEEInputQueue
			}
			if s.MEEIssue != 0 {
				mc.IssuePerCycle = s.MEEIssue
			}
		}
	}
	return cfg
}

func (s ConfigSpec) needsMEETune() bool {
	return s.MDCacheBytes != 0 || s.Trackers != 0 || s.WindowAccesses != 0 ||
		s.TimeoutCycles != 0 || s.MonitorLead != 0 || s.ROEntries != 0 ||
		s.StreamEntries != 0 || s.MEEInputQueue != 0 || s.MEEIssue != 0
}

func parseSpace(name string) (memdef.Space, error) {
	switch name {
	case "", "global":
		return memdef.SpaceGlobal, nil
	case "local":
		return memdef.SpaceLocal, nil
	case "constant":
		return memdef.SpaceConstant, nil
	case "texture":
		return memdef.SpaceTexture, nil
	}
	return memdef.SpaceGlobal, fmt.Errorf("fuzz: unknown memory space %q", name)
}

// WorkloadSpec materializes the cell's workload.Spec.
func (c Case) workloadSpec() (workload.Spec, error) {
	w := c.Workload
	spec := workload.Spec{
		BenchName:       "fuzzcell",
		ComputePerMem:   w.ComputePerMem,
		KernelCount:     orInt(w.Kernels, baseKernels),
		MemInstsPerWarp: orInt(w.MemInstsPerWarp, baseMemInsts),
		FrontierWindow:  w.FrontierWindow,
		RewriteInputs:   w.RewriteInputs,
		UseResetAPI:     w.UseResetAPI,
		Seed:            c.Seed,
	}
	if c.Name != "" {
		spec.BenchName = c.Name
	}
	for i, b := range w.Buffers {
		pat, err := workload.ParsePattern(b.Pattern)
		if err != nil {
			return workload.Spec{}, err
		}
		space, err := parseSpace(b.Space)
		if err != nil {
			return workload.Spec{}, err
		}
		name := b.Name
		if name == "" {
			name = fmt.Sprintf("buf%d", i)
		}
		weight := b.Weight
		if weight == 0 {
			weight = baseBufferWeight
		}
		spec.Buffers = append(spec.Buffers, workload.Buffer{
			Name:       name,
			Bytes:      uint64(orInt(b.KB, baseBufferKB)) << 10,
			Space:      space,
			Pattern:    pat,
			ReadOnly:   b.ReadOnly,
			WriteFrac:  b.WriteFrac,
			Weight:     weight,
			HostCopied: b.HostCopied,
		})
	}
	return spec, nil
}

// Bench builds a fresh runnable benchmark from the cell. Each simulation
// run needs its own Bench: the frontier-pacing state inside is per-run.
func (c Case) Bench() (*workload.Bench, error) {
	spec, err := c.workloadSpec()
	if err != nil {
		return nil, err
	}
	return workload.New(spec)
}

// Footprint returns the device-memory bytes the cell's buffers occupy
// after region rounding.
func (c Case) Footprint() uint64 {
	var total uint64
	for _, b := range c.Workload.Buffers {
		kb := uint64(orInt(b.KB, baseBufferKB)) << 10
		total += (kb + memdef.RegionSize - 1) &^ uint64(memdef.RegionSize-1)
	}
	return total
}

// Validate checks the cell is runnable: the GPU config passes its own
// validation, the metadata layout tiles the protected space, every scheme
// name resolves, the workload builds, and the buffers fit device memory.
func (c Case) Validate() error {
	cfg := c.GPUConfig()
	if err := cfg.Validate(); err != nil {
		return err
	}
	// Counter blocks must tile the protected space in both addressing
	// modes (metadata.NewLayout's 8 KB CounterCoverage rule).
	perPart := cfg.DeviceMemoryBytes / uint64(cfg.Partitions)
	if perPart == 0 || perPart%8192 != 0 {
		return fmt.Errorf("fuzz: per-partition memory %d not a multiple of 8 KB", perPart)
	}
	for _, name := range c.SchemeNames() {
		if _, err := scheme.ByName(name); err != nil {
			return err
		}
	}
	if len(c.Workload.Buffers) == 0 {
		return fmt.Errorf("fuzz: case has no buffers")
	}
	if _, err := c.Bench(); err != nil {
		return err
	}
	if fp := c.Footprint(); fp > cfg.DeviceMemoryBytes {
		return fmt.Errorf("fuzz: footprint %d exceeds device memory %d", fp, cfg.DeviceMemoryBytes)
	}
	return nil
}

// MarshalIndent renders the case as the canonical replayable JSON.
func (c Case) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(c, "", "  ")
}

// LoadCase reads a replayable case file written by a campaign or shrinker.
func LoadCase(path string) (Case, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Case{}, err
	}
	var c Case
	if err := json.Unmarshal(data, &c); err != nil {
		return Case{}, fmt.Errorf("fuzz: parsing %s: %w", path, err)
	}
	return c, nil
}

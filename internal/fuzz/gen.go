package fuzz

import (
	"math/rand"

	"shmgpu/internal/memdef"
	"shmgpu/internal/workload"
)

// Generation strategy: every dimension stays inside a hand-validated
// enumeration (so generated cells are always runnable) while the
// enumerations themselves are chosen adversarially — sector-boundary
// buffer sizes, single-entry predictors and trackers, one-deep queues,
// monitoring windows at the 1/32/64 edges, write-saturated tiny buffers
// for counter pressure, and multi-kernel read-only rewrite cycles.

func pick(rng *rand.Rand, vals ...int) int { return vals[rng.Intn(len(vals))] }

func pickU64(rng *rand.Rand, vals ...uint64) uint64 { return vals[rng.Intn(len(vals))] }

func chance(rng *rand.Rand, p float64) bool { return rng.Float64() < p }

// Generate derives one random valid Case from rng. The same rng state
// always yields the same case; campaigns derive a fresh
// rand.New(rand.NewSource(seed+i)) per cell so any cell can be
// regenerated from (campaign seed, index) alone.
func Generate(rng *rand.Rand) Case {
	var c Case
	c.Workload.Seed = 1 + rng.Int63n(1<<30)

	// --- GPU shape ---
	base, d := baseConfig(), &c.Config
	if chance(rng, 0.5) {
		d.set("SMs", pick(rng, 1, 2, 3, 4))
	}
	if chance(rng, 0.5) {
		d.set("WarpsPerSM", pick(rng, 1, 2, 4, 8))
	}
	partitions := base.Partitions
	if chance(rng, 0.5) {
		partitions = pick(rng, 1, 2, 4)
		d.set("Partitions", partitions)
	}
	if chance(rng, 0.3) {
		d.set("L2BanksPerPartition", pick(rng, 1, 2))
	}
	if chance(rng, 0.3) {
		d.set("L2BankBytes", pick(rng, 8, 16, 32)<<10)
	}
	if chance(rng, 0.3) {
		d.set("L1Bytes", pick(rng, 2, 4, 8)<<10)
	}
	// Tiny queue depths and MSHR files: back-pressure and head-of-line
	// blocking are where cycle-skipping bugs hide.
	if chance(rng, 0.4) {
		d.set("XbarQueueDepth", pick(rng, 1, 2, 4))
	}
	if chance(rng, 0.4) {
		d.set("DRAM.QueueDepth", pick(rng, 1, 2, 4))
	}
	if chance(rng, 0.3) {
		d.set("L1MSHRs", pick(rng, 1, 2, 4))
	}
	if chance(rng, 0.3) {
		d.set("L2MSHRs", pick(rng, 1, 2, 4, 8))
	}
	if chance(rng, 0.3) {
		d.set("MaxWarpInflightSectors", pick(rng, 1, 2, 4, 16))
	}
	if chance(rng, 0.2) {
		d.set("DRAM.Banks", pick(rng, 1, 2, 8))
	}
	if chance(rng, 0.2) {
		d.set("MEE.InputQueue", pick(rng, 1, 2, 8))
	}
	if chance(rng, 0.2) {
		d.set("MEE.IssuePerCycle", 1)
	}
	// Detector epoch edges: windows at the 1/31/33/64 boundaries, idle
	// timeouts from 1 cycle up, single-tracker files, and single-entry
	// predictors for maximum aliasing.
	if chance(rng, 0.35) {
		d.set("MEE.Trackers", pick(rng, 1, 2, 4))
	}
	if chance(rng, 0.35) {
		d.set("MEE.WindowAccesses", pick(rng, 1, 2, 31, 33, 64))
	}
	if chance(rng, 0.35) {
		d.set("MEE.TimeoutCycles", pickU64(rng, 1, 16, 100, 999))
	}
	if chance(rng, 0.2) {
		d.set("MEE.MonitorLead", pickU64(rng, 1, 2, 8))
	}
	if chance(rng, 0.25) {
		d.set("MEE.ReadOnlyEntries", pick(rng, 1, 2, 8))
	}
	if chance(rng, 0.25) {
		d.set("MEE.StreamingEntries", pick(rng, 1, 2, 8))
	}
	// Tiny metadata caches force eviction/writeback churn. Sizes must
	// keep 4-way power-of-two set counts: 512 B = 1 set, 1024 B = 2.
	if chance(rng, 0.3) {
		d.set("MEE.CacheBytes", pick(rng, 512, 1024))
	}
	perPartMB := pick(rng, 1, 2, 4)
	budget := uint64(perPartMB*partitions) << 20
	if budget != base.DeviceMemoryBytes {
		d.set("DeviceMemoryBytes", budget)
	}
	if chance(rng, 0.3) {
		d.set("MaxCycles", pick(rng, 20, 40, 80)*1000)
	}
	// UVM host tier: ratios straddling the fit boundary (1.0 exactly is
	// the migration-equivalence edge), small pages so tiny working sets
	// still span several, both eviction policies and integrity modes,
	// and the migration-ahead knobs (prefetch policy, batch cap, large
	// pages — which clear the explicit page size; the two are mutually
	// exclusive in gpu.Config).
	if chance(rng, 0.35) {
		d.set("HostTier", true)
		d.set("OversubRatio", float64(pick(rng, 25, 50, 75, 100, 150))/100)
		if chance(rng, 0.15) {
			d.set("UVMLargePages", true)
			d.set("UVMPageBytes", 0)
		} else if chance(rng, 0.5) {
			d.set("UVMPageBytes", pick(rng, 4, 16, 64)<<10)
		}
		if chance(rng, 0.3) {
			d.set("UVMMigrationPolicy", "fifo")
		}
		if chance(rng, 0.3) {
			d.set("UVMHostIntegrity", "hostside")
		}
		if chance(rng, 0.5) {
			d.set("UVMPrefetch", []string{"stride", "stream"}[rng.Intn(2)])
			if chance(rng, 0.4) {
				d.set("UVMBatchPages", pick(rng, 2, 4, 8))
			}
		}
	}

	// --- workload ---
	w := &c.Workload
	if chance(rng, 0.6) {
		w.MemInstsPerWarp = pick(rng, 4, 8, 32, 64)
	}
	if chance(rng, 0.5) {
		w.ComputePerMem = pick(rng, 1, 2, 4, 8)
	}
	if chance(rng, 0.3) {
		w.KernelCount = pick(rng, 2, 3)
		w.RewriteInputs = chance(rng, 0.5)
		w.UseResetAPI = w.RewriteInputs && chance(rng, 0.5)
	}
	if chance(rng, 0.3) {
		w.FrontierWindow = pick(rng, 1, 2, 8)
	}

	// The budget is at least 1 MB and a buffer at most 256 KB, so the
	// first buffer always fits.
	nBuf := 1 + rng.Intn(4)
	for i := 0; i < nBuf; i++ {
		w.Buffers = append(w.Buffers, genBuffer(rng))
		if b, err := workload.New(baseWorkload(*w)); err != nil || b.Footprint() > budget {
			w.Buffers = w.Buffers[:i]
			break
		}
	}

	// --- schemes ---
	// Always keep the four-design core so every metamorphic oracle
	// applies; sometimes ride extra Table VIII designs along.
	if chance(rng, 0.3) {
		extras := []string{"Common_ctr", "PSSM_cctr", "SHM_readOnly", "SHM_cctr"}
		c.Schemes = append(append([]string(nil), DefaultSchemes...),
			extras[rng.Intn(len(extras))])
	}
	return c
}

func genBuffer(rng *rand.Rand) workload.Buffer {
	var b workload.Buffer
	// Sizes sit on and just off the 16 KB region / 4 KB chunk boundaries
	// (the declared size is region-rounded at placement; off-boundary
	// values exercise that rounding).
	b.Bytes = uint64(pick(rng, 4, 15, 16, 17, 32, 48, 63, 64, 128, 256)) << 10
	switch rng.Intn(10) {
	case 0, 1, 2, 3: // stream stays the most common, as on real GPUs
	case 4, 5, 6:
		b.Pattern = workload.Random
	case 7, 8:
		b.Pattern = workload.Stencil
	default:
		b.Pattern = workload.Gather
	}
	switch rng.Intn(10) {
	case 0:
		b.Space = memdef.SpaceConstant
		b.ReadOnly = true
	case 1:
		b.Space = memdef.SpaceTexture
	}
	if !b.ReadOnly && chance(rng, 0.4) {
		b.ReadOnly = true
	}
	if b.ReadOnly {
		b.HostCopied = chance(rng, 0.8)
	} else {
		// Write-saturated tiny buffers put the most pressure on minor
		// counters and RO-transition paths.
		fracs := []float64{0.05, 0.2, 0.5, 1.0}
		b.WriteFrac = fracs[rng.Intn(len(fracs))]
		b.HostCopied = chance(rng, 0.3)
	}
	if chance(rng, 0.3) {
		weights := []float64{0.5, 2, 4}
		b.Weight = weights[rng.Intn(len(weights))]
	}
	return b
}

package fuzz

import (
	"fmt"
	"slices"

	"shmgpu/internal/experiments"
	"shmgpu/internal/gpu"
	"shmgpu/internal/memdef"
	"shmgpu/internal/metadata"
	"shmgpu/internal/obs"
	"shmgpu/internal/scheme"
	"shmgpu/internal/stats"
	"shmgpu/internal/telemetry"
)

// Violation is one oracle failure for a cell.
type Violation struct {
	// Oracle names the violated property: a row of
	// experiments.Equivalences, "invariant", "conservation",
	// "metamorphic-ipc" or "metamorphic-metadata".
	Oracle string `json:"oracle"`
	// Scheme is the design under which the violation surfaced.
	Scheme string `json:"scheme,omitempty"`
	// Detail is the human-readable diff or bound that failed.
	Detail string `json:"detail"`
}

func (v Violation) String() string {
	if v.Scheme == "" {
		return fmt.Sprintf("[%s] %s", v.Oracle, v.Detail)
	}
	return fmt.Sprintf("[%s] %s: %s", v.Oracle, v.Scheme, v.Detail)
}

// CheckOptions tunes the oracle battery.
type CheckOptions struct {
	// IPCTolerance is the fractional slack on the "security cannot make
	// the GPU faster" metamorphic check (Baseline IPC ≥ Naive IPC).
	// The MEE in the path shifts request arrival order at the DRAM
	// banks, which changes row-buffer hit patterns; under adversarial
	// 1-deep queues campaigns have measured genuine inversions up to
	// ~6% with identical instruction and data-byte counts (the shrunk
	// cells live in testdata/repros). The oracle exists to catch
	// gross inversions — fast-forward miscounting cycles shows up as
	// tens of percent — so the slack sits above the scheduling jitter.
	IPCTolerance float64
	// MetaTolerance is the fractional slack on "SHM metadata traffic ≤
	// PSSM metadata traffic". Adversarial access patterns can make the
	// detectors mispredict persistently, paying recovery traffic; the
	// slack absorbs that while still catching double-charging bugs.
	MetaTolerance float64
	// Obs, when set, receives cycle heartbeats and phase spans from every
	// simulation the battery runs, so a live watchdog can tell a slow
	// cell from a wedged one. Observation is passive: artifacts are
	// byte-identical with or without it, which is itself pinned by the
	// determinism oracle whenever Obs is attached.
	Obs *obs.Run
}

// DefaultCheckOptions returns the campaign defaults.
func DefaultCheckOptions() CheckOptions {
	return CheckOptions{IPCTolerance: 0.10, MetaTolerance: 0.10}
}

// CheckCase runs the full oracle battery on one cell with default
// tolerances. It returns the violations found (nil when all oracles are
// green) or an error when the cell itself is invalid.
func CheckCase(c Case) ([]Violation, error) {
	return CheckCaseOpts(c, DefaultCheckOptions())
}

// CheckCaseOpts is CheckCase with explicit tolerances.
func CheckCaseOpts(c Case, opts CheckOptions) ([]Violation, error) {
	vs, _, err := c.check(opts)
	return vs, err
}

// check runs the battery: every row of the equivalence table, with each
// design's conservation laws (on its fast-forward run) reported right
// after that design's fast-forward row, then the cross-design orderings. It also returns the
// number of simulations the battery ran.
func (c Case) check(opts CheckOptions) ([]Violation, int, error) {
	cfg, bench, err := c.build()
	if err != nil {
		return nil, 0, err
	}
	wspec, footprint := bench.Spec(), bench.Footprint()
	tcfg := telemetry.Config{SampleInterval: 500, CaptureEvents: true}
	h := experiments.NewHarness("shmfuzz")
	names := c.SchemeNames()
	specs := make(map[string]experiments.RunSpec)
	runs := make(map[string]experiments.Rendered)
	var vs []Violation
	for _, name := range names {
		sch, err := scheme.ByName(name)
		if err != nil {
			return nil, 0, err
		}
		// Observe gets heartbeats and phase spans; its cancel flag is never
		// tripped, because the fuzz watchdog is dump-only (a run cancelled
		// mid-battery would poison the byte comparisons).
		spec := experiments.RunSpec{Config: cfg, Generated: &wspec, Scheme: sch, Telemetry: &tcfg, Observe: opts.Obs}
		specs[name], runs[name] = spec, h.Run(spec)
	}
	for _, row := range experiments.Equivalences {
		for _, name := range rowSchemes(row, names) {
			for _, d := range row.Check(h, specs[name]) {
				vs = append(vs, Violation{Oracle: d.Oracle, Scheme: name, Detail: d.Detail})
			}
			if row.Name == experiments.FastForwardEquivalence.Name {
				vs = append(vs, conservation(specs[name], footprint, name, runs[name].Result)...)
			}
		}
	}
	if err := h.Err(); err != nil {
		return nil, 0, err
	}
	return append(vs, metamorphic(footprint, runs, opts)...), h.Executed, nil
}

// rowSchemes picks the designs the battery checks a row under: the
// fast-forward row runs under every design, the detector ablation under
// SHM against PSSM when the cell runs both, and every other row under
// SHM (or the cell's first design without it), the design with the most
// machinery in play.
func rowSchemes(row experiments.Equivalence, names []string) []string {
	switch row.Name {
	case experiments.FastForwardEquivalence.Name:
		return names
	case experiments.DetectorAblation.Name:
		if slices.Contains(names, "SHM") && slices.Contains(names, "PSSM") {
			return []string{"SHM"}
		}
		return nil
	}
	if slices.Contains(names, "SHM") {
		return []string{"SHM"}
	}
	return names[:1]
}

// metamorphic checks the cross-scheme orderings that hold by construction
// of the designs, independent of the workload; footprint is the bytes the
// cell's buffers occupy.
func metamorphic(footprint uint64, arts map[string]experiments.Rendered, opts CheckOptions) []Violation {
	var vs []Violation
	base, haveBase := arts["Baseline"]
	naive, haveNaive := arts["Naive"]
	if haveBase && haveNaive && base.Result.Completed && naive.Result.Completed {
		// Security support only adds latency and traffic: the insecure
		// baseline cannot be slower than the naive secure design.
		if bIPC, nIPC := base.Result.IPC(), naive.Result.IPC(); bIPC < nIPC*(1-opts.IPCTolerance) {
			vs = append(vs, Violation{Oracle: "metamorphic-ipc", Scheme: "Naive", Detail: fmt.Sprintf(
				"Baseline IPC %.6f < Naive IPC %.6f (tolerance %.2f%%): secure memory cannot speed the GPU up",
				bIPC, nIPC, opts.IPCTolerance*100)})
		}
	}
	pssm, havePSSM := arts["PSSM"]
	shm, haveSHM := arts["SHM"]
	// Like the IPC ordering, the metadata ordering only holds between
	// comparable executions: a run truncated by the cycle budget has
	// executed a different instruction prefix (campaign cell 20260805-4062
	// hit this — PSSM stalled at the kernel cap with 1/3 of the
	// instructions while SHM ran 3x further, so the byte totals compared
	// different programs).
	if havePSSM && haveSHM && pssm.Result.Completed && shm.Result.Completed {
		// SHM's whole point is less steady metadata traffic than PSSM:
		// the shared RO counter removes counter fetches and BMT walks,
		// dual-granularity MACs remove per-block MAC fetches. The
		// comparison deliberately excludes the mispredict-recovery
		// class — that is the design's explicitly-priced cost (paper
		// Tables III/IV), can dominate under adversarially detuned
		// detectors, and is bounded exactly by the conservation
		// oracle's recovery-event arithmetic instead.
		steady := func(t stats.Traffic) uint64 {
			return t.Bytes(stats.TrafficCounter) + t.Bytes(stats.TrafficMAC) + t.Bytes(stats.TrafficBMT)
		}
		pMeta, sMeta := steady(pssm.Result.Traffic), steady(shm.Result.Traffic)
		// InputReadOnlyReset's max-counter scan is charged to the counter
		// class but is an SHM-only cost PSSM never pays (PSSM re-copies
		// without the reset API); credit it here — the conservation
		// oracle bounds it exactly from the reset events.
		resetScan := shm.Result.Reg.Get("input_readonly_reset") *
			(footprint/metadata.CounterCoverage + 2) * memdef.BlockSize
		if float64(sMeta) > float64(pMeta)*(1+opts.MetaTolerance)+float64(memdef.ChunkSize+resetScan) {
			vs = append(vs, Violation{Oracle: "metamorphic-metadata", Scheme: "SHM", Detail: fmt.Sprintf(
				"SHM steady metadata bytes %d exceed PSSM's %d beyond tolerance %.0f%%",
				sMeta, pMeta, opts.MetaTolerance*100)})
		}
	}
	return vs
}

// conservation checks the closed-form traffic model for one run: byte
// counts quantized to the DRAM sector size, the insecure baseline moving
// zero metadata, instruction totals matching the workload declaration,
// and every metadata class bounded by its cache activity plus layout
// arithmetic. footprint is the bytes the cell's buffers occupy.
func conservation(spec experiments.RunSpec, footprint uint64, schemeName string, res gpu.Result) []Violation {
	var vs []Violation
	fail := func(format string, args ...any) {
		vs = append(vs, Violation{Oracle: "conservation", Scheme: schemeName, Detail: fmt.Sprintf(format, args...)})
	}

	// Every DRAM transfer is charged per 32 B sector.
	for cls := 0; cls < stats.NumTrafficClasses; cls++ {
		name := stats.TrafficClass(cls).String()
		if res.Traffic.ReadBytes[cls]%memdef.SectorSize != 0 {
			fail("%s read bytes %d not a multiple of the sector size", name, res.Traffic.ReadBytes[cls])
		}
		if res.Traffic.WriteBytes[cls]%memdef.SectorSize != 0 {
			fail("%s write bytes %d not a multiple of the sector size", name, res.Traffic.WriteBytes[cls])
		}
	}

	opts := spec.Scheme.Options
	if !opts.Enabled {
		if md := res.Traffic.MetadataBytes(); md != 0 {
			fail("insecure baseline moved %d metadata bytes", md)
		}
		if res.Ctr.Accesses()+res.MAC.Accesses()+res.BMT.Accesses() != 0 {
			fail("insecure baseline touched metadata caches (ctr=%d mac=%d bmt=%d accesses)",
				res.Ctr.Accesses(), res.MAC.Accesses(), res.BMT.Accesses())
		}
		return vs
	}

	// Completed runs issue exactly the declared instruction stream:
	// kernels × SMs × warps × memory instructions, each preceded by
	// ComputePerMem compute instructions (±1 jitter when > 1).
	if res.Completed {
		cfg, w := spec.Config, spec.Generated
		memTotal := uint64(w.KernelCount) * uint64(cfg.SMs) * uint64(cfg.WarpsPerSM) *
			uint64(w.MemInstsPerWarp)
		cpm := uint64(w.ComputePerMem)
		lo, hi := memTotal*(1+cpm), memTotal*(1+cpm)
		if cpm > 1 {
			lo, hi = memTotal*cpm, memTotal*(2+cpm)
		}
		if res.Instructions < lo || res.Instructions > hi {
			fail("completed run issued %d instructions, outside the declared window [%d, %d] (mem=%d compute/mem=%d)",
				res.Instructions, lo, hi, memTotal, cpm)
		}
	}

	// Metadata classes bounded by their cache activity plus the layout's
	// direct-scan arithmetic. Misses/fills/writebacks are each ≤ one
	// block of traffic; InputReadOnlyReset scans the counter sectors
	// covering the reset range directly (no cache), bounded by the
	// footprint's counter coverage per event.
	bound := func(name string, bytes, extra uint64, st stats.CacheStats) {
		limit := (st.Misses+st.SectorFills+st.Writebacks)*memdef.BlockSize + extra
		if bytes > limit {
			fail("%s traffic %d bytes exceeds cache-activity bound %d (misses=%d fills=%d writebacks=%d extra=%d)",
				name, bytes, limit, st.Misses, st.SectorFills, st.Writebacks, extra)
		}
	}
	resets := res.Reg.Get("input_readonly_reset")
	ctrScan := resets * (footprint/metadata.CounterCoverage + 2) * memdef.BlockSize
	bound("counter", res.Traffic.Bytes(stats.TrafficCounter), ctrScan, res.Ctr)
	bound("mac", res.Traffic.Bytes(stats.TrafficMAC), 0, res.MAC)
	bound("bmt", res.Traffic.Bytes(stats.TrafficBMT), 0, res.BMT)

	// Mispredict-recovery traffic is exactly enumerable from the
	// recovery events (Tables III/IV): a full-chunk data refetch, a
	// chunk's worth of block MACs, or one chunk-MAC sector.
	mpLimit := res.Reg.Get("mp_refetch_chunk_data")*memdef.ChunkSize +
		res.Reg.Get("mp_refetch_blk_macs")*(memdef.BlocksPerChunk*metadata.BlockMACBytes+2*memdef.SectorSize) +
		res.Reg.Get("mp_refetch_chunk_mac")*memdef.SectorSize
	if mp := res.Traffic.Bytes(stats.TrafficMispredict); mp > mpLimit {
		fail("mispredict traffic %d bytes exceeds event bound %d", mp, mpLimit)
	}
	if !opts.DualGranMAC {
		if mp := res.Traffic.Bytes(stats.TrafficMispredict); mp != 0 {
			fail("design without dual-granularity MACs moved %d mispredict bytes", mp)
		}
	}
	return vs
}

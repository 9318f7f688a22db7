package fuzz

import (
	"bytes"
	"encoding/json"
	"fmt"

	"shmgpu/internal/gpu"
	"shmgpu/internal/invariant"
	"shmgpu/internal/memdef"
	"shmgpu/internal/metadata"
	"shmgpu/internal/obs"
	"shmgpu/internal/scheme"
	"shmgpu/internal/secmem"
	"shmgpu/internal/snapshot"
	"shmgpu/internal/stats"
	"shmgpu/internal/telemetry"
)

// Violation is one oracle failure for a cell.
type Violation struct {
	// Oracle names the violated property ("ff-equivalence",
	// "fork-equivalence", "determinism",
	// "sanitizer-transparency", "detector-ablation",
	// "migration-equivalence", "prefetch-equivalence", "metamorphic-ipc",
	// "metamorphic-metadata", "conservation", "invariant").
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
	// cells live in testdata/fuzz/repros). The oracle exists to catch
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

// artifacts is everything observable about one run, in directly
// byte-comparable form.
type artifacts struct {
	res   gpu.Result
	line  string // rendered Result value fields
	snap  []byte // stats-registry snapshot JSON
	jsonl []byte // full telemetry JSONL export
}

// resultLine renders every Result value field (the Reg pointer is rendered
// via its snapshot instead).
func resultLine(res gpu.Result) string {
	return fmt.Sprintf(
		"cycles=%d insts=%d traffic=%+v l1=%+v l2=%+v ctr=%+v mac=%+v bmt=%+v ro=%+v stream=%+v bus=%.9f victim=%d/%d completed=%v",
		res.Cycles, res.Instructions, res.Traffic, res.L1, res.L2,
		res.Ctr, res.MAC, res.BMT, res.ROAccuracy, res.StreamAccuracy,
		res.BusUtilization, res.VictimHits, res.VictimPushes, res.Completed)
}

// runArtifacts executes the cell once under the given options.
// schemeLabel only names the run in exported artifacts (the ablation
// oracle runs SHM-derived options under PSSM's label so the byte
// comparison sees identical manifests). When sanitize is set the runtime
// invariant sanitizer is armed for the run and its violations returned.
func (c Case) runArtifacts(orun *obs.Run, schemeLabel string, opts secmem.Options, disableFF, sanitize bool) (artifacts, []invariant.Violation, error) {
	bench, err := c.Bench()
	if err != nil {
		return artifacts{}, nil, err
	}
	cfg := c.GPUConfig()
	cfg.DisableFastForward = disableFF

	var collected []invariant.Violation
	if sanitize {
		restore := invariant.CollectInto(&collected)
		defer restore()
	}

	col := telemetry.New(telemetry.Config{SampleInterval: 500, CaptureEvents: true})
	sys := gpu.NewSystem(cfg, opts)
	sys.AttachTelemetry(col)
	if orun != nil {
		// Heartbeats and phase spans only — never the cancel flag: a run
		// cancelled mid-battery would poison the byte comparisons, so the
		// fuzz watchdog is strictly dump-only.
		sys.SetObserver(orun, 0)
	}
	res := sys.Run(bench)
	res.Scheme = schemeLabel

	arts, err := c.renderArtifacts(res, col, cfg, schemeLabel)
	if err != nil {
		return artifacts{}, nil, err
	}
	return arts, collected, nil
}

// renderArtifacts renders one finished run into the byte-comparable form
// every equivalence oracle diffs.
func (c Case) renderArtifacts(res gpu.Result, col *telemetry.Collector, cfg gpu.Config, schemeLabel string) (artifacts, error) {
	snap, err := json.Marshal(res.Reg.Snapshot())
	if err != nil {
		return artifacts{}, err
	}
	m := telemetry.Manifest{
		Tool:          "shmfuzz",
		SchemaVersion: telemetry.SchemaVersion,
		Workload:      res.Workload,
		Scheme:        schemeLabel,
		SMs:           cfg.SMs,
		Partitions:    cfg.Partitions,
		Seed:          c.Seed,
	}
	var buf bytes.Buffer
	if err := telemetry.WriteJSONL(&buf, col, summarize(res), m); err != nil {
		return artifacts{}, err
	}
	return artifacts{res: res, line: resultLine(res), snap: snap, jsonl: buf.Bytes()}, nil
}

// resumeArtifacts restores a snapshot blob into a fresh system under the
// child's execution strategy and runs it to completion. The fresh
// collector and bench mirror a from-scratch run exactly, so the rendered
// artifacts diff byte-for-byte against the scratch side. This is the fuzz
// battery's own inline fork path (the package deliberately does not
// import experiments; see summarize).
func (c Case) resumeArtifacts(schemeLabel string, opts secmem.Options, blob []byte, disableFF bool) (artifacts, error) {
	bench, err := c.Bench()
	if err != nil {
		return artifacts{}, err
	}
	cfg := c.GPUConfig()
	cfg.DisableFastForward = disableFF

	col := telemetry.New(telemetry.Config{SampleInterval: 500, CaptureEvents: true})
	sys := gpu.NewSystem(cfg, opts)
	sys.AttachTelemetry(col)
	if err := sys.LoadState(snapshot.NewDecoder(blob), bench); err != nil {
		return artifacts{}, err
	}
	res := sys.Resume(bench)
	res.Scheme = schemeLabel
	return c.renderArtifacts(res, col, cfg, schemeLabel)
}

// forkEquivalence is the checkpoint/fork oracle: warm one run of the cell
// to the midpoint of its from-scratch cycle count, capture the complete
// simulator state once, and fork one child per execution variant — the
// fast-forward and the every-cycle loop. Every child must be
// byte-indistinguishable (Result, stats snapshot, telemetry JSONL)
// from the matching from-scratch run. Any divergence is simulator state
// the snapshot captured wrongly, partially, or not at all.
func (c Case) forkEquivalence(schemeName string, opts secmem.Options, ff, ref artifacts) ([]Violation, error) {
	warmCycle := ff.res.Cycles / 2
	if warmCycle == 0 {
		return nil, nil
	}
	bench, err := c.Bench()
	if err != nil {
		return nil, err
	}
	cfg := c.GPUConfig()
	col := telemetry.New(telemetry.Config{SampleInterval: 500, CaptureEvents: true})
	sys := gpu.NewSystem(cfg, opts)
	sys.AttachTelemetry(col)
	if _, done := sys.RunUntil(bench, warmCycle); done {
		// The workload completed before the fork point: nothing to fork,
		// and nothing to check — a fallback scratch run is scratch.
		return nil, nil
	}
	enc := snapshot.NewEncoder()
	if err := sys.SaveState(enc, bench); err != nil {
		return nil, err
	}
	blob := enc.Data()

	var vs []Violation
	for _, disableFF := range []bool{false, true} {
		got, err := c.resumeArtifacts(schemeName, opts, blob, disableFF)
		if err != nil {
			return nil, err
		}
		scratch, base := ff, "scratch(fast-forward)"
		if disableFF {
			scratch, base = ref, "scratch(every-cycle)"
		}
		name := fmt.Sprintf("forked(ff=%v)", !disableFF)
		vs = append(vs, diffArtifacts("fork-equivalence", schemeName, name, base, got, scratch)...)
	}
	return vs, nil
}

// summarize mirrors experiments.TelemetrySummary without importing the
// experiments package (which would drag the full figure harness into
// every fuzz worker).
func summarize(res gpu.Result) telemetry.RunSummary {
	return telemetry.RunSummary{
		Workload:       res.Workload,
		Scheme:         res.Scheme,
		Cycles:         res.Cycles,
		Instructions:   res.Instructions,
		IPC:            res.IPC(),
		Completed:      res.Completed,
		BusUtilization: res.BusUtilization,
		Traffic:        res.Traffic,
		Caches: []telemetry.NamedCache{
			{Name: "l1", Stats: res.L1},
			{Name: "l2", Stats: res.L2},
			{Name: "ctr_mdc", Stats: res.Ctr},
			{Name: "mac_mdc", Stats: res.MAC},
			{Name: "bmt_mdc", Stats: res.BMT},
		},
		RO:       res.ROAccuracy,
		Stream:   res.StreamAccuracy,
		Counters: res.Reg.Snapshot(),
	}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

// diffArtifacts byte-compares two runs that must be indistinguishable.
func diffArtifacts(oracle, schemeName, aName, bName string, a, b artifacts) []Violation {
	var vs []Violation
	if a.line != b.line {
		vs = append(vs, Violation{Oracle: oracle, Scheme: schemeName, Detail: fmt.Sprintf(
			"Result diverges:\n%s: %s\n%s: %s", aName, truncate(a.line, 400), bName, truncate(b.line, 400))})
	}
	if !bytes.Equal(a.snap, b.snap) {
		vs = append(vs, Violation{Oracle: oracle, Scheme: schemeName, Detail: fmt.Sprintf(
			"stats snapshots diverge:\n%s: %s\n%s: %s", aName, truncate(string(a.snap), 400), bName, truncate(string(b.snap), 400))})
	}
	if !bytes.Equal(a.jsonl, b.jsonl) {
		vs = append(vs, Violation{Oracle: oracle, Scheme: schemeName, Detail: fmt.Sprintf(
			"telemetry JSONL diverges (%d vs %d bytes)", len(a.jsonl), len(b.jsonl))})
	}
	return vs
}

// CheckCase runs the full oracle battery on one cell with default
// tolerances. It returns the violations found (nil when all oracles are
// green) or an error when the cell itself is invalid.
func CheckCase(c Case) ([]Violation, error) {
	return CheckCaseOpts(c, DefaultCheckOptions())
}

// CheckCaseOpts is CheckCase with explicit tolerances.
func CheckCaseOpts(c Case, opts CheckOptions) ([]Violation, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	var vs []Violation
	arts := make(map[string]artifacts)
	refs := make(map[string]artifacts)
	names := c.SchemeNames()
	for _, name := range names {
		sch, err := scheme.ByName(name)
		if err != nil {
			return nil, err
		}
		ff, _, err := c.runArtifacts(opts.Obs, name, sch.Options, false, false)
		if err != nil {
			return nil, err
		}
		ref, _, err := c.runArtifacts(opts.Obs, name, sch.Options, true, false)
		if err != nil {
			return nil, err
		}
		vs = append(vs, diffArtifacts("ff-equivalence", name, "fast-forward", "every-cycle", ff, ref)...)
		vs = append(vs, conservation(c, sch.Options, name, ff.res)...)
		arts[name] = ff
		refs[name] = ref
	}

	// Double-run determinism plus the armed-sanitizer run on the scheme
	// with the most machinery in play.
	det := names[0]
	for _, name := range names {
		if name == "SHM" {
			det = name
		}
	}
	detSch, err := scheme.ByName(det)
	if err != nil {
		return nil, err
	}
	again, _, err := c.runArtifacts(opts.Obs, det, detSch.Options, false, false)
	if err != nil {
		return nil, err
	}
	vs = append(vs, diffArtifacts("determinism", det, "first-run", "second-run", arts[det], again)...)

	san, ivs, err := c.runArtifacts(opts.Obs, det, detSch.Options, false, true)
	if err != nil {
		return nil, err
	}
	for _, iv := range ivs {
		vs = append(vs, Violation{Oracle: "invariant", Scheme: det, Detail: iv.Error()})
	}
	vs = append(vs, diffArtifacts("sanitizer-transparency", det, "unchecked", "sanitized", arts[det], san)...)

	// Checkpoint/fork equivalence on the same scheme: forked children must
	// be byte-identical to from-scratch runs in both fast-forward modes.
	fvs, err := c.forkEquivalence(det, detSch.Options, arts[det], refs[det])
	if err != nil {
		return nil, err
	}
	vs = append(vs, fvs...)

	// Migration equivalence: a host tier whose frame budget covers the
	// whole working set (ratio ≥ 1.0) prepopulates everything, never
	// faults, and must be entirely invisible — byte-identical Result,
	// stats registry, and telemetry versus the tier disabled outright.
	// Checked on the detector-heavy scheme; each side reuses the
	// battery's existing artifacts when the cell already sits on that
	// side of the fit boundary, so the common case costs one extra run.
	{
		on, off := arts[det], arts[det]
		if c.Config.OversubPct < 100 {
			fit := c
			fit.Config.OversubPct = 100
			fitArts, _, err := fit.runArtifacts(opts.Obs, det, detSch.Options, false, false)
			if err != nil {
				return nil, err
			}
			on = fitArts
		}
		if c.Config.OversubPct != 0 {
			bare := c
			bare.Config.OversubPct = 0
			bareArts, _, err := bare.runArtifacts(opts.Obs, det, detSch.Options, false, false)
			if err != nil {
				return nil, err
			}
			off = bareArts
		}
		vs = append(vs, diffArtifacts("migration-equivalence", det, "host-tier(ratio>=1.0)", "host-tier-off", on, off)...)

		// Prefetch equivalence: at ratio ≥ 1.0 the tier never faults, no
		// fault streams form, and every migration-ahead policy must be
		// provably idle — byte-identical artifacts versus the tier being
		// off, for each policy in turn. This pins the idle-at-fit half of
		// the prefetcher contract for every generated cell, including the
		// batch-size and large-page variants the cell happens to carry.
		for _, pol := range []string{"stride", "stream"} {
			pf := c
			pf.Config.OversubPct = 100
			pf.Config.UVMPrefetch = pol
			pfArts, _, err := pf.runArtifacts(opts.Obs, det, detSch.Options, false, false)
			if err != nil {
				return nil, err
			}
			vs = append(vs, diffArtifacts("prefetch-equivalence", det,
				"prefetch="+pol+"(ratio>=1.0)", "host-tier-off", pfArts, off)...)
		}
	}

	// Detector ablation: SHM options with both adaptive mechanisms
	// disabled must be indistinguishable from the PSSM preset — the two
	// flags are the designs' entire delta, so any residue here means
	// state is leaking between mechanisms (or across runs).
	if _, ok := arts["PSSM"]; ok && contains(names, "SHM") {
		shm, err := scheme.ByName("SHM")
		if err != nil {
			return nil, err
		}
		abl := shm.Options
		abl.ReadOnlyOpt = false
		abl.DualGranMAC = false
		ablArts, _, err := c.runArtifacts(opts.Obs, "PSSM", abl, false, false)
		if err != nil {
			return nil, err
		}
		vs = append(vs, diffArtifacts("detector-ablation", "SHM", "SHM-detectors-off", "PSSM", ablArts, arts["PSSM"])...)
	}

	vs = append(vs, metamorphic(c, arts, opts)...)
	return vs, nil
}

func contains(names []string, want string) bool {
	for _, n := range names {
		if n == want {
			return true
		}
	}
	return false
}

// metamorphic checks the cross-scheme orderings that hold by construction
// of the designs, independent of the workload.
func metamorphic(c Case, arts map[string]artifacts, opts CheckOptions) []Violation {
	var vs []Violation
	base, haveBase := arts["Baseline"]
	naive, haveNaive := arts["Naive"]
	if haveBase && haveNaive && base.res.Completed && naive.res.Completed {
		// Security support only adds latency and traffic: the insecure
		// baseline cannot be slower than the naive secure design.
		if bIPC, nIPC := base.res.IPC(), naive.res.IPC(); bIPC < nIPC*(1-opts.IPCTolerance) {
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
	if havePSSM && haveSHM && pssm.res.Completed && shm.res.Completed {
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
		pMeta, sMeta := steady(pssm.res.Traffic), steady(shm.res.Traffic)
		// InputReadOnlyReset's max-counter scan is charged to the counter
		// class but is an SHM-only cost PSSM never pays (PSSM re-copies
		// without the reset API); credit it here — the conservation
		// oracle bounds it exactly from the reset events.
		resetScan := shm.res.Reg.Get("input_readonly_reset") *
			(c.Footprint()/metadata.CounterCoverage + 2) * memdef.BlockSize
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
// arithmetic.
func conservation(c Case, opts secmem.Options, schemeName string, res gpu.Result) []Violation {
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
		cfg := c.GPUConfig()
		memTotal := uint64(orInt(c.Workload.Kernels, baseKernels)) *
			uint64(cfg.SMs) * uint64(cfg.WarpsPerSM) *
			uint64(orInt(c.Workload.MemInstsPerWarp, baseMemInsts))
		cpm := uint64(c.Workload.ComputePerMem)
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
	ctrScan := resets * (c.Footprint()/metadata.CounterCoverage + 2) * memdef.BlockSize
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

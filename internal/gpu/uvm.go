package gpu

// The UVM layer: glue between the host-backed memory tier
// (internal/hostmem) and the simulated GPU. The tier gates crossbar
// admission — an access to a non-resident page faults, starts a
// PCIe-modeled migration, and leaves the request at the head of its
// SM's miss queue, which retries it every cycle until the page arrives
// (XNACK-style pause-and-replay; drainMisses already stops at the first
// rejected request). Fast-forward skips the retries of a head the tier
// reports Blocked up to the next event and charges their replays in bulk
// (System.smNextEvent, advanceCycle), so an every-cycle run counts
// identically.
//
// Security metadata travels with pages: under the "rebuild" integrity
// mode a fault-in re-encrypts the migrated range with fresh counters,
// which the RO predictor observes exactly like a host overwrite
// (MigrationOverwrite); under "hostside" a trusted host-side MEE keeps
// coverage valid and fault-in only re-keys, so detectors see nothing.
//
// Determinism: every tier mutation happens at a fixed point in the tick
// — Access inside the SM-ordered crossbar drains and Tick right after the
// sample boundary. When the working set fits (OversubRatio >= 1) the tier prepopulates every page, never
// faults, touches no counters, and emits no events: results are
// byte-identical to HostTier=false.

import (
	"shmgpu/internal/hostmem"
	"shmgpu/internal/memdef"
	"shmgpu/internal/stats"
	"shmgpu/internal/telemetry"
)

// The host tier's counters, folded in from hostmem.Stats at the end of a
// run. uvm_ro_transitions is the MEE's: it counts while the run ticks.
var (
	ctrUVMFaults          = stats.NewCounter("uvm_faults")
	ctrUVMReplays         = stats.NewCounter("uvm_replays")
	ctrUVMMigrationsIn    = stats.NewCounter("uvm_migrations_in")
	ctrUVMEvictions       = stats.NewCounter("uvm_evictions")
	ctrUVMWritebacksDirty = stats.NewCounter("uvm_writebacks_dirty")
	ctrUVMWritebacksClean = stats.NewCounter("uvm_writebacks_clean")
	ctrUVMThrash          = stats.NewCounter("uvm_thrash")
	ctrUVMBytesIn         = stats.NewCounter("uvm_bytes_in")
	ctrUVMBytesOut        = stats.NewCounter("uvm_bytes_out")
	ctrUVMMetaCycles      = stats.NewCounter("uvm_meta_cycles")
	ctrUVMPrefetches      = stats.NewCounter("uvm_prefetches")
	ctrUVMPrefUseful      = stats.NewCounter("uvm_pref_useful")
	ctrUVMPrefLate        = stats.NewCounter("uvm_pref_late")
	ctrUVMPrefUseless     = stats.NewCounter("uvm_pref_useless")
	ctrUVMBatches         = stats.NewCounter("uvm_batches")
)

// uvmState owns the host tier and its simulator-facing accounting.
type uvmState struct {
	sys  *System
	tier *hostmem.Tier
	// rebuild selects the expensive integrity mode: tear down device
	// metadata coverage on eviction, re-establish on fault-in.
	rebuild bool
}

// uvmWorkingSet is the optional Workload extension the tier sizes
// itself from; workloads without it are assumed to span device memory.
type uvmWorkingSet interface {
	Footprint() uint64
}

// startUVM builds the host tier at run start (idempotent; no-op unless
// Config.HostTier).
func (s *System) startUVM(wl Workload) {
	if !s.cfg.HostTier || s.uvm != nil {
		return
	}
	ws := s.cfg.DeviceMemoryBytes
	if f, ok := wl.(uvmWorkingSet); ok {
		if fp := f.Footprint(); fp > 0 {
			ws = fp
		}
	}
	policy, err := hostmem.ParsePolicy(s.cfg.UVMMigrationPolicy)
	if err != nil {
		panic(err) // Config.Validate already rejected this
	}
	integrity, err := hostmem.ParseIntegrity(s.cfg.UVMHostIntegrity)
	if err != nil {
		panic(err)
	}
	prefetch, err := hostmem.ParsePrefetch(s.cfg.UVMPrefetch)
	if err != nil {
		panic(err)
	}
	pageBytes := s.cfg.UVMPageBytes
	var subPageBytes uint64
	if s.cfg.UVMLargePages {
		pageBytes = hostmem.LargePageBytes
		subPageBytes = hostmem.DefaultSubPageBytes
	}
	if pageBytes == 0 {
		pageBytes = hostmem.DefaultPageBytes
	}
	numPages := int((ws + pageBytes - 1) / pageBytes)
	if numPages < 1 {
		numPages = 1
	}
	frames := int(s.cfg.OversubRatio * float64(numPages))
	tier, err := hostmem.New(hostmem.Config{
		PageBytes:         pageBytes,
		Frames:            frames,
		Policy:            policy,
		Integrity:         integrity,
		PCIeLatency:       s.cfg.UVMPCIeLatency,
		PCIeBytesPerCycle: s.cfg.UVMPCIeBytesPerCycle,
		Prefetch:          prefetch,
		PrefetchDegree:    s.cfg.UVMPrefetchDegree,
		BatchPages:        s.cfg.UVMBatchPages,
		SubPageBytes:      subPageBytes,
	}, ws)
	if err != nil {
		panic(err)
	}
	u := &uvmState{sys: s, tier: tier, rebuild: integrity == hostmem.IntegrityRebuild}
	tier.OnFaultIn = u.onFaultIn
	tier.OnEvict = u.onEvict
	if prefetch != hostmem.PrefetchNone {
		tier.OnPrefetch = u.onPrefetch
	}
	if prefetch == hostmem.PrefetchStream {
		tier.Classify = u.classifyStreaming
	}
	s.uvm = u
}

// classifyStreaming bridges the tier's stream-prefetch policy to the
// paper's streaming detector: a page counts as streaming when the
// partition-0 MEE's predictor (oracle preload or trained bit vector;
// preloads and truth ranges are identical across partitions) classifies
// the page's first chunk as streaming. Called only on demand faults.
func (u *uvmState) classifyStreaming(page int) bool {
	lo, hi := u.tier.PageRange(page)
	llo, _ := u.sys.pmap.LocalRange(memdef.Addr(lo), memdef.Addr(hi))
	return u.sys.mees[0].PredictStreaming(llo)
}

// onPrefetch fires from tier.Access when a migration batch carrying
// prefetched pages is issued; the batch-size sample feeds the
// coalescing histogram.
func (u *uvmState) onPrefetch(page, pages int) {
	if tele := u.sys.tele; tele != nil {
		tele.Emit(telemetry.Event{Cycle: u.sys.tickNow, Kind: telemetry.EvPagePrefetch, Part: -1, Value: uint64(pages)})
	}
}

// admit gates one crossbar admission attempt on page residency. False
// means the request must stay queued and replay next cycle.
func (u *uvmState) admit(addr memdef.Addr, write bool, now uint64) bool {
	switch u.tier.Access(uint64(addr), write, now) {
	case hostmem.Admit:
		return true
	case hostmem.Fault:
		if tele := u.sys.tele; tele != nil {
			tele.Emit(telemetry.Event{Cycle: now, Kind: telemetry.EvPageFault, Part: -1})
		}
		return false
	default: // hostmem.Stall: migrating, or the migration ring is full
		return false
	}
}

// tick completes due migrations. Runs after the telemetry sample
// boundary and before the SM crossbar drains, so a page ready at cycle N
// admits retries at N.
func (u *uvmState) tick(now uint64) { u.tier.Tick(now) }

// onFaultIn fires from tier.Tick when a migration completes: emit the
// latency sample and, under full rebuild, re-establish metadata
// coverage for the migrated range (fresh counters = detector-visible
// overwrite).
func (u *uvmState) onFaultIn(page int, latency uint64) {
	s := u.sys
	if s.tele != nil {
		s.tele.Emit(telemetry.Event{Cycle: s.tickNow, Kind: telemetry.EvPageMigrateIn, Part: -1, Value: latency})
	}
	if !u.rebuild {
		return
	}
	lo, hi := u.tier.PageRange(page)
	llo, lhi := s.pmap.LocalRange(memdef.Addr(lo), memdef.Addr(hi))
	for _, mee := range s.mees {
		mee.MigrationOverwrite(llo, lhi)
	}
}

// onEvict fires from tier.Access when a victim page drops to the host
// tier (metadata coverage teardown is charged to the fault-in side's
// MetaCycles; the detectors only observe the rebuild).
func (u *uvmState) onEvict(page int, dirty, thrash bool) {
	tele := u.sys.tele
	if tele == nil {
		return
	}
	var class uint8
	if dirty {
		class = 1
	}
	tele.Emit(telemetry.Event{Cycle: u.sys.tickNow, Kind: telemetry.EvPageEvict, Part: -1, Class: class})
	if thrash {
		tele.Emit(telemetry.Event{Cycle: u.sys.tickNow, Kind: telemetry.EvPageThrash, Part: -1})
	}
}

// mergeInto folds the tier's counters into the run registry. Keys are
// only inserted when nonzero so a never-faulting tier (ratio >= 1)
// leaves the registry byte-identical to a tier-less run.
func (u *uvmState) mergeInto(res *Result) {
	st := u.tier.Stats()
	for _, c := range [...]struct {
		ctr stats.Counter
		n   uint64
	}{
		{ctrUVMFaults, st.Faults},
		{ctrUVMReplays, st.Replays},
		{ctrUVMMigrationsIn, st.MigrationsIn},
		{ctrUVMEvictions, st.Evictions},
		{ctrUVMWritebacksDirty, st.WritebacksDirty},
		{ctrUVMWritebacksClean, st.WritebacksClean},
		{ctrUVMThrash, st.Thrash},
		{ctrUVMBytesIn, st.BytesIn},
		{ctrUVMBytesOut, st.BytesOut},
		{ctrUVMMetaCycles, st.MetaCycles},
		{ctrUVMPrefetches, st.Prefetches},
		{ctrUVMPrefUseful, st.PrefUseful},
		{ctrUVMPrefLate, st.PrefLate},
		{ctrUVMPrefUseless, st.PrefUseless},
		{ctrUVMBatches, st.Batches},
	} {
		if c.n != 0 {
			res.Reg.Add(c.ctr, c.n)
		}
	}
}

package gpu

// The UVM layer: glue between the host-backed memory tier
// (internal/hostmem) and the simulated GPU. The tier gates crossbar
// admission — an access to a non-resident page faults, starts a
// PCIe-modeled migration, and leaves the request at the head of its
// SM's miss queue, which retries it every cycle until the page arrives
// (XNACK-style pause-and-replay; drainMisses already stops at the first
// rejected request). The sharded engine ticks every retry. The
// sequential engine skips the retries of a head the tier reports
// Blocked up to the next event and charges their replays in bulk
// (System.smNextEvent, advanceCycle), so both engines count identically.
//
// Security metadata travels with pages: under the "rebuild" integrity
// mode a fault-in re-encrypts the migrated range with fresh counters,
// which the RO predictor observes exactly like a host overwrite
// (MigrationOverwrite); under "hostside" a trusted host-side MEE keeps
// coverage valid and fault-in only re-keys, so detectors see nothing.
//
// Determinism: every tier mutation happens in the sequential parts of
// the tick — Access inside the SM-ordered crossbar drains (phase 1 in
// the parallel engine) and Tick right after the sample boundary — so
// sharded runs are byte-identical to sequential ones. When the working
// set fits (OversubRatio >= 1) the tier prepopulates every page, never
// faults, touches no counters, and emits no events: results are
// byte-identical to HostTier=false.

import (
	"shmgpu/internal/hostmem"
	"shmgpu/internal/memdef"
	"shmgpu/internal/telemetry"
)

// uvmState owns the host tier and its simulator-facing accounting.
type uvmState struct {
	sys  *System
	tier *hostmem.Tier
	// rebuild selects the expensive integrity mode: tear down device
	// metadata coverage on eviction, re-establish on fault-in.
	rebuild bool
	// roTransitions counts predictor RO->RW transitions caused by
	// migration re-encryption, accumulated here because the registry's
	// map insert is off-limits on the tick path.
	roTransitions uint64
}

// uvmWorkingSet is the optional Workload extension the tier sizes
// itself from; workloads without it are assumed to span device memory.
type uvmWorkingSet interface {
	Footprint() uint64
}

// startUVM builds the host tier at run start (idempotent; no-op unless
// Config.HostTier). LoadState calls it too, before decoding tier state.
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

// tick completes due migrations. Runs in the sequential pre-phase of
// both engines, after the telemetry sample boundary and before the SM
// crossbar drains, so a page ready at cycle N admits retries at N in
// sequential and sharded runs alike.
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
		u.roTransitions += mee.MigrationOverwrite(llo, lhi)
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
	if st.Faults != 0 {
		res.Reg.Add("uvm_faults", st.Faults)
	}
	if st.Replays != 0 {
		res.Reg.Add("uvm_replays", st.Replays)
	}
	if st.MigrationsIn != 0 {
		res.Reg.Add("uvm_migrations_in", st.MigrationsIn)
	}
	if st.Evictions != 0 {
		res.Reg.Add("uvm_evictions", st.Evictions)
	}
	if st.WritebacksDirty != 0 {
		res.Reg.Add("uvm_writebacks_dirty", st.WritebacksDirty)
	}
	if st.WritebacksClean != 0 {
		res.Reg.Add("uvm_writebacks_clean", st.WritebacksClean)
	}
	if st.Thrash != 0 {
		res.Reg.Add("uvm_thrash", st.Thrash)
	}
	if st.BytesIn != 0 {
		res.Reg.Add("uvm_bytes_in", st.BytesIn)
	}
	if st.BytesOut != 0 {
		res.Reg.Add("uvm_bytes_out", st.BytesOut)
	}
	if st.MetaCycles != 0 {
		res.Reg.Add("uvm_meta_cycles", st.MetaCycles)
	}
	if st.Prefetches != 0 {
		res.Reg.Add("uvm_prefetches", st.Prefetches)
	}
	if st.PrefUseful != 0 {
		res.Reg.Add("uvm_pref_useful", st.PrefUseful)
	}
	if st.PrefLate != 0 {
		res.Reg.Add("uvm_pref_late", st.PrefLate)
	}
	if st.PrefUseless != 0 {
		res.Reg.Add("uvm_pref_useless", st.PrefUseless)
	}
	if st.Batches != 0 {
		res.Reg.Add("uvm_batches", st.Batches)
	}
	if u.roTransitions != 0 {
		res.Reg.Add("uvm_ro_transitions", u.roTransitions)
	}
}

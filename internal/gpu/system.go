package gpu

import (
	"fmt"

	"shmgpu/internal/dram"
	"shmgpu/internal/invariant"
	"shmgpu/internal/memdef"
	"shmgpu/internal/obs"
	"shmgpu/internal/ringbuf"
	"shmgpu/internal/secmem"
	"shmgpu/internal/stats"
	"shmgpu/internal/telemetry"
)

// Result summarizes one simulation run.
type Result struct {
	// Workload and Scheme identify the run.
	Workload, Scheme string
	// Cycles is the total simulated cycles across kernels.
	Cycles uint64
	// Instructions is the total warp instructions issued.
	Instructions uint64
	// Traffic aggregates DRAM bytes moved by class across partitions.
	Traffic stats.Traffic
	// L1, L2 aggregate cache stats across instances.
	L1, L2 stats.CacheStats
	// Ctr, MAC, BMT aggregate the metadata caches across partitions.
	Ctr, MAC, BMT stats.CacheStats
	// ROAccuracy, StreamAccuracy are the Fig. 10/11 breakdowns (only
	// populated when the design tracks accuracy).
	ROAccuracy, StreamAccuracy stats.PredictorStats
	// BusUtilization is the mean DRAM data-bus utilization.
	BusUtilization float64
	// VictimHits and VictimPushes total the L2 victim-cache activity.
	VictimHits, VictimPushes uint64
	// Reg merges every MEE's event registry.
	Reg stats.Registry
	// Completed reports whether all warps finished before MaxCycles.
	Completed bool
	// Cancelled reports whether the run was abandoned via a cooperative
	// obs.Cancel flag (e.g. the stall watchdog) before finishing.
	Cancelled bool
}

// IPC returns instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// BandwidthOverhead returns metadata bytes / data bytes (paper Fig. 14).
func (r Result) BandwidthOverhead() float64 { return r.Traffic.OverheadRatio() }

type xbarEntry struct {
	r  memdef.Request
	at uint64
}

type respEntry struct {
	phys memdef.Addr
	sm   int
	at   uint64
}

// partitionVictim adapts a partition's L2 banks to the secmem.VictimCache
// interface.
type partitionVictim struct {
	sys  *System
	part int
}

func (v partitionVictim) bank(addr memdef.Addr) *L2Bank {
	return v.sys.l2[v.part][v.sys.bankOf(addr)]
}

func (v partitionVictim) PushVictim(addr memdef.Addr)       { v.bank(addr).PushVictim(addr) }
func (v partitionVictim) ProbeVictim(addr memdef.Addr) bool { return v.bank(addr).ProbeVictim(addr) }
func (v partitionVictim) VictimActive() bool {
	for _, b := range v.sys.l2[v.part] {
		if b.victimActive() {
			return true
		}
	}
	return false
}

// System is the complete simulated GPU.
type System struct {
	cfg      Config
	opts     secmem.Options
	sms      []*SM
	l2       [][]*L2Bank // outer index is the partition
	mees     []*secmem.MEE
	channels []*dram.Channel
	pmap     *memdef.PartitionMap

	// toPart and toSM are the crossbar request queues and the response
	// network. Both are rings ordered by maturity cycle: entries are pushed
	// with `at = now + XbarLatency` and now is monotonic, so the front is
	// always the earliest-maturing entry.
	toPart []ringbuf.Ring[xbarEntry]
	toSM   ringbuf.Ring[respEntry]

	cycle uint64
	instr uint64

	// tickNow is the cycle currently being ticked; acceptFn reads it so the
	// crossbar-admission closure can be built once instead of per SM per
	// cycle (closure construction was a measurable hot-path allocation).
	tickNow  uint64
	acceptFn func(smRequest) bool
	// respondFn is the bound s.respond method value, materialized once.
	respondFn func(memdef.Request, uint64)
	// snapFn is the bound s.snapshot method value, materialized once so the
	// per-tick MaybeSample call does not rebind the receiver.
	snapFn func() telemetry.Snapshot

	// tele, when non-nil, collects probe events and timeline samples.
	tele *telemetry.Collector

	// obsProbe, when non-nil, receives live-observability events: a
	// progress heartbeat every obsInterval cycles and phase transitions at
	// kernel boundaries. Unlike the telemetry sampler it does NOT join the
	// event horizon — heartbeats may lag across fast-forward skips — so
	// attaching it cannot perturb the cycle-accurate results.
	obsProbe    obs.Probe
	obsInterval uint64
	obsNextAt   uint64
	// obsCancel, when non-nil, is polled once per tick; when set the run
	// abandons its cycle loop and the Result is marked Cancelled.
	obsCancel *obs.Cancel
	cancelled bool

	// Run-session state, serialized by State so a restored run resumes
	// exactly where the parent paused. kernelIdx is the drive loop's
	// position; midKernel marks a paused kernel-interior cycle loop;
	// runDeadline is the absolute MaxCycles expiry for the current kernel.
	// The deadline is captured rather than recomputed on restore —
	// recomputing `cycle + MaxCycles` at the resume point would silently
	// extend the budget and diverge timeout-bound runs from scratch runs.
	kernelIdx   int
	midKernel   bool
	runDeadline uint64

	// syncer, when non-nil, is notified at the top of every tick so the
	// workload can freeze its cross-warp pacing state (see TickSynced).
	syncer TickSynced
	// uvm, when non-nil, is the host-backed memory tier (Config.HostTier;
	// see uvm.go): crossbar admission faults on non-resident pages and the
	// tier's migrations tick at the top of every tick.
	uvm *uvmState
	// blockedReplays is the number of SMs whose miss-queue head the last
	// horizon evaluation found blocked by the host tier: each skipped
	// cycle would have charged one replay per such SM.
	blockedReplays uint64
	// smHint is the SM whose horizon last returned now+1.
	smHint int
}

// AttachTelemetry installs a collector on every component's probe point.
// Passing nil detaches all probes (the default, zero-overhead state). Attach
// before Run; the collector is not safe for concurrent simulations.
func (s *System) AttachTelemetry(c *telemetry.Collector) {
	s.tele = c
	// Hand components a typed-nil-free interface value: a nil *Collector
	// stored in a Probe interface would still make `probe != nil` true at
	// every emit site, so detach means storing a true nil.
	var p telemetry.Probe
	if c != nil {
		p = c
	}
	for _, sm := range s.sms {
		sm.probe = p
	}
	for part := range s.l2 {
		for _, b := range s.l2[part] {
			b.probe = p
		}
	}
	for part, ch := range s.channels {
		ch.SetProbe(p, part)
	}
	for _, mee := range s.mees {
		mee.SetProbe(p)
	}
}

// DefaultObsInterval is the progress-heartbeat period in cycles used when
// SetObserver is called with interval 0.
const DefaultObsInterval = 8192

// SetObserver installs a live-observability probe emitting EvProgress
// heartbeats every interval cycles (0 = DefaultObsInterval) plus phase
// begin/end events at kernel boundaries. Pass a true nil Probe to detach
// (never a nil concrete pointer in an interface — the emit sites' nil
// checks would pass and call through it). The probe is passive: it joins
// neither the event horizon nor any scheduling decision, so results are
// byte-identical with it attached or not.
func (s *System) SetObserver(p obs.Probe, interval uint64) {
	if interval == 0 {
		interval = DefaultObsInterval
	}
	s.obsProbe = p
	s.obsInterval = interval
	s.obsNextAt = 0
}

// SetCancel installs a cooperative cancellation flag, polled once per
// tick. A cancelled run returns from Run with Result.Cancelled set (and
// Completed false); partial statistics up to the abandon point remain in
// the Result.
func (s *System) SetCancel(c *obs.Cancel) { s.obsCancel = c }

// observePhase emits one phase-transition event at the current cycle.
func (s *System) observePhase(kind obs.EventKind, ph obs.Phase, k int) {
	if s.obsProbe != nil {
		s.obsProbe.Observe(obs.Event{Kind: kind, Phase: ph, Index: k, Cycle: s.cycle})
	}
}

// snapshot captures the cumulative cross-component state for one timeline
// sample. Called by the collector at most once per sample interval.
func (s *System) snapshot() telemetry.Snapshot {
	var snap telemetry.Snapshot
	for _, sm := range s.sms {
		snap.Instructions += sm.Instructions
		snap.L1.Merge(&sm.l1.Stats)
	}
	for p := range s.l2 {
		for _, b := range s.l2[p] {
			st := b.Stats()
			snap.L2.Merge(&st)
		}
	}
	for _, ch := range s.channels {
		snap.Traffic.Merge(&ch.Traffic)
		snap.DRAMPending += ch.Pending()
	}
	for _, mee := range s.mees {
		ctr, mac, bmt := mee.CacheStats()
		snap.Ctr.Merge(&ctr)
		snap.MAC.Merge(&mac)
		snap.BMT.Merge(&bmt)
	}
	return snap
}

// NewSystem builds a GPU running the given secure-memory design.
func NewSystem(cfg Config, opts secmem.Options) *System {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	s := &System{
		cfg:    cfg,
		opts:   opts,
		pmap:   memdef.NewPartitionMap(cfg.Partitions),
		toPart: make([]ringbuf.Ring[xbarEntry], cfg.Partitions),
	}
	s.acceptFn = s.acceptRequest
	s.respondFn = s.respond
	s.snapFn = s.snapshot
	for i := 0; i < cfg.SMs; i++ {
		s.sms = append(s.sms, newSM(i, &s.cfg))
	}
	s.l2 = make([][]*L2Bank, cfg.Partitions)
	for p := 0; p < cfg.Partitions; p++ {
		for b := 0; b < cfg.L2BanksPerPartition; b++ {
			s.l2[p] = append(s.l2[p], newL2Bank(p, b, &s.cfg))
		}
		s.channels = append(s.channels, dram.NewChannel(cfg.DRAM))
		mee := secmem.NewMEE(cfg.MEEOptionsToConfig(opts, p), s)
		if opts.VictimL2 {
			mee.SetVictimCache(partitionVictim{sys: s, part: p})
		}
		s.mees = append(s.mees, mee)
	}
	return s
}

// MEE exposes partition p's encryption engine (analysis and tests).
func (s *System) MEE(p int) *secmem.MEE { return s.mees[p] }

// Enqueue implements secmem.DRAMPort.
func (s *System) Enqueue(part int, r dram.Req, now uint64) bool {
	return s.channels[part].Enqueue(r, now)
}

func (s *System) bankOf(local memdef.Addr) int {
	return int(uint64(local)/memdef.BlockSize) % s.cfg.L2BanksPerPartition
}

// applySetup performs the host-side work before kernel k.
func (s *System) applySetup(k int, setup KernelSetup) {
	for _, cr := range setup.CopyRanges {
		lo, hi := s.pmap.LocalRange(cr.Lo, cr.Hi)
		for _, mee := range s.mees {
			if k == 0 {
				mee.MarkInputRange(lo, hi)
			} else if setup.UseResetAPI {
				mee.InputReadOnlyReset(lo, hi, s.cycle)
			} else {
				mee.HostOverwrite(lo, hi)
			}
		}
	}
	if s.opts.OracleDetectors {
		for _, rr := range setup.ReadOnlyTruth {
			lo, hi := s.pmap.LocalRange(rr.Lo, rr.Hi)
			for _, mee := range s.mees {
				mee.OraclePreloadReadOnly(lo, hi, true)
			}
		}
		for _, st := range setup.StreamTruths {
			lo, hi := s.pmap.LocalRange(st.Range.Lo, st.Range.Hi)
			for _, mee := range s.mees {
				mee.OraclePreloadStreaming(lo, hi, st.Streaming)
			}
		}
	}
}

// GridAware is an optional Workload extension: workloads that partition
// work across warps receive the simulated grid dimensions before the run.
type GridAware interface {
	SetGrid(sms, warpsPerSM int)
}

// TickSynced is an optional Workload extension: the system calls SyncTick
// once at the top of every tick, letting the workload freeze cross-warp
// state — e.g. the pacing frontier — so that warp programs observe a
// per-tick snapshot instead of other warps' same-tick progress. The
// committed results depend on this frozen-frontier order.
type TickSynced interface {
	SyncTick()
}

// Run simulates the whole workload and returns the results.
func (s *System) Run(wl Workload) Result {
	s.beginRun(wl)
	res, _ := s.drive(wl, 0)
	return res
}

// RunUntil simulates until the workload completes or the cycle counter
// reaches stopCycle inside a kernel. It returns done=false when the run
// paused at the boundary — the System is then exactly at a tick boundary
// and can be captured with State — or done=true with the final Result
// when every kernel finished first (nothing was captured; callers fall
// back to from-scratch runs). stopCycle of 0 never pauses.
func (s *System) RunUntil(wl Workload, stopCycle uint64) (Result, bool) {
	s.beginRun(wl)
	return s.drive(wl, stopCycle)
}

// Resume continues a run restored by State through to completion. The
// workload must be the one the restore loaded. Unlike Run it performs no
// grid setup — loading already rebuilt the warp programs.
func (s *System) Resume(wl Workload) Result {
	if ts, ok := wl.(TickSynced); ok {
		s.syncer = ts
	}
	res, _ := s.drive(wl, 0)
	return res
}

// beginRun performs the one-time setup shared by Run and RunUntil.
func (s *System) beginRun(wl Workload) {
	if ga, ok := wl.(GridAware); ok {
		ga.SetGrid(s.cfg.SMs, s.cfg.WarpsPerSM)
	}
	if ts, ok := wl.(TickSynced); ok {
		s.syncer = ts
	}
	s.startUVM(wl)
}

// drive is the kernel loop behind Run, RunUntil, and Resume. It starts (or
// re-enters, after a restore) kernel s.kernelIdx and runs to completion,
// unless stopCycle is nonzero and a kernel-interior tick boundary at or
// past it is reached first — then it returns done=false with the System
// paused in a position State can capture.
func (s *System) drive(wl Workload, stopCycle uint64) (Result, bool) {
	completed := true
	for ; s.kernelIdx < wl.Kernels(); s.kernelIdx++ {
		k := s.kernelIdx
		if !s.midKernel {
			s.observePhase(obs.EvPhaseBegin, obs.PhaseSetup, k)
			s.applySetup(k, wl.Setup(k))
			for _, sm := range s.sms {
				sm.launch(k, wl)
			}
			s.observePhase(obs.EvPhaseEnd, obs.PhaseSetup, k)
			s.observePhase(obs.EvPhaseBegin, obs.PhaseKernel, k)
			s.runDeadline = 0
			if s.cfg.MaxCycles > 0 {
				s.runDeadline = s.cycle + s.cfg.MaxCycles
			}
			s.midKernel = true
		}
		ok, paused := s.runKernel(stopCycle)
		if paused {
			return Result{}, false
		}
		s.midKernel = false
		s.observePhase(obs.EvPhaseEnd, obs.PhaseKernel, k)
		if !ok {
			completed = false
			break
		}
		// Kernel boundary: dirty L2 data drains through the MEE (this is
		// how buffered stores reach DRAM and trigger RO transitions and
		// MAC/counter updates), then dirty metadata follows.
		s.observePhase(obs.EvPhaseBegin, obs.PhaseDrain, k)
		for _, banks := range s.l2 {
			for _, b := range banks {
				b.flushAll()
			}
		}
		s.drainLoop()
		for _, mee := range s.mees {
			mee.FlushKernel(s.cycle)
			mee.FlushMetadata()
		}
		s.drainLoop()
		s.observePhase(obs.EvPhaseEnd, obs.PhaseDrain, k)
		for _, banks := range s.l2 {
			for _, b := range banks {
				b.resetSampling()
			}
		}
	}
	if s.cancelled {
		completed = false
	}
	res := s.collect(wl.Name(), completed)
	res.Cancelled = s.cancelled
	s.syncer = nil
	return res, true
}

// runKernel drives the cycle loop until all warps finish and the memory
// system drains, or the per-kernel cycle budget runs out. It reports
// whether the kernel completed, and — when stopCycle is nonzero — whether
// it paused at a tick boundary at or past stopCycle instead.
//
// After each tick the loop advances by the event horizon (see advanceCycle)
// rather than always by one cycle; ticks at the skipped cycles are provably
// no-ops, so the jump is invisible in results, telemetry, and cycle counts.
func (s *System) runKernel(stopCycle uint64) (ok, paused bool) {
	deadline := s.runDeadline
	idleStreak := 0
	for {
		// The pause gate only fires while warps are still running: once
		// they all finish, the loop is in its exit window (idleStreak
		// counting, one-cycle stepping) whose local state a restored run
		// could not reconstruct. Warps never un-finish within a kernel, so
		// !smsFinished guarantees idleStreak is 0 here.
		if stopCycle != 0 && s.cycle >= stopCycle && !s.smsFinished() {
			return false, true
		}
		if s.obsCancel != nil && s.obsCancel.Cancelled() {
			s.cancelled = true
			return false, false
		}
		now := s.cycle
		s.tickOnce(now)
		finished := s.smsFinished()
		idle := finished && s.drained()
		if idle {
			// Advance one cycle at a time through the exit window: the only
			// remaining future events are armed MAT-tracker expiries, which an
			// every-cycle run never reaches because the kernel exits after
			// five idle cycles (FlushKernel finalizes the trackers instead).
			// Jumping to those expiries would play out detector timeouts the
			// reference run cuts off, diverging cycle counts and traffic.
			s.cycle = now + 1
		} else {
			s.cycle = s.advanceCycle(now, deadline)
		}
		if deadline != 0 && s.cycle >= deadline {
			return false, false
		}
		if finished {
			if idle {
				idleStreak++
				if idleStreak > 4 {
					return true, false
				}
			} else {
				idleStreak = 0
			}
		}
	}
}

// drainLoop ticks until every queue and in-flight request empties (used at
// kernel boundaries after flushes). Bounded as a deadlock backstop: failing
// to converge means a request leaked somewhere in the memory system, which
// is reported as an invariant violation with the stuck occupancy, and the
// per-channel request-conservation invariant is checked on every successful
// drain.
func (s *System) drainLoop() {
	start := s.cycle
	for s.cycle-start < 2_000_000 {
		if s.obsCancel != nil && s.obsCancel.Cancelled() {
			// Abandon the drain; the caller's result is marked Cancelled, so
			// the undrained queues are never interpreted as a clean finish.
			s.cancelled = true
			return
		}
		if s.drained() {
			if invariant.Enabled() {
				for p, ch := range s.channels {
					ch.CheckConserved(fmt.Sprintf("dram[%d]", p), s.cycle)
				}
			}
			return
		}
		now := s.cycle
		s.tickOnce(now)
		if s.drained() {
			// The tick at now completed the drain: exit at now+1 exactly as
			// an every-cycle run would, instead of jumping to a far-future
			// sample or detector-expiry cycle that would inflate the exit
			// cycle (and everything downstream that reads s.cycle).
			s.cycle = now + 1
		} else {
			s.cycle = s.advanceCycle(now, 0)
		}
	}
	invariant.Failf("drain-convergence", "system", s.cycle,
		"memory system did not drain after 2M cycles: %s", s.pendingSummary())
}

// advanceCycle returns the next cycle to simulate after a tick at now. With
// fast-forward enabled it jumps to the system-wide event horizon — the
// earliest cycle at which any component can change state — and synthesizes
// the per-cycle telemetry the skipped ticks would have produced. deadline
// (when nonzero) caps the jump so MaxCycles expiry fires at the same cycle
// as under every-cycle ticking.
//
// The horizon contract each component implements (System.smNextEvent,
// L2Bank.nextEvent, MEE.NextEvent, Channel.NextEvent, and the queue fronts
// here): return the earliest cycle strictly after now at which ticking the
// component is not a no-op, or ^uint64(0) if only another component's
// progress can make it actable. Components that would merely retry
// back-pressured work report now+1; a tick at a cycle below every
// component's horizon would change no state and emit no event, which is
// what makes the skip transparent.
//
// The horizon also skips two kinds of tick whose only effects
// are known in advance, and replays those effects here in bulk (see
// smNextEvent): host-tier replays of blocked miss-queue heads, and the
// back-offs of warps re-asking a pacing-stalled program.
func (s *System) advanceCycle(now, deadline uint64) uint64 {
	next := now + 1
	if !s.cfg.DisableFastForward {
		if h := s.nextEventCycle(now); h != ^uint64(0) && h > next {
			next = h
		}
	}
	if deadline != 0 && next > deadline {
		next = deadline
	}
	skipped := next - now - 1
	if skipped == 0 {
		return next
	}
	if s.tele != nil {
		// An every-cycle run emits one EvSMStall per unfinished SM per idle
		// cycle (sm.stallProbe), bubble cycles included. Stall events carry
		// no histogram or capture payload, so bulk-adding the count is
		// exactly equivalent.
		for _, sm := range s.sms {
			if !sm.finished() {
				s.tele.AddEvents(telemetry.EvSMStall, skipped)
			}
		}
	}
	// A skip means the evaluation visited every SM, so blockedReplays and
	// each SM's bubble list are this evaluation's.
	if s.blockedReplays != 0 {
		s.uvm.tier.ChargeReplays(s.blockedReplays * skipped)
	}
	for _, sm := range s.sms {
		if len(sm.bubbles) != 0 {
			sm.replayBubbles(now, next)
		}
	}
	return next
}

// smNextEvent returns the earliest cycle after now at which sm can act:
// a queued crossbar retry or an issuable warp means the very next cycle,
// otherwise the earliest warp wake-up (post-hit latency or back-off).
// Warps capped on in-flight sectors wake via fills, which the response
// network's horizon accounts for. Two refinements make the horizon exact
// rather than conservative, each resting on the fact that no other
// component acts before the horizon it returns:
//
//   - A miss-queue head that can only be rejected does not pin now+1. It
//     is blocked while its partition's crossbar queue is full (the queue
//     cannot pop before its front matures, which the horizon covers) or
//     while the host tier would stall it (hostmem.Tier.Blocked; the tier
//     cannot change before its NextEvent). A tier-blocked head charges one
//     replay per skipped cycle, counted in s.blockedReplays. Above the
//     issue throttle the SM then cannot issue at all.
//   - Bubble warps (see warpState.stallPending) do not count as events;
//     their wake-ups in a skipped window are replayed by replayBubbles.
//     The pacing frontier they wait on moves only when some warp issues
//     a real instruction, and any such issue is an event here.
func (s *System) smNextEvent(sm *SM, now uint64) uint64 {
	sm.bubbles = sm.bubbles[:0]
	if sm.missQueue.Len() > 0 {
		head := sm.missQueue.Front()
		part, _ := s.pmap.ToLocal(head.addr)
		switch {
		case s.toPart[part].Len() >= s.cfg.XbarQueueDepth:
			// Rejected before the tier is asked: no replay.
		case s.uvm != nil && s.uvm.tier.Blocked(uint64(head.addr)):
			s.blockedReplays++
		default:
			return now + 1
		}
		if sm.missQueue.Len() > missQueueThrottle {
			return ^uint64(0)
		}
	}
	return sm.warpNextEvent(now)
}

// nextEventCycle computes the system-wide event horizon: the minimum of
// every component's next-event cycle and the telemetry sampler's next due
// cycle (samples must be taken at exactly the cycles an every-cycle run
// would take them). now+1 short-circuits — nothing can be earlier.
func (s *System) nextEventCycle(now uint64) uint64 {
	next := ^uint64(0)
	s.blockedReplays = 0
	// Start at the SM that pinned the last horizon: while warps issue, it
	// usually pins the next one too, which spares the scans of the others.
	for i := range s.sms {
		k := (s.smHint + i) % len(s.sms)
		if v := s.smNextEvent(s.sms[k], now); v < next {
			next = v
			if next <= now+1 {
				s.smHint = k
				return now + 1
			}
		}
	}
	for p := range s.toPart {
		if s.toPart[p].Len() > 0 {
			// The ring is maturity-ordered; a matured head retries delivery
			// every cycle (it may be waiting out bank back-pressure).
			v := s.toPart[p].Front().at
			if v <= now+1 {
				return now + 1
			}
			if v < next {
				next = v
			}
		}
	}
	if s.toSM.Len() > 0 {
		v := s.toSM.Front().at
		if v <= now+1 {
			return now + 1
		}
		if v < next {
			next = v
		}
	}
	for p := range s.l2 {
		for _, b := range s.l2[p] {
			if v := b.nextEvent(now); v < next {
				next = v
				if next <= now+1 {
					return now + 1
				}
			}
		}
	}
	for _, mee := range s.mees {
		if v := mee.NextEvent(now); v < next {
			next = v
			if next <= now+1 {
				return now + 1
			}
		}
	}
	for _, ch := range s.channels {
		if v := ch.NextEvent(now); v < next {
			next = v
			if next <= now+1 {
				return now + 1
			}
		}
	}
	if s.uvm != nil {
		if v := s.uvm.tier.NextEvent(now); v < next {
			next = v
			if next <= now+1 {
				return now + 1
			}
		}
	}
	if s.tele != nil {
		if at := s.tele.NextSampleAt(); at != ^uint64(0) {
			if at <= now+1 {
				return now + 1
			}
			if at < next {
				next = at
			}
		}
	}
	return next
}

// pendingSummary renders the stuck occupancy for drain-convergence reports:
// which queues still hold work and where requests are in flight.
func (s *System) pendingSummary() string {
	var xbar, resp, l2, meeBusy, dramPend int
	for p := range s.toPart {
		xbar += s.toPart[p].Len()
	}
	resp = s.toSM.Len()
	for p := range s.l2 {
		for _, b := range s.l2[p] {
			if !b.drained() {
				l2++
			}
		}
	}
	for _, mee := range s.mees {
		if !mee.Idle() {
			meeBusy++
		}
	}
	for _, ch := range s.channels {
		dramPend += ch.Pending()
	}
	migrations := 0
	if s.uvm != nil {
		migrations = s.uvm.tier.InflightMigrations()
	}
	return fmt.Sprintf("%d xbar entries, %d responses, %d busy L2 banks, %d busy MEEs, %d pending DRAM requests, %d in-flight page migrations",
		xbar, resp, l2, meeBusy, dramPend, migrations)
}

// acceptRequest is the crossbar admission path SMs call while issuing; it
// reads the tick cycle from s.tickNow (set by tickOnce) so the same func
// value serves every SM every cycle.
func (s *System) acceptRequest(r smRequest) bool {
	part, local := s.pmap.ToLocal(r.addr)
	if s.toPart[part].Len() >= s.cfg.XbarQueueDepth {
		return false
	}
	// Page-residency gate: a non-resident page faults (or keeps
	// migrating) and the request replays from the miss-queue head next
	// cycle. Checked after the queue-depth gate so the tier only ever
	// sees admission attempts that would otherwise succeed.
	if s.uvm != nil && !s.uvm.admit(r.addr, r.write, s.tickNow) {
		return false
	}
	kind := memdef.Read
	if r.write {
		kind = memdef.Write
	}
	s.toPart[part].Push(xbarEntry{
		r: memdef.Request{
			Phys: r.addr, Local: local, Partition: part,
			Kind: kind, Space: r.space, SM: r.sm, Warp: r.warp,
		},
		at: s.tickNow + s.cfg.XbarLatency,
	})
	return true
}

// tickOnce is the per-cycle entry point: everything it reaches is the
// steady-state hot path the hotalloc/syncfree analyzers police.
//
//shm:tick-root
func (s *System) tickOnce(now uint64) {
	// Progress heartbeat: one comparison per tick, one atomic store per
	// interval, no allocations. Deliberately outside the event horizon —
	// a lagging heartbeat is fine, a horizon entry would change skip
	// cycles and break byte-identity with unobserved runs.
	if s.obsProbe != nil && now >= s.obsNextAt {
		s.obsProbe.Observe(obs.Event{Kind: obs.EvProgress, Cycle: now}) //shm:cold interval-throttled heartbeat: fires once per obsInterval (8192 cycles), not per tick

		s.obsNextAt = now + s.obsInterval
	}
	if s.syncer != nil {
		s.syncer.SyncTick()
	}
	if s.tele != nil {
		s.tele.MaybeSample(now, s.snapFn)
	}
	s.tickNow = now

	// 0. The host tier completes due page migrations, so a page ready at
	// cycle N admits this tick's retries.
	if s.uvm != nil {
		s.uvm.tick(now)
	}

	// 1. SMs issue instructions; misses enter the crossbar.
	for _, sm := range s.sms {
		sm.tick(now, s.acceptFn)
	}

	// 2. Crossbar delivers matured requests to L2 banks. Delivery stops at
	// the first entry whose target bank is full: this is intentional
	// head-of-line blocking (the per-partition crossbar port is a FIFO
	// link, not a router), so a younger request to an uncontended bank must
	// wait behind the blocked head. The queue is maturity-ordered, so the
	// loop also stops at the first entry still in flight.
	for p := range s.toPart {
		q := &s.toPart[p]
		for q.Len() > 0 && q.Front().at <= now {
			front := q.Front()
			bank := s.l2[p][s.bankOf(front.r.Local)]
			if !bank.enqueue(front.r, now) {
				break
			}
			q.PopFront()
		}
	}

	// 3. L2 banks process requests, forwarding misses to their MEE.
	for p := range s.l2 {
		mee := s.mees[p]
		for _, bank := range s.l2[p] {
			bank.tick(now, mee, s.respondFn)
		}
	}

	// 4. MEEs advance; completed reads fill the L2 banks.
	for p, mee := range s.mees {
		for _, r := range mee.Tick(now) {
			bank := s.l2[p][s.bankOf(r.Local)]
			bank.onFill(r.Local, now, mee, s.respondFn)
		}
	}

	// 5. DRAM channels advance; completions return to their owning MEE.
	for _, ch := range s.channels {
		for _, done := range ch.Tick(now) {
			owner := secmem.TokenOwner(done.Token)
			if owner >= 0 && owner < len(s.mees) {
				s.mees[owner].OnDRAMComplete(done.Token, now)
			}
		}
	}

	// 6. Response network delivers matured fills to SMs. The ring is
	// maturity-ordered (respond pushes with a fixed latency off a monotonic
	// now), so the matured entries are exactly a front prefix and delivery
	// order matches the old full-scan-in-push-order exactly — that order is
	// load-bearing, since each fill touches L1 LRU state.
	for s.toSM.Len() > 0 && s.toSM.Front().at <= now {
		e := s.toSM.PopFront()
		s.sms[e.sm].onFill(e.phys, now)
	}
}

// respond routes an L2 read response back toward its SM.
func (s *System) respond(r memdef.Request, now uint64) {
	if r.SM < 0 {
		return
	}
	s.toSM.Push(respEntry{phys: memdef.SectorAddr(r.Phys), sm: r.SM, at: now + s.cfg.XbarLatency})
}

func (s *System) smsFinished() bool {
	for _, sm := range s.sms {
		if !sm.finished() {
			return false
		}
	}
	return true
}

func (s *System) drained() bool {
	for p := range s.toPart {
		if s.toPart[p].Len() > 0 {
			return false
		}
	}
	if s.toSM.Len() > 0 {
		return false
	}
	for p := range s.l2 {
		for _, b := range s.l2[p] {
			if !b.drained() {
				return false
			}
		}
	}
	for _, mee := range s.mees {
		if !mee.Idle() {
			return false
		}
	}
	for _, ch := range s.channels {
		if !ch.Drained() {
			return false
		}
	}
	if s.uvm != nil && s.uvm.tier.InflightMigrations() > 0 {
		return false
	}
	return true
}

func (s *System) collect(workload string, completed bool) Result {
	if s.tele != nil {
		s.tele.FinishRun(s.cycle, s.snapshot)
	}
	res := Result{Workload: workload, Cycles: s.cycle, Completed: completed}
	for _, sm := range s.sms {
		res.Instructions += sm.Instructions
		res.L1.Merge(&sm.l1.Stats)
	}
	for p := range s.l2 {
		for _, b := range s.l2[p] {
			st := b.Stats()
			res.L2.Merge(&st)
			res.VictimHits += b.VictimHits
			res.VictimPushes += b.VictimPushes
		}
	}
	var busSum float64
	for _, ch := range s.channels {
		res.Traffic.Merge(&ch.Traffic)
		busSum += ch.BusUtilization(s.cycle)
	}
	res.BusUtilization = busSum / float64(len(s.channels))
	for _, mee := range s.mees {
		ctr, mac, bmtS := mee.CacheStats()
		res.Ctr.Merge(&ctr)
		res.MAC.Merge(&mac)
		res.BMT.Merge(&bmtS)
		mee.FoldCounters()
		res.Reg.Merge(&mee.Reg)
		mon, skip := mee.MATStats()
		res.Reg.Add("mat_monitored", mon)
		res.Reg.Add("mat_skipped", skip)
		ro, st := mee.AccuracyResults()
		res.ROAccuracy.Merge(&ro)
		res.StreamAccuracy.Merge(&st)
	}
	if s.uvm != nil {
		s.uvm.mergeInto(&res)
	}
	return res
}

// String renders a one-line summary.
func (r Result) String() string {
	return fmt.Sprintf("%s/%s: IPC=%.3f cycles=%d instr=%d bwOvh=%.2f%% busUtil=%.1f%%",
		r.Workload, r.Scheme, r.IPC(), r.Cycles, r.Instructions,
		100*r.BandwidthOverhead(), 100*r.BusUtilization)
}

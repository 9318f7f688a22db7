package gpu

import (
	"fmt"
	"hash/fnv"

	"shmgpu/internal/flatmap"
	"shmgpu/internal/memdef"
	"shmgpu/internal/ringbuf"
	"shmgpu/internal/snapshot"
)

// Checkpoint/restore for the whole System. The capture point is a paused
// RunUntil: the System sits at a kernel-interior tick boundary, which is
// the only place every component's transient state is fully observable
// (per-tick scratch like dram doneBuf or the MEE's response buffer is
// empty between ticks). The restore target must be a freshly built
// NewSystem whose configuration matches the snapshot's fingerprint up to
// the execution-strategy knob (DisableFastForward) that is proven
// byte-neutral by the equivalence corpus — forking one warmed parent
// across it is the whole point. Cold path only.

// StatefulWorkload is the optional Workload extension checkpointing
// requires: the workload codes its cross-warp state (e.g. the pacing
// frontier), restoring it into a freshly built instance of the same spec.
type StatefulWorkload interface {
	Workload
	State(*snapshot.Codec)
}

// StatefulWarpProgram is the per-warp analogue: loading fast-forwards a
// freshly created program (wl.NewWarp) to the captured position.
type StatefulWarpProgram interface {
	WarpProgram
	State(*snapshot.Codec)
}

// fingerprint hashes the configuration a snapshot is only valid for:
// everything in Config and the secure-memory design except the
// execution-strategy knob children are allowed to vary. MEETune is a
// func (it would hash as a pointer), so the tuned partition-0 MEE config
// stands in for it.
func (s *System) fingerprint(wlName string) uint64 {
	c := s.cfg
	c.DisableFastForward = false
	c.MEETune = nil
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v|%+v|%+v|%s", c, s.opts, s.mees[0].Config(), wlName)
	return h.Sum64()
}

func requestState(c *snapshot.Codec, r *memdef.Request) { r.State(c) }

func memInstState(c *snapshot.Codec, mi *MemInst) {
	snapshot.Slice(c, &mi.Sectors, func(c *snapshot.Codec, a *memdef.Addr) { c.U64((*uint64)(a)) })
	c.Bool(&mi.Write)
	c.U8((*uint8)(&mi.Space))
	c.Bool(&mi.Stall)
}

// state codes an SM. Loading rebuilds the warp programs via wl.NewWarp for
// kernel and immediately fast-forwards each from the stream.
func (s *SM) state(c *snapshot.Codec, wl Workload, kernel int) {
	c.Int(&s.lastWarp)
	c.U64(&s.Instructions)
	c.U64(&s.Loads)
	c.U64(&s.Stores)
	s.l1.State(c)
	flatmap.MultiMapState(c, &s.l1Waiters, (*snapshot.Codec).I32)
	ringbuf.State(c, &s.missQueue, func(c *snapshot.Codec, r *smRequest) {
		c.U64((*uint64)(&r.addr))
		c.Bool(&r.write)
		c.U8((*uint8)(&r.space))
		c.Int(&r.sm)
		c.Int(&r.warp)
	})
	if !c.Count(s.cfg.WarpsPerSM, fmt.Sprintf("gpu: sm %d warps", s.id)) {
		return
	}
	if c.Loading() {
		s.warps = make([]warpState, s.cfg.WarpsPerSM)
	}
	for w := range s.warps {
		ws := &s.warps[w]
		c.Int(&ws.computeLeft)
		memInstState(c, &ws.pendingMem)
		c.Bool(&ws.haveMem)
		c.Int(&ws.outstanding)
		c.U64(&ws.readyAt)
		c.Bool(&ws.done)
		if c.Err() != nil {
			return
		}
		if c.Loading() {
			ws.prog = wl.NewWarp(kernel, s.id, w)
			ws.stalls, _ = ws.prog.(StallPredictor)
		}
		prog, ok := ws.prog.(StatefulWarpProgram)
		if !ok {
			c.Failf("gpu: sm %d warp %d program (%T) is not snapshottable", s.id, w, ws.prog)
			return
		}
		prog.State(c)
	}
}

func (b *L2Bank) state(c *snapshot.Codec) {
	b.c.State(c)
	flatmap.MultiMapState(c, &b.waiters, requestState)
	ringbuf.State(c, &b.input, func(c *snapshot.Codec, lr *l2Request) {
		lr.req.State(c)
		c.U64(&lr.arrived)
	})
	ringbuf.State(c, &b.toMEE, requestState)
	c.U64(&b.sampleAccesses)
	c.U64(&b.sampleMisses)
	c.F64(&b.sampledRate)
	c.Bool(&b.haveSample)
	c.U64(&b.VictimHits)
	c.U64(&b.VictimPushes)
}

// State codes the complete simulator state at a paused RunUntil boundary;
// wl must be the workload the run drives.
//
// Saving refuses a run that was never paused mid-kernel, or that was
// cancelled (e.g. by the stall watchdog): it has nothing coherent to
// capture, and a cancelled cell must never leave a loadable snapshot
// behind.
//
// Loading needs a freshly built System and a fresh instance of the
// captured workload (same spec and seed); if the parent run had a
// telemetry collector attached, an equally configured collector must be
// attached first. The workload's state loads last: SM restore rebuilds
// warp programs via NewWarp, which repopulates shared workload state
// (e.g. the pacing frontier) as a side effect, and the final workload
// load overwrites all of it with the captured values.
func (s *System) State(c *snapshot.Codec, wl Workload) {
	if !c.Loading() && !s.midKernel {
		c.Failf("gpu: saving state requires a run paused mid-kernel (use RunUntil)")
		return
	}
	if !c.Loading() && s.cancelled {
		c.Failf("gpu: refusing to snapshot a cancelled run")
		return
	}
	swl, ok := wl.(StatefulWorkload)
	if !ok {
		c.Failf("gpu: workload %T is not snapshottable", wl)
		return
	}
	want := s.fingerprint(wl.Name())
	fp := want
	c.U64(&fp)
	if fp != want {
		c.Failf("gpu: snapshot was taken on a different configuration or workload (fingerprint %#x, this system %#x)", fp, want)
		return
	}
	c.U64(&s.cycle)
	c.U64(&s.instr)
	c.Int(&s.kernelIdx)
	c.U64(&s.runDeadline)
	if c.Loading() {
		if c.Err() == nil && (s.kernelIdx < 0 || s.kernelIdx >= wl.Kernels()) {
			c.Failf("gpu: snapshot kernel index %d out of range (%d kernels)", s.kernelIdx, wl.Kernels())
		}
		if c.Err() != nil {
			return
		}
		s.midKernel = true
		s.cancelled = false
		if ga, ok := wl.(GridAware); ok {
			ga.SetGrid(s.cfg.SMs, s.cfg.WarpsPerSM)
		}
	}

	if !c.Count(len(s.sms), "gpu: SMs") {
		return
	}
	for _, sm := range s.sms {
		sm.state(c, wl, s.kernelIdx)
	}
	if !c.Count(len(s.toPart), "gpu: partitions") {
		return
	}
	for p := range s.toPart {
		ringbuf.State(c, &s.toPart[p], func(c *snapshot.Codec, x *xbarEntry) {
			x.r.State(c)
			c.U64(&x.at)
		})
	}
	ringbuf.State(c, &s.toSM, func(c *snapshot.Codec, r *respEntry) {
		c.U64((*uint64)(&r.phys))
		c.Int(&r.sm)
		c.U64(&r.at)
		if c.Loading() && (r.sm < 0 || r.sm >= len(s.sms)) {
			c.Failf("gpu: crossbar response for SM %d, this system has %d", r.sm, len(s.sms))
		}
	})
	if !c.Count(len(s.l2), "gpu: L2 partitions") {
		return
	}
	for p := range s.l2 {
		if !c.Count(len(s.l2[p]), fmt.Sprintf("gpu: partition %d L2 banks", p)) {
			return
		}
		for _, b := range s.l2[p] {
			b.state(c)
		}
	}
	for _, mee := range s.mees {
		mee.State(c)
	}
	for _, ch := range s.channels {
		ch.State(c)
	}
	// Host-tier presence is fully determined by cfg.HostTier, which the
	// fingerprint covers, so the blob needs no presence marker; the
	// fingerprint also guarantees the tier geometry matches.
	if s.cfg.HostTier {
		if c.Loading() {
			s.startUVM(wl)
		}
		s.uvm.tier.State(c)
		c.U64(&s.uvm.roTransitions)
	}
	swl.State(c)
	hadTele := s.tele != nil
	c.Bool(&hadTele)
	if hadTele != (s.tele != nil) {
		c.Failf("gpu: snapshot telemetry mismatch (captured with collector: %v, this system: %v)", hadTele, s.tele != nil)
		return
	}
	if s.tele != nil {
		s.tele.State(c)
	}
}

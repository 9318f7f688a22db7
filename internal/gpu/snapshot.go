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
// the execution-strategy knobs (ParallelShards, DisableFastForward) that
// are proven byte-neutral by the equivalence corpus — forking one warmed
// parent across those knobs is the whole point. Cold path only.

// StatefulWorkload is the optional Workload extension checkpointing
// requires: the workload captures its cross-warp state (e.g. the pacing
// frontier) and restores it into a freshly built instance of the same
// spec.
type StatefulWorkload interface {
	Workload
	SaveState(*snapshot.Encoder)
	LoadState(*snapshot.Decoder) error
}

// StatefulWarpProgram is the per-warp analogue: LoadState fast-forwards a
// freshly created program (wl.NewWarp) to the captured position.
type StatefulWarpProgram interface {
	WarpProgram
	SaveState(*snapshot.Encoder)
	LoadState(*snapshot.Decoder) error
}

// fingerprint hashes the configuration a snapshot is only valid for:
// everything in Config and the secure-memory design except the
// execution-strategy knobs children are allowed to vary. MEETune is a
// func (it would hash as a pointer), so the tuned partition-0 MEE config
// stands in for it.
func (s *System) fingerprint(wlName string) uint64 {
	c := s.cfg
	c.ParallelShards = 0
	c.DisableFastForward = false
	c.MEETune = nil
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v|%+v|%+v|%s", c, s.opts, s.mees[0].Config(), wlName)
	return h.Sum64()
}

func saveMemInst(e *snapshot.Encoder, mi *MemInst) {
	e.Int(len(mi.Sectors))
	for _, a := range mi.Sectors {
		e.U64(uint64(a))
	}
	e.Bool(mi.Write)
	e.U8(uint8(mi.Space))
	e.Bool(mi.Stall)
}

func loadMemInst(d *snapshot.Decoder, mi *MemInst) error {
	n := d.Len()
	if err := d.Err(); err != nil {
		return err
	}
	mi.Sectors = nil
	if n > 0 {
		mi.Sectors = make([]memdef.Addr, n)
		for i := range mi.Sectors {
			mi.Sectors[i] = memdef.Addr(d.U64())
		}
	}
	mi.Write = d.Bool()
	mi.Space = memdef.Space(d.U8())
	mi.Stall = d.Bool()
	return d.Err()
}

func (s *SM) saveState(e *snapshot.Encoder) error {
	e.Int(s.lastWarp)
	e.U64(s.Instructions)
	e.U64(s.Loads)
	e.U64(s.Stores)
	s.l1.SaveState(e)
	flatmap.SaveMultiMap(e, &s.l1Waiters, func(e *snapshot.Encoder, v *int32) {
		e.I32(*v)
	})
	ringbuf.Save(e, &s.missQueue, func(e *snapshot.Encoder, r *smRequest) {
		e.U64(uint64(r.addr))
		e.Bool(r.write)
		e.U8(uint8(r.space))
		e.Int(r.sm)
		e.Int(r.warp)
	})
	e.Int(len(s.warps))
	for w := range s.warps {
		ws := &s.warps[w]
		e.Int(ws.computeLeft)
		saveMemInst(e, &ws.pendingMem)
		e.Bool(ws.haveMem)
		e.Int(ws.outstanding)
		e.U64(ws.readyAt)
		e.Bool(ws.done)
		prog, ok := ws.prog.(StatefulWarpProgram)
		if !ok {
			return fmt.Errorf("gpu: sm %d warp %d program (%T) is not snapshottable", s.id, w, ws.prog)
		}
		prog.SaveState(e)
	}
	return nil
}

// loadState restores an SM; warp programs are rebuilt via wl.NewWarp for
// kernel and immediately fast-forwarded from the stream.
func (s *SM) loadState(d *snapshot.Decoder, wl Workload, kernel int) error {
	s.lastWarp = d.Int()
	s.Instructions = d.U64()
	s.Loads = d.U64()
	s.Stores = d.U64()
	if err := s.l1.LoadState(d); err != nil {
		return err
	}
	err := flatmap.LoadMultiMap(d, &s.l1Waiters, func(d *snapshot.Decoder, v *int32) {
		*v = d.I32()
	})
	if err != nil {
		return err
	}
	err = ringbuf.Load(d, &s.missQueue, func(d *snapshot.Decoder, r *smRequest) {
		r.addr = memdef.Addr(d.U64())
		r.write = d.Bool()
		r.space = memdef.Space(d.U8())
		r.sm = d.Int()
		r.warp = d.Int()
	})
	if err != nil {
		return err
	}
	nWarps := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if nWarps != s.cfg.WarpsPerSM {
		return fmt.Errorf("gpu: sm %d snapshot has %d warps, config has %d", s.id, nWarps, s.cfg.WarpsPerSM)
	}
	s.warps = make([]warpState, nWarps)
	for w := range s.warps {
		ws := &s.warps[w]
		ws.computeLeft = d.Int()
		if err := loadMemInst(d, &ws.pendingMem); err != nil {
			return err
		}
		ws.haveMem = d.Bool()
		ws.outstanding = d.Int()
		ws.readyAt = d.U64()
		ws.done = d.Bool()
		if err := d.Err(); err != nil {
			return err
		}
		prog, ok := wl.NewWarp(kernel, s.id, w).(StatefulWarpProgram)
		if !ok {
			return fmt.Errorf("gpu: sm %d warp %d program is not snapshottable", s.id, w)
		}
		if err := prog.LoadState(d); err != nil {
			return err
		}
		ws.prog = prog
		ws.stalls, _ = prog.(StallPredictor)
	}
	return d.Err()
}

func (b *L2Bank) saveState(e *snapshot.Encoder) {
	b.c.SaveState(e)
	flatmap.SaveMultiMap(e, &b.waiters, func(e *snapshot.Encoder, r *memdef.Request) {
		r.SaveState(e)
	})
	ringbuf.Save(e, &b.input, func(e *snapshot.Encoder, lr *l2Request) {
		lr.req.SaveState(e)
		e.U64(lr.arrived)
	})
	ringbuf.Save(e, &b.toMEE, func(e *snapshot.Encoder, r *memdef.Request) {
		r.SaveState(e)
	})
	e.U64(b.sampleAccesses)
	e.U64(b.sampleMisses)
	e.F64(b.sampledRate)
	e.Bool(b.haveSample)
	e.U64(b.VictimHits)
	e.U64(b.VictimPushes)
}

func (b *L2Bank) loadState(d *snapshot.Decoder) error {
	if err := b.c.LoadState(d); err != nil {
		return err
	}
	err := flatmap.LoadMultiMap(d, &b.waiters, func(d *snapshot.Decoder, r *memdef.Request) {
		r.LoadState(d)
	})
	if err != nil {
		return err
	}
	err = ringbuf.Load(d, &b.input, func(d *snapshot.Decoder, lr *l2Request) {
		lr.req.LoadState(d)
		lr.arrived = d.U64()
	})
	if err != nil {
		return err
	}
	err = ringbuf.Load(d, &b.toMEE, func(d *snapshot.Decoder, r *memdef.Request) {
		r.LoadState(d)
	})
	if err != nil {
		return err
	}
	b.sampleAccesses = d.U64()
	b.sampleMisses = d.U64()
	b.sampledRate = d.F64()
	b.haveSample = d.Bool()
	b.VictimHits = d.U64()
	b.VictimPushes = d.U64()
	return d.Err()
}

// SaveState captures the complete simulator state at a paused RunUntil
// boundary. wl must be the workload the run was driving. A run that was
// never paused mid-kernel, or that was cancelled (e.g. by the stall
// watchdog), has nothing coherent to capture and errors out — a cancelled
// cell must never leave a loadable snapshot behind.
func (s *System) SaveState(e *snapshot.Encoder, wl Workload) error {
	if !s.midKernel {
		return fmt.Errorf("gpu: SaveState requires a run paused mid-kernel (use RunUntil)")
	}
	if s.cancelled {
		return fmt.Errorf("gpu: refusing to snapshot a cancelled run")
	}
	swl, ok := wl.(StatefulWorkload)
	if !ok {
		return fmt.Errorf("gpu: workload %T is not snapshottable", wl)
	}
	if s.par != nil && s.tele != nil {
		// Shard counter buffers must fold into the collector before its
		// state is captured (event captures are replayed every tick, so
		// only counters are outstanding between ticks).
		s.par.flushCounters()
	}

	e.U64(s.fingerprint(wl.Name()))
	e.U64(s.cycle)
	e.U64(s.instr)
	e.Int(s.kernelIdx)
	e.U64(s.runDeadline)

	e.Int(len(s.sms))
	for _, sm := range s.sms {
		if err := sm.saveState(e); err != nil {
			return err
		}
	}
	e.Int(len(s.toPart))
	for p := range s.toPart {
		ringbuf.Save(e, &s.toPart[p], func(e *snapshot.Encoder, x *xbarEntry) {
			x.r.SaveState(e)
			e.U64(x.at)
		})
	}
	ringbuf.Save(e, &s.toSM, func(e *snapshot.Encoder, r *respEntry) {
		e.U64(uint64(r.phys))
		e.Int(r.sm)
		e.U64(r.at)
	})
	e.Int(len(s.l2))
	for p := range s.l2 {
		e.Int(len(s.l2[p]))
		for _, b := range s.l2[p] {
			b.saveState(e)
		}
	}
	for _, mee := range s.mees {
		mee.SaveState(e)
	}
	for _, ch := range s.channels {
		ch.SaveState(e)
	}
	// Host-tier presence is fully determined by cfg.HostTier, which the
	// fingerprint covers, so the blob needs no presence marker.
	if s.uvm != nil {
		s.uvm.tier.SaveState(e)
		e.U64(s.uvm.roTransitions)
	}
	swl.SaveState(e)
	e.Bool(s.tele != nil)
	if s.tele != nil {
		s.tele.SaveState(e)
	}
	return nil
}

// LoadState restores a snapshot into a freshly built System. wl must be a
// fresh instance of the captured workload (same spec and seed); if the
// parent run had a telemetry collector attached, an equally configured
// collector must be attached before loading. The workload's state loads
// last: SM restore rebuilds warp programs via NewWarp, which repopulates
// shared workload state (e.g. the pacing frontier) as a side effect, and
// the final workload load overwrites all of it with the captured values.
func (s *System) LoadState(d *snapshot.Decoder, wl Workload) error {
	swl, ok := wl.(StatefulWorkload)
	if !ok {
		return fmt.Errorf("gpu: workload %T is not snapshottable", wl)
	}
	fp := d.U64()
	if err := d.Err(); err != nil {
		return err
	}
	if want := s.fingerprint(wl.Name()); fp != want {
		return fmt.Errorf("gpu: snapshot was taken on a different configuration or workload (fingerprint %#x, this system %#x)", fp, want)
	}
	s.cycle = d.U64()
	s.instr = d.U64()
	s.kernelIdx = d.Int()
	s.runDeadline = d.U64()
	if err := d.Err(); err != nil {
		return err
	}
	if s.kernelIdx < 0 || s.kernelIdx >= wl.Kernels() {
		return fmt.Errorf("gpu: snapshot kernel index %d out of range (%d kernels)", s.kernelIdx, wl.Kernels())
	}
	s.midKernel = true
	s.cancelled = false
	if ga, ok := wl.(GridAware); ok {
		ga.SetGrid(s.cfg.SMs, s.cfg.WarpsPerSM)
	}

	nSMs := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if nSMs != len(s.sms) {
		return fmt.Errorf("gpu: snapshot has %d SMs, this system has %d", nSMs, len(s.sms))
	}
	for _, sm := range s.sms {
		if err := sm.loadState(d, wl, s.kernelIdx); err != nil {
			return err
		}
	}
	nParts := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if nParts != len(s.toPart) {
		return fmt.Errorf("gpu: snapshot has %d partitions, this system has %d", nParts, len(s.toPart))
	}
	for p := range s.toPart {
		err := ringbuf.Load(d, &s.toPart[p], func(d *snapshot.Decoder, x *xbarEntry) {
			x.r.LoadState(d)
			x.at = d.U64()
		})
		if err != nil {
			return err
		}
	}
	err := ringbuf.Load(d, &s.toSM, func(d *snapshot.Decoder, r *respEntry) {
		r.phys = memdef.Addr(d.U64())
		r.sm = d.Int()
		r.at = d.U64()
	})
	if err != nil {
		return err
	}
	nL2Parts := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if nL2Parts != len(s.l2) {
		return fmt.Errorf("gpu: snapshot has %d L2 partitions, this system has %d", nL2Parts, len(s.l2))
	}
	for p := range s.l2 {
		nBanks := d.Int()
		if err := d.Err(); err != nil {
			return err
		}
		if nBanks != len(s.l2[p]) {
			return fmt.Errorf("gpu: snapshot partition %d has %d L2 banks, this system has %d", p, nBanks, len(s.l2[p]))
		}
		for _, b := range s.l2[p] {
			if err := b.loadState(d); err != nil {
				return err
			}
		}
	}
	for _, mee := range s.mees {
		if err := mee.LoadState(d); err != nil {
			return err
		}
	}
	for _, ch := range s.channels {
		if err := ch.LoadState(d); err != nil {
			return err
		}
	}
	if s.cfg.HostTier {
		// The fingerprint guarantees the snapshot was captured with the
		// same tier geometry; build the tier then restore its state.
		s.startUVM(wl)
		s.uvm.tier.LoadState(d)
		s.uvm.roTransitions = d.U64()
		if err := d.Err(); err != nil {
			return err
		}
	}
	if err := swl.LoadState(d); err != nil {
		return err
	}
	hadTele := d.Bool()
	if err := d.Err(); err != nil {
		return err
	}
	if hadTele != (s.tele != nil) {
		return fmt.Errorf("gpu: snapshot telemetry mismatch (captured with collector: %v, this system: %v)", hadTele, s.tele != nil)
	}
	if s.tele != nil {
		if err := s.tele.LoadState(d); err != nil {
			return err
		}
	}
	return d.Err()
}

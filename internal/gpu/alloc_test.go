package gpu

import (
	"runtime"
	"testing"

	"shmgpu/internal/memdef"
	"shmgpu/internal/obs"
	"shmgpu/internal/scheme"
	"shmgpu/internal/secmem"
	"shmgpu/internal/stats"
)

// allocGrowthBound is the most heap allocations the measured kernels of one
// TestTickSteadyStateAllocFree cell may make. Once every buffer has seen
// three kernels, what is left is amortized high-water growth: a ringbuf
// ring or flatmap table doubling, or a slab adding a page, when a later
// kernel's queues run deeper than any before. Such growth stays in the low
// tens per cell. Every event floor the test asserts is above this bound, so
// a site that allocates once per event fails the test.
const allocGrowthBound = 64

// Grid shape of smallConfig, which pacedWorkload's warp array is sized to.
const (
	pacedSMs   = 4
	pacedWarps = 8
)

// pacedWorkload is a load/store sweep whose warp programs never allocate.
// Each kernel re-copies the whole buffer through the reset API, so every
// kernel's stores make read-only regions writable again. Each kernel ends
// with a paced tail: warp 0 re-loads its first block tail times, an L1 hit
// that holds it for L1Latency cycles each, while every other warp waits
// for it in Stall bubbles before its one last load. With the memory system
// quiet, each of those waits is a fast-forward skip over bubble warps.
//
// SyncTick counts the ticks, so skipped cycles are the cycles the loop
// advanced minus the ticks it ran. It also counts bubble replays: a tick
// that follows a skip finds each SM's bubble list as the skip's horizon
// evaluation left it, and advanceCycle replayed every SM whose list is not
// empty.
type pacedWorkload struct {
	bufBytes   uint64
	kernels    int
	insts      int // sweep memory instructions per warp and kernel
	tail       int // warp 0's extra loads at the end of each kernel
	compute    int
	writeEvery int

	sys     *System
	setup   KernelSetup
	progs   [pacedSMs * pacedWarps]pacedWarp
	gate    int // warp 0's issue count, frozen at the top of the tick
	last    uint64
	ticks   uint64
	replays uint64
}

func newPacedWorkload() *pacedWorkload {
	w := &pacedWorkload{bufBytes: 1 << 20, kernels: 6, insts: 320, tail: 32, compute: 2, writeEvery: 3}
	all := AddrRange{0, memdef.Addr(w.bufBytes)}
	w.setup = KernelSetup{
		CopyRanges:   []AddrRange{all},
		UseResetAPI:  true,
		StreamTruths: []StreamTruth{{Range: all, Streaming: true}},
	}
	return w
}

func (w *pacedWorkload) Name() string            { return "paced" }
func (w *pacedWorkload) Kernels() int            { return w.kernels }
func (w *pacedWorkload) Footprint() uint64       { return w.bufBytes }
func (w *pacedWorkload) Setup(k int) KernelSetup { return w.setup }

// SyncTick implements TickSynced.
func (w *pacedWorkload) SyncTick() {
	if now := w.sys.cycle; now > w.last+1 {
		for _, sm := range w.sys.sms {
			if len(sm.bubbles) != 0 {
				w.replays++
			}
		}
	}
	w.last = w.sys.cycle
	w.ticks++
	w.gate = w.progs[0].issued
}

// NewWarp recycles the slot's program in place: warp i sweeps blocks i,
// i+N, i+2N, ... and wraps at the end of the buffer.
func (w *pacedWorkload) NewWarp(kernel, sm, warp int) WarpProgram {
	idx := sm*pacedWarps + warp
	p := &w.progs[idx]
	start := memdef.Addr(idx * memdef.BlockSize)
	*p = pacedWarp{w: w, start: start, cursor: start, step: memdef.Addr(len(w.progs) * memdef.BlockSize)}
	return p
}

type pacedWarp struct {
	w                   *pacedWorkload
	start, cursor, step memdef.Addr
	issued              int
	sectors             [memdef.SectorsPerBlock]memdef.Addr
}

// waiting reports whether the warp has swept its share and warp 0, whose
// issue count is n, has not finished its tail.
func (p *pacedWarp) waiting(n int) bool {
	return p != &p.w.progs[0] && p.issued == p.w.insts && n < p.w.insts+p.w.tail
}

// Next returns a slice of the warp's own sector array. issueMem consumes
// MemInst.Sectors before the SM calls advance again, so the array is never
// aliased across two live instructions.
func (p *pacedWarp) Next() (int, MemInst, bool) {
	w := p.w
	switch {
	case p.issued < w.insts:
		p.issued++
		base := p.cursor
		if p.cursor += p.step; uint64(p.cursor) >= w.bufBytes {
			p.cursor = p.start
		}
		return w.compute, p.inst(base, p.issued%w.writeEvery == 0), false
	case p.waiting(w.gate):
		return 0, MemInst{Stall: true}, false
	case p.issued < w.insts+w.tail && (p == &w.progs[0] || p.issued == w.insts):
		p.issued++
		return 0, p.inst(p.start, false), false
	}
	return 0, MemInst{}, true
}

func (p *pacedWarp) inst(base memdef.Addr, write bool) MemInst {
	for i := range p.sectors {
		p.sectors[i] = base + memdef.Addr(i*memdef.SectorSize)
	}
	return MemInst{Sectors: p.sectors[:], Write: write, Space: memdef.SpaceGlobal}
}

// StallsAgain implements StallPredictor: the wait against the count the
// coming tick will freeze, which moves only when warp 0 issues.
func (p *pacedWarp) StallsAgain() bool {
	return p.waiting(p.w.progs[0].issued)
}

// loopEvents are the event classes one measurement covers.
type loopEvents struct {
	l2Writebacks, meeWrites, roTransitions, victimPushes uint64
	faults, evictions, prefetches, detections, skipped   uint64
	replays                                              uint64
}

func (s *System) loopEvents(wl *pacedWorkload) loopEvents {
	res := s.collect(wl.Name(), true)
	e := loopEvents{
		l2Writebacks:  res.L2.Writebacks,
		meeWrites:     res.Traffic.WriteBytes[stats.TrafficData] / memdef.SectorSize,
		roTransitions: res.Reg.Get("ro_transition"),
		victimPushes:  res.VictimPushes,
		detections:    res.Reg.Get("det_stream") + res.Reg.Get("det_random"),
		skipped:       s.cycle - wl.ticks,
		replays:       wl.replays,
	}
	if s.uvm != nil {
		st := s.uvm.tier.Stats()
		e.faults, e.evictions, e.prefetches = st.Faults, st.Evictions, st.Prefetches
	}
	return e
}

func (a loopEvents) minus(b loopEvents) loopEvents {
	return loopEvents{
		l2Writebacks: a.l2Writebacks - b.l2Writebacks, meeWrites: a.meeWrites - b.meeWrites,
		roTransitions: a.roTransitions - b.roTransitions, victimPushes: a.victimPushes - b.victimPushes,
		faults: a.faults - b.faults, evictions: a.evictions - b.evictions,
		prefetches: a.prefetches - b.prefetches, detections: a.detections - b.detections,
		skipped: a.skipped - b.skipped, replays: a.replays - b.replays,
	}
}

// mallocs returns the heap allocations f performs.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// A GC cycle still running from setup would allocate as it finishes.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestKernelBoundaryFlushAllocFree pins the kernel-boundary flushes at zero
// allocations once earlier boundaries have sized their buffers: each L2
// bank streams its write-backs out of its cache's flush buffer, and each
// MEE spills its dirty metadata from its caches' flush buffers into DRAM
// requests that take no pending slot. Under SHM the dirty metadata grows
// over the first three kernels (each cache's flush buffer grows with it),
// so the boundaries after that are measured. TestTickSteadyStateAllocFree
// bounds the flushes together with the cycle loop; this test measures the
// two flushes alone, so it holds them to zero. It steps through Run's
// kernel loop by hand.
func TestKernelBoundaryFlushAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts secmem.Options
	}{
		{"Baseline", baselineOpts()},
		{"Naive", naiveOptions()},
		{"SHM", shmOptions()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wl := &streamWorkload{name: "flush", bufBytes: 2 << 20, compute: 2, insts: 300, writeEvery: 2, kernels: 5}
			s := NewSystem(smallConfig(), tc.opts)
			for k := 0; k < wl.Kernels(); k++ {
				s.applySetup(k, wl.Setup(k))
				for _, sm := range s.sms {
					sm.launch(k, wl)
				}
				if !s.runKernel() {
					t.Fatalf("kernel %d did not complete", k)
				}
				l2 := mallocs(func() {
					for _, banks := range s.l2 {
						for _, b := range banks {
							b.flushAll(s.cycle)
						}
					}
				})
				if s.l2[0][0].flushLeft == 0 {
					t.Fatalf("kernel %d left no dirty L2 sector to flush; the measurement is vacuous", k)
				}
				s.drainLoop()
				for _, mee := range s.mees {
					mee.FlushKernel(s.cycle)
				}
				meta := mallocs(func() {
					for _, mee := range s.mees {
						mee.FlushMetadata()
					}
				})
				s.drainLoop()
				if k >= 3 && (l2 != 0 || meta != 0) {
					t.Errorf("kernel %d boundary: L2 flush allocates %d times, metadata flush %d; want 0", k, l2, meta)
				}
			}
		})
	}
}

// TestTickSteadyStateAllocFree pins the cycle loop's allocation behaviour:
// once three kernels have sized every buffer, a kernel's cycle loop, its
// boundary flushes and its drains allocate at most allocGrowthBound times
// in total, counted exactly. It covers every design, the ops plane, and the
// host tier with and without prefetch, so a heap allocation added anywhere
// the loop runs (SM issue and bubble replay, crossbar, L2 fill, spill and
// victim cache, MEE reads, writes, read-only transitions and detections,
// DRAM, host-tier faults, evictions and prefetches, flushes and drains)
// shows up as one allocation per event. Each cell asserts floors on the
// events it runs, so no measurement is vacuous.
//
// The test steps drive's kernel loop by hand, to leave each kernel's setup
// out of the count.
func TestTickSteadyStateAllocFree(t *testing.T) {
	type cell struct {
		name     string
		opts     secmem.Options
		observed bool
		oversub  float64
		prefetch string
	}
	var cells []cell
	for _, sc := range scheme.All() {
		cells = append(cells, cell{name: sc.Name, opts: sc.Options})
	}
	shm, naive := scheme.SHM.Options, scheme.Naive.Options
	cells = append(cells,
		// A heartbeat is one comparison per tick plus an atomic store per
		// interval, never an allocation.
		cell{name: "SHM/observed", opts: shm, observed: true},
		// Everything resident: the tier admits without faulting.
		cell{name: "SHM/oversub-fit", opts: shm, oversub: 1.5},
	)
	for _, d := range []struct {
		name string
		opts secmem.Options
	}{{"SHM", shm}, {"Naive", naive}} {
		for _, pf := range []string{"", "stride", "stream"} {
			name := d.name + "/oversub=0.5"
			if pf != "" {
				name += "/" + pf
			}
			cells = append(cells, cell{name: name, opts: d.opts, oversub: 0.5, prefetch: pf})
		}
	}

	for _, tc := range cells {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig()
			// A bank samples its miss rate every 256 data accesses, so the
			// victim cache turns on within each kernel.
			cfg.VictimSampleWindow = 256
			if tc.oversub > 0 {
				cfg.HostTier = true
				cfg.OversubRatio = tc.oversub
				cfg.UVMPageBytes = 16 << 10
				cfg.UVMPrefetch = tc.prefetch
				cfg.MaxCycles = 0
			}
			wl := newPacedWorkload()
			s := NewSystem(cfg, tc.opts)
			wl.sys = s
			s.syncer = wl
			s.startUVM(wl)
			if tc.observed {
				p, err := obs.Start(obs.Options{Tool: "alloc-test"})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { p.Close() })
				r := p.BeginRun("loop")
				t.Cleanup(func() { r.Done(s.cycle, false) })
				s.SetObserver(r, 0)
			}

			const warmKernels = 3
			var allocs uint64
			var before loopEvents
			for k := 0; k < wl.Kernels(); k++ {
				if k == warmKernels {
					before = s.loopEvents(wl)
				}
				s.applySetup(k, wl.Setup(k))
				for _, sm := range s.sms {
					sm.launch(k, wl)
				}
				ok := true
				n := mallocs(func() {
					if ok = s.runKernel(); !ok {
						return
					}
					for _, banks := range s.l2 {
						for _, b := range banks {
							b.flushAll(s.cycle)
						}
					}
					s.drainLoop()
					for _, mee := range s.mees {
						mee.FlushKernel(s.cycle)
						mee.FlushMetadata()
					}
					s.drainLoop()
					for _, banks := range s.l2 {
						for _, b := range banks {
							b.resetSampling()
						}
					}
				})
				if !ok {
					t.Fatalf("kernel %d did not complete", k)
				}
				if k >= warmKernels {
					allocs += n
				}
			}
			ev := s.loopEvents(wl).minus(before)
			t.Logf("%d allocations over kernels %d-%d; events %+v", allocs, warmKernels, wl.Kernels()-1, ev)
			if allocs > allocGrowthBound {
				t.Errorf("kernels %d-%d allocate %d times, want at most %d", warmKernels, wl.Kernels()-1, allocs, allocGrowthBound)
			}

			floor := func(class string, n uint64) {
				t.Helper()
				if n <= allocGrowthBound {
					t.Errorf("measured kernels ran %d %s, want more than %d: one allocation per event would go unseen",
						n, class, allocGrowthBound)
				}
			}
			floor("L2 write-backs", ev.l2Writebacks)
			floor("MEE writes", ev.meeWrites)
			floor("skipped cycles", ev.skipped)
			floor("bubble replays", ev.replays)
			// A fault-in re-encrypts its page, which leaves it writable: below
			// fit, read-only transitions are rare.
			if tc.opts.ReadOnlyOpt && !tc.opts.OracleDetectors && !(tc.oversub > 0 && tc.oversub < 1) {
				floor("read-only transitions", ev.roTransitions)
			}
			if tc.opts.VictimL2 {
				floor("victim pushes", ev.victimPushes)
			}
			if tc.opts.DualGranMAC && !tc.opts.OracleDetectors {
				floor("MAT detections", ev.detections)
			}
			if tc.oversub > 0 && tc.oversub < 1 {
				floor("evictions", ev.evictions)
				// Prefetches take the place of most demand faults. Naive
				// has no streaming predictor, so stream prefetch finds no
				// stream to run ahead of.
				switch {
				case tc.prefetch == "stride" || tc.prefetch == "stream" && tc.opts.DualGranMAC:
					floor("prefetches", ev.prefetches)
				default:
					floor("faults", ev.faults)
				}
			}
		})
	}
}

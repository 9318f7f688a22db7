package gpu

import (
	"testing"

	"shmgpu/internal/memdef"
	"shmgpu/internal/obs"
	"shmgpu/internal/secmem"
)

// fixedWorkload is a streaming workload whose warp programs never allocate:
// each warp owns a fixed sector array and returns a slice of it from Next.
// That is safe against the simulator because issueMem consumes MemInst.Sectors
// before the SM calls advance() again, so the array is never aliased across
// two live instructions.
type fixedWorkload struct {
	bufBytes uint64
	compute  int
	insts    int
}

func (w *fixedWorkload) Name() string { return "fixed-stream" }
func (w *fixedWorkload) Kernels() int { return 1 }

// Footprint lets the UVM host tier size its page table to the actual
// working set (the oversubscribed alloc cases depend on it).
func (w *fixedWorkload) Footprint() uint64 { return w.bufBytes }

func (w *fixedWorkload) Setup(k int) KernelSetup {
	return KernelSetup{
		CopyRanges: []AddrRange{{0, memdef.Addr(w.bufBytes)}},
		StreamTruths: []StreamTruth{
			{Range: AddrRange{0, memdef.Addr(w.bufBytes)}, Streaming: true},
		},
	}
}

type fixedWarp struct {
	w       *fixedWorkload
	cursor  memdef.Addr
	step    memdef.Addr
	limit   memdef.Addr
	issued  int
	sectors [memdef.SectorsPerBlock]memdef.Addr
}

func (w *fixedWorkload) NewWarp(kernel, sm, warp int) WarpProgram {
	const smCount, warpCount = 4, 8 // matches smallConfig
	idx := uint64(sm*warpCount + warp)
	total := uint64(smCount * warpCount)
	return &fixedWarp{
		w:      w,
		cursor: memdef.Addr(idx * memdef.BlockSize),
		step:   memdef.Addr(total * memdef.BlockSize),
		limit:  memdef.Addr(w.bufBytes),
	}
}

func (p *fixedWarp) Next() (int, MemInst, bool) {
	if p.issued >= p.w.insts || p.cursor >= p.limit {
		return 0, MemInst{}, true
	}
	p.issued++
	base := p.cursor
	p.cursor += p.step
	for i := range p.sectors {
		p.sectors[i] = base + memdef.Addr(i*memdef.SectorSize)
	}
	return p.w.compute, MemInst{Sectors: p.sectors[:], Space: memdef.SpaceGlobal}, false
}

// steadyState builds a system mid-kernel: the kernel is launched and warmed
// long enough that every pool, ring buffer, and table has reached its
// steady-state capacity.
// oversub > 0 additionally enables the UVM host tier at that ratio, so
// the measured ticks cover the fault/replay/migration path too.
func steadyState(t *testing.T, opts secmem.Options, oversub float64, prefetch string) *System {
	t.Helper()
	cfg := smallConfig()
	if oversub > 0 {
		cfg.HostTier = true
		cfg.OversubRatio = oversub
		cfg.UVMPCIeBytesPerCycle = 256
		cfg.UVMPrefetch = prefetch
	}
	wl := &fixedWorkload{bufBytes: 40 << 20, compute: 4, insts: 20_000}
	s := NewSystem(cfg, opts)
	s.applySetup(0, wl.Setup(0))
	s.startUVM(wl)
	for _, sm := range s.sms {
		sm.launch(0, wl)
	}
	for i := 0; i < 30_000; i++ {
		s.tickOnce(s.cycle)
		s.cycle++
	}
	if s.smsFinished() {
		t.Fatal("workload finished during warm-up; steady-state measurement is vacuous")
	}
	return s
}

// TestTickSteadyStateAllocFree pins the tentpole's allocation-free hot path:
// once warm, a cycle of the full system (SMs, crossbar, L2 banks, MEEs, DRAM
// channels) must perform zero heap allocations, for the insecure baseline and
// for every secure-memory mechanism combination. Regressions here are how
// per-cycle garbage (map churn, queue re-slicing, scratch slices) sneaks back
// into the simulator.
func TestTickSteadyStateAllocFree(t *testing.T) {
	shmOpts := secmem.Options{
		Enabled: true, LocalMetadata: true, SectoredMetadata: true,
		ReadOnlyOpt: true, DualGranMAC: true,
	}
	cases := []struct {
		name     string
		opts     secmem.Options
		observed bool
		oversub  float64
		prefetch string
	}{
		{"Baseline", secmem.Options{}, false, 0, ""},
		{"Naive", secmem.Options{Enabled: true}, false, 0, ""},
		{"PSSM", secmem.Options{Enabled: true, LocalMetadata: true, SectoredMetadata: true}, false, 0, ""},
		{"SHM", shmOpts, false, 0, ""},
		// The live ops plane must honour the same contract: a progress
		// heartbeat is one comparison per tick plus an atomic store per
		// interval, never an allocation.
		{"SHM/observed", shmOpts, true, 0, ""},
		// The UVM host tier is preallocated at construction: neither the
		// non-faulting admit path (ratio ≥ 1.0, everything resident) nor
		// the fault/replay/eviction/migration machinery itself (ratio
		// 0.5, faulting throughout the measurement) may allocate.
		{"SHM/oversub-fit", shmOpts, false, 1.5, ""},
		{"SHM/oversub=0.5", shmOpts, false, 0.5, ""},
		// The migration-ahead engine reuses the same preallocated
		// structures: fault-stream tables are fixed arrays, prefetch
		// candidates coalesce into the existing migration ring, and the
		// lazy eviction heap is sized at construction — prefetching on
		// the hot path must not allocate either.
		{"SHM/oversub=0.5/stride", shmOpts, false, 0.5, "stride"},
		{"SHM/oversub=0.5/stream", shmOpts, false, 0.5, "stream"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := steadyState(t, tc.opts, tc.oversub, tc.prefetch)
			if tc.observed {
				p, err := obs.Start(obs.Options{Tool: "alloc-test"})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { p.Close() })
				r := p.BeginRun("steady")
				t.Cleanup(func() { r.Done(s.cycle, false) })
				s.SetObserver(r, 0)
			}
			allocs := testing.AllocsPerRun(5000, func() {
				s.tickOnce(s.cycle)
				s.cycle++
			})
			if allocs != 0 {
				t.Errorf("steady-state tick allocates %.2f times per cycle, want 0", allocs)
			}
			if s.smsFinished() {
				t.Error("workload finished during measurement; steady-state measurement is vacuous")
			}
		})
	}
}

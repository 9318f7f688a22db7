// Package workload provides the benchmark models driving the simulator:
// a generic, declarative kernel model (buffers with sizes, memory spaces,
// access patterns, read-only status, and write fractions) plus the sixteen
// benchmark instances of the paper's Table VII (Rodinia, Parboil and
// Polybench workloads), parameterized to match their published
// characteristics: bandwidth utilization bands, streaming and read-only
// access ratios (Fig. 5), constant/texture memory usage, write intensity,
// and multi-kernel structure.
//
// The real benchmarks are CUDA/OpenCL programs that cannot execute here;
// these models replay each benchmark's documented off-chip access behaviour
// (the only input the secure-memory designs react to), generated
// deterministically from a seed.
package workload

import (
	"fmt"
	"math/rand"

	"shmgpu/internal/gpu"
	"shmgpu/internal/memdef"
)

// Pattern is a buffer's dominant access pattern.
type Pattern uint8

const (
	// Stream sweeps every block of the buffer in a coherent coalesced
	// frontier (warp i handles blocks i, i+N, ...), possibly multi-pass.
	Stream Pattern = iota
	// Random touches uniformly random sectors with poor coalescing.
	Random
	// Stencil streams with neighbor-row touches (coverage stays complete,
	// so it detects as streaming).
	Stencil
	// Gather reads random blocks of a small buffer with high reuse
	// (texture/constant-style lookups).
	Gather
)

// String names the pattern.
func (p Pattern) String() string {
	switch p {
	case Stream:
		return "stream"
	case Random:
		return "random"
	case Stencil:
		return "stencil"
	default:
		return "gather"
	}
}

// Streaming reports whether the pattern's ground truth is "streaming" for
// the dual-granularity MAC decision.
func (p Pattern) Streaming() bool { return p == Stream || p == Stencil }

// ParsePattern maps a pattern name back to its Pattern; the empty string
// selects Stream. It is the inverse of String, used by declarative
// workload descriptions (the fuzz corpus's replayable JSON cases).
func ParsePattern(name string) (Pattern, error) {
	switch name {
	case "", "stream":
		return Stream, nil
	case "random":
		return Random, nil
	case "stencil":
		return Stencil, nil
	case "gather":
		return Gather, nil
	}
	return Stream, fmt.Errorf("workload: unknown access pattern %q", name)
}

// Buffer declares one device allocation of a benchmark.
type Buffer struct {
	// Name identifies the buffer ("matrix A", "edge list", ...).
	Name string
	// Bytes is the allocation size (rounded up to a 16 KB region).
	Bytes uint64
	// Space is the GPU memory space backing the buffer.
	Space memdef.Space
	// Pattern is the dominant access pattern.
	Pattern Pattern
	// ReadOnly marks buffers the kernels never write.
	ReadOnly bool
	// WriteFrac is the write fraction of accesses to this buffer
	// (ignored when ReadOnly).
	WriteFrac float64
	// Weight is the buffer's share of the kernel's memory instructions.
	Weight float64
	// HostCopied marks buffers populated by host→device copies (the
	// command processor marks them read-only at context init).
	HostCopied bool
}

// Spec declares one benchmark.
type Spec struct {
	// BenchName is the benchmark's name (Table VII row).
	BenchName string
	// Buffers lists the device allocations.
	Buffers []Buffer
	// ComputePerMem is the compute instructions issued per memory
	// instruction; it tunes the bandwidth utilization (Table VII).
	ComputePerMem int
	// KernelCount is the number of kernel launches.
	KernelCount int
	// RewriteInputs re-copies host-copied buffers before later kernels.
	RewriteInputs bool
	// UseResetAPI uses InputReadOnlyReset for those re-copies.
	UseResetAPI bool
	// MemInstsPerWarp is each warp's memory-instruction budget per kernel.
	MemInstsPerWarp int
	// FrontierWindow bounds how many memory-instruction steps a warp may
	// run ahead of the slowest warp, modeling the in-order tile dispatch
	// of real grids (resident threadblocks process consecutive tiles, so
	// the active data frontier stays narrow). 0 selects the default (1).
	FrontierWindow int
	// Seed makes generation deterministic.
	Seed int64
}

// placedBuffer is a buffer with its assigned physical range.
type placedBuffer struct {
	Buffer
	base memdef.Addr
}

func (b placedBuffer) rangeOf() gpu.AddrRange {
	return gpu.AddrRange{Lo: b.base, Hi: b.base + memdef.Addr(b.Bytes)}
}

// Bench is a runnable benchmark: a Spec with buffers laid out in physical
// memory. It implements gpu.Workload and gpu.GridAware.
type Bench struct {
	spec       Spec
	buffers    []placedBuffer
	footprint  uint64
	sms, warps int
	// schedule is the deterministic per-instruction buffer sequence shared
	// by every warp — real kernels execute the same code in every warp, so
	// the buffer touched by the i-th memory instruction is the same across
	// the grid. This keeps warps' streaming cursors aligned (a coherent
	// frontier), which is what the paper's streaming detector relies on.
	schedule []int
	// writeSlot[i] deterministically marks which occurrences of each
	// buffer in the schedule are writes (again uniform across warps).
	writeSlot []bool
	// frontier is the shared per-kernel pacing state; see frontierState.
	frontier       *frontierState
	frontierKernel int
}

// frontierState keeps per-SM histograms ("lanes") of registered warps'
// progress through their memory-instruction streams. The slowest step
// across lanes is frozen once per tick (syncTick) and every warp paces
// against that frozen value, so the pacing decision is identical whether
// the SMs tick sequentially or sharded across goroutines: a warp's lane
// is only ever advanced from its own SM's tick, and reads go through the
// tick-start snapshot. (The previous design advanced one shared histogram
// mid-tick, making later SMs observe earlier SMs' same-tick progress —
// an order dependence the parallel engine cannot reproduce.)
type frontierState struct {
	lanes  []frontierLane
	frozen int
	// synced flips on the first syncTick. Inside a simulation the system
	// syncs every tick, so Min always reads the frozen snapshot; warps
	// driven standalone (unit tests, corpus generators) never sync and get
	// the live minimum instead — without the fallback a lone warp would
	// pace against a permanently stale frontier and stall forever.
	synced bool
	// next caches nextMin's lane scan until the coming syncTick; nextOK
	// marks it valid.
	next   int
	nextOK bool
}

// frontierLane is one SM's progress histogram, padded so lanes written
// concurrently by different shard workers do not share cache lines.
type frontierLane struct {
	counts []int
	min    int
	warps  int
	_      [64 - 24 - 8 - 8]byte
}

func newFrontierState(steps, lanes int) *frontierState {
	f := &frontierState{lanes: make([]frontierLane, lanes)}
	for i := range f.lanes {
		f.lanes[i].counts = make([]int, steps+1)
	}
	return f
}

// register adds a warp at step 0 of the given lane (its SM).
func (f *frontierState) register(lane int) {
	f.lanes[lane].counts[0]++
	f.lanes[lane].warps++
}

// advance moves one of lane's warps from step to step+1.
func (f *frontierState) advance(lane, step int) {
	l := &f.lanes[lane]
	l.counts[step]--
	l.counts[step+1]++
	for l.min < len(l.counts)-1 && l.counts[l.min] == 0 {
		l.min++
	}
}

// syncTick freezes the cross-lane minimum for the coming tick.
func (f *frontierState) syncTick() {
	f.synced = true
	f.frozen = f.liveMin()
	f.nextOK = false
}

// nextMin returns the minimum the coming tick's Min will read: the live
// minimum, which the next syncTick freezes. Between two ticks the lanes
// do not move, so a synced frontier scans them once and serves every
// other warp's query from the cache; an unsynced one (warps driven
// standalone) scans every time.
func (f *frontierState) nextMin() int {
	if !f.synced {
		return f.liveMin()
	}
	if !f.nextOK {
		f.next = f.liveMin()
		f.nextOK = true
	}
	return f.next
}

// liveMin computes the slowest registered warp's step right now.
func (f *frontierState) liveMin() int {
	min := -1
	for i := range f.lanes {
		if f.lanes[i].warps == 0 {
			continue
		}
		if min < 0 || f.lanes[i].min < min {
			min = f.lanes[i].min
		}
	}
	if min < 0 {
		min = 0
	}
	return min
}

// Min returns the slowest registered warp's step: the frozen tick-start
// snapshot once syncTick has ever run, the live value before then.
func (f *frontierState) Min() int {
	if f.synced {
		return f.frozen
	}
	return f.liveMin()
}

// New lays out the spec's buffers (region-aligned, consecutive) and returns
// the runnable benchmark.
func New(spec Spec) (*Bench, error) {
	if spec.BenchName == "" {
		return nil, fmt.Errorf("workload: missing benchmark name")
	}
	if len(spec.Buffers) == 0 {
		return nil, fmt.Errorf("workload %s: no buffers", spec.BenchName)
	}
	if spec.KernelCount <= 0 {
		spec.KernelCount = 1
	}
	if spec.MemInstsPerWarp <= 0 {
		return nil, fmt.Errorf("workload %s: MemInstsPerWarp must be positive", spec.BenchName)
	}
	b := &Bench{spec: spec, sms: 30, warps: 24}
	next := memdef.Addr(0)
	var totalWeight float64
	for _, buf := range spec.Buffers {
		if buf.Bytes == 0 || buf.Weight <= 0 {
			return nil, fmt.Errorf("workload %s: buffer %q needs positive size and weight", spec.BenchName, buf.Name)
		}
		size := (buf.Bytes + memdef.RegionSize - 1) &^ (memdef.RegionSize - 1)
		pb := placedBuffer{Buffer: buf, base: next}
		pb.Bytes = size
		b.buffers = append(b.buffers, pb)
		next += memdef.Addr(size)
		totalWeight += buf.Weight
	}
	b.footprint = uint64(next)
	b.buildSchedule(totalWeight)
	return b, nil
}

// buildSchedule lays out a Bresenham-interleaved buffer sequence of fixed
// period and the per-occurrence write slots.
func (b *Bench) buildSchedule(totalWeight float64) {
	const period = 512
	acc := make([]float64, len(b.buffers))
	occur := make([]int, len(b.buffers))
	written := make([]float64, len(b.buffers))
	b.schedule = make([]int, period)
	b.writeSlot = make([]bool, period)
	for s := 0; s < period; s++ {
		best := 0
		for i := range b.buffers {
			acc[i] += b.buffers[i].Weight / totalWeight
			if acc[i] > acc[best] {
				best = i
			}
		}
		acc[best]--
		b.schedule[s] = best
		pb := &b.buffers[best]
		if !pb.ReadOnly && pb.WriteFrac > 0 {
			occur[best]++
			if written[best]+1 <= float64(occur[best])*pb.WriteFrac {
				b.writeSlot[s] = true
				written[best]++
			}
		}
	}
}

// MustNew is New panicking on error (benchmark definitions are static).
func MustNew(spec Spec) *Bench {
	b, err := New(spec)
	if err != nil {
		panic(err)
	}
	return b
}

// Name implements gpu.Workload.
func (b *Bench) Name() string { return b.spec.BenchName }

// Seed returns the seed every warp program's random stream derives from.
func (b *Bench) Seed() int64 { return b.spec.Seed }

// Reseed overrides the benchmark's built-in seed, rebasing every warp
// program's random stream. Call before the run starts; the run manifest
// must record the value so the run is reproducible.
func (b *Bench) Reseed(seed int64) { b.spec.Seed = seed }

// Kernels implements gpu.Workload.
func (b *Bench) Kernels() int { return b.spec.KernelCount }

// Footprint returns the total allocated bytes.
func (b *Bench) Footprint() uint64 { return b.footprint }

// Spec returns the benchmark's declaration.
func (b *Bench) Spec() Spec { return b.spec }

// SetGrid implements gpu.GridAware.
func (b *Bench) SetGrid(sms, warpsPerSM int) { b.sms, b.warps = sms, warpsPerSM }

// Setup implements gpu.Workload.
func (b *Bench) Setup(k int) gpu.KernelSetup {
	var setup gpu.KernelSetup
	for _, pb := range b.buffers {
		r := pb.rangeOf()
		if pb.HostCopied && (k == 0 || b.spec.RewriteInputs) {
			setup.CopyRanges = append(setup.CopyRanges, r)
		}
		if pb.ReadOnly {
			setup.ReadOnlyTruth = append(setup.ReadOnlyTruth, r)
		}
		setup.StreamTruths = append(setup.StreamTruths, gpu.StreamTruth{
			Range: r, Streaming: pb.Pattern.Streaming(),
		})
	}
	setup.UseResetAPI = b.spec.UseResetAPI
	return setup
}

// SyncTick implements gpu.TickSynced: the system calls it once at the top
// of every tick to freeze the pacing frontier the coming tick's warps
// read. Required for order-independence under the sharded parallel
// engine; the sequential loop calls it too so both modes share one
// pacing semantics (and stay byte-identical).
func (b *Bench) SyncTick() {
	if b.frontier != nil {
		b.frontier.syncTick()
	}
}

// NewWarp implements gpu.Workload.
func (b *Bench) NewWarp(kernel, sm, warp int) gpu.WarpProgram {
	idx := sm*b.warps + warp
	total := b.sms * b.warps
	if b.frontier == nil || b.frontierKernel != kernel {
		b.frontier = newFrontierState(b.spec.MemInstsPerWarp, b.sms)
		b.frontierKernel = kernel
	}
	b.frontier.register(sm)
	seed := b.spec.Seed*1_000_003 + int64(kernel)*131_071 + int64(idx)
	src := newCountingSource(seed)
	p := &program{
		bench:   b,
		rng:     rand.New(src),
		rngSrc:  src,
		warpIdx: idx,
		lane:    sm,
		total:   total,
		cursors: make([]memdef.Addr, len(b.buffers)),
		// Stencil is the widest generator: a full stream stride plus two
		// neighbor-row sectors.
		secBuf: make([]memdef.Addr, 0, streamStride/memdef.SectorSize+2),
	}
	for i := range p.cursors {
		p.cursors[i] = memdef.Addr(idx) * memdef.PartitionStride
	}
	return p
}

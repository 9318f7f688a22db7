package workload

import (
	"math/rand"

	"shmgpu/internal/gpu"
	"shmgpu/internal/memdef"
)

// program generates one warp's instruction stream for a Bench.
type program struct {
	bench *Bench
	rng   *rand.Rand
	// rngSrc is the counting source behind rng; the draw count is the
	// serializable RNG position (see countingSource).
	rngSrc  *countingSource
	warpIdx int
	// lane is the warp's SM index: the frontier lane it advances. Only the
	// owning SM's tick calls Next, so each lane has a single writer.
	lane    int
	total   int
	cursors []memdef.Addr // per-buffer streaming cursor (buffer-relative)
	issued  int
	// secBuf is the reusable sector scratch the generators fill. issueMem
	// consumes MemInst.Sectors before the SM calls advance() again, so one
	// buffer per program is never aliased across two live instructions.
	secBuf []memdef.Addr
}

// Next implements gpu.WarpProgram.
func (p *program) Next() (int, gpu.MemInst, bool) {
	if p.issued >= p.bench.spec.MemInstsPerWarp {
		return 0, gpu.MemInst{}, true
	}
	// Frontier pacing: stay within the window of the slowest warp (as of
	// the tick-start frontier snapshot), modeling in-order tile dispatch.
	if p.issued > p.bench.frontier.Min()+p.bench.window() {
		return 0, gpu.MemInst{Stall: true}, false
	}
	slot := p.issued % len(p.bench.schedule)
	p.issued++
	p.bench.frontier.advance(p.lane, p.issued-1)

	// Buffer choice and write position come from the shared deterministic
	// schedule: every warp runs the same kernel code, so the i-th memory
	// instruction targets the same buffer (and is a write at the same
	// program points) in every warp.
	bi := p.bench.schedule[slot]
	pb := &p.bench.buffers[bi]

	var inst gpu.MemInst
	inst.Space = pb.Space
	write := !pb.ReadOnly && p.bench.writeSlot[slot]
	inst.Write = write

	switch pb.Pattern {
	case Stream:
		inst.Sectors = p.streamSectors(bi, pb)
	case Stencil:
		inst.Sectors = p.stencilSectors(bi, pb)
	case Random:
		inst.Sectors = p.randomSectors(pb, 4)
	case Gather:
		inst.Sectors = p.gatherSectors(pb)
	}

	// Compute instructions between memory operations, with ±1 jitter to
	// decorrelate warps.
	compute := p.bench.spec.ComputePerMem
	if compute > 1 {
		compute += p.rng.Intn(3) - 1
	}
	return compute, inst, false
}

// StallsAgain implements gpu.StallPredictor: Next's pacing check against
// the frontier minimum the coming tick will freeze. Lanes only move when a
// warp issues, so the answer holds until some warp does.
func (p *program) StallsAgain() bool {
	return p.issued < p.bench.spec.MemInstsPerWarp &&
		p.issued > p.bench.frontier.nextMin()+p.bench.window()
}

// window is how many memory-instruction steps a warp may run ahead of the
// frontier.
func (b *Bench) window() int {
	if b.spec.FrontierWindow <= 0 {
		return 1
	}
	return b.spec.FrontierWindow
}

// streamStride is the bytes one streaming memory instruction covers: a full
// 256 B partition stride (two coalesced 128 B blocks). This models the
// thread coarsening real streaming kernels use (each thread handles several
// elements), which keeps each warp's sweep rate high enough for a coherent
// frontier.
const streamStride = memdef.PartitionStride

// streamSectors advances the warp's stride-cyclic cursor through the buffer
// (warp i handles strides i, i+total, ...), wrapping for multi-pass
// streams, and touches the full 256 B stride (8 coalesced sectors).
func (p *program) streamSectors(bi int, pb *placedBuffer) []memdef.Addr {
	cur := p.cursors[bi]
	if uint64(cur) >= pb.Bytes {
		// Wrap to this warp's first stride for another pass.
		cur = memdef.Addr(p.warpIdx) * streamStride
		if uint64(cur) >= pb.Bytes {
			cur = 0
		}
	}
	p.cursors[bi] = cur + memdef.Addr(p.total)*streamStride
	base := pb.base + cur
	out := p.secBuf[:0]
	for i := 0; i < streamStride/memdef.SectorSize; i++ {
		out = append(out, base+memdef.Addr(i*memdef.SectorSize)) //shm:alloc-ok fills the preallocated secBuf scratch; capacity covers the widest generator
	}
	return out
}

// stencilSectors streams like streamSectors but adds two neighbor-row
// sectors (above and below); neighbors stay inside the buffer.
func (p *program) stencilSectors(bi int, pb *placedBuffer) []memdef.Addr {
	out := p.streamSectors(bi, pb)
	const rowBytes = 4096 // logical stencil row
	base := out[0]
	rel := uint64(base - pb.base)
	if rel >= rowBytes {
		out = append(out, base-rowBytes) //shm:alloc-ok secBuf capacity covers the stream stride plus both neighbor rows
	}
	if rel+rowBytes < pb.Bytes {
		out = append(out, base+rowBytes) //shm:alloc-ok secBuf capacity covers the stream stride plus both neighbor rows
	}
	return out
}

// randomSectors returns n poorly-coalesced uniformly random sectors.
func (p *program) randomSectors(pb *placedBuffer, n int) []memdef.Addr {
	out := p.secBuf[:0]
	blocks := pb.Bytes / memdef.BlockSize
	for i := 0; i < n; i++ {
		blk := memdef.Addr(uint64(p.rng.Int63n(int64(blocks)))) * memdef.BlockSize
		sec := memdef.Addr(p.rng.Intn(memdef.SectorsPerBlock)) * memdef.SectorSize
		out = append(out, pb.base+blk+sec) //shm:alloc-ok fills the preallocated secBuf scratch; capacity covers the widest generator
	}
	return out
}

// gatherSectors models texture/constant-style lookups: a couple of random
// sectors with strong locality (80% of lookups hit the hot front eighth of
// the buffer), giving the high reuse real texture caches see.
func (p *program) gatherSectors(pb *placedBuffer) []memdef.Addr {
	out := p.secBuf[:0]
	blocks := pb.Bytes / memdef.BlockSize
	hot := blocks / 8
	if hot == 0 {
		hot = 1
	}
	for i := 0; i < 2; i++ {
		var blk uint64
		if p.rng.Float64() < 0.8 {
			blk = uint64(p.rng.Int63n(int64(hot)))
		} else {
			blk = uint64(p.rng.Int63n(int64(blocks)))
		}
		sec := memdef.Addr(p.rng.Intn(memdef.SectorsPerBlock)) * memdef.SectorSize
		out = append(out, pb.base+memdef.Addr(blk*memdef.BlockSize)+sec) //shm:alloc-ok fills the preallocated secBuf scratch; capacity covers the widest generator
	}
	return out
}

package workload

import (
	"fmt"
	"hash/fnv"

	"shmgpu/internal/snapshot"
)

// Checkpoint/restore for benchmarks and their warp programs. Restore
// protocol (driven by gpu.System): the target Bench is freshly built from
// the same spec; System calls NewWarp for every warp in deterministic
// order and immediately loads each program's state, then loads the Bench
// state last — which overwrites the frontier that those NewWarp calls
// populated with the captured one. Cold path only.

// maxDrawsPerInst bounds the RNG draws a restored warp may claim per
// issued instruction, so a corrupt draw count fails instead of replaying
// the generator for ever. The widest generator draws 9 values per
// instruction; Int63n's rejection loop redraws with probability below
// n/2^63, so no saved run comes near the bound.
const maxDrawsPerInst = 64

// specFingerprint hashes the full spec (including the seed and every
// buffer) plus the grid, so a snapshot can only be restored into a
// benchmark that generates the identical instruction streams.
func (b *Bench) specFingerprint() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v|grid=%dx%d", b.spec, b.sms, b.warps)
	return h.Sum64()
}

// State implements gpu.StatefulWorkload: the spec fingerprint plus the
// mutable pacing state (everything else in Bench is immutable layout
// derived from the spec).
func (b *Bench) State(c *snapshot.Codec) {
	want := b.specFingerprint()
	fp := want
	c.U64(&fp)
	if fp != want {
		c.Failf("workload %s: snapshot was taken with a different spec/seed/grid (fingerprint %#x, this benchmark %#x)",
			b.spec.BenchName, fp, want)
		return
	}
	c.Int(&b.frontierKernel)
	has := b.frontier != nil
	c.Bool(&has)
	if c.Loading() {
		b.frontier = nil
		if has && c.Err() == nil {
			b.frontier = newFrontierState(b.spec.MemInstsPerWarp, b.sms)
		}
	}
	if b.frontier == nil {
		return
	}
	f := b.frontier
	if !c.Count(len(f.lanes), "workload "+b.spec.BenchName+": frontier lanes") {
		return
	}
	for i := range f.lanes {
		l := &f.lanes[i]
		if !c.Count(len(l.counts), "workload "+b.spec.BenchName+": frontier steps") {
			return
		}
		for j := range l.counts {
			c.Int(&l.counts[j])
		}
		c.Int(&l.min)
		c.Int(&l.warps)
		if c.Loading() && (l.min < 0 || l.min >= len(l.counts)) {
			c.Failf("workload %s: frontier lane %d min %d out of range", b.spec.BenchName, i, l.min)
			return
		}
	}
	c.Int(&f.frozen)
	c.Bool(&f.synced)
}

// State implements gpu.StatefulWarpProgram: the issue position, the
// per-buffer cursors, and the RNG draw count. secBuf is scratch (only
// valid between a generator call and the SM consuming the sectors, never
// at a cycle boundary) and bench/warpIdx/lane/total are rebuilt by
// NewWarp. Loading needs a program freshly created by NewWarp: it
// overwrites the cursors and fast-forwards the deterministic RNG to the
// captured draw count.
func (p *program) State(c *snapshot.Codec) {
	c.Int(&p.issued)
	if !c.Count(len(p.cursors), fmt.Sprintf("workload: warp %d cursors", p.warpIdx)) {
		return
	}
	for i := range p.cursors {
		c.U64((*uint64)(&p.cursors[i]))
	}
	draws := p.rngSrc.n
	c.U64(&draws)
	if !c.Loading() || c.Err() != nil {
		return
	}
	switch {
	case p.issued < 0 || p.issued > p.bench.spec.MemInstsPerWarp:
		c.Failf("workload: warp %d issued %d of %d instructions", p.warpIdx, p.issued, p.bench.spec.MemInstsPerWarp)
	case p.rngSrc.n > draws:
		c.Failf("workload: warp %d RNG already at draw %d, snapshot wants %d (program not fresh)",
			p.warpIdx, p.rngSrc.n, draws)
	case draws-p.rngSrc.n > uint64(p.issued+1)*maxDrawsPerInst:
		c.Failf("workload: warp %d RNG at draw %d after %d instructions", p.warpIdx, draws, p.issued)
	default:
		p.rngSrc.skipTo(draws)
	}
}

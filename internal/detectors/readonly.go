// Package detectors implements the paper's two lightweight hardware
// detectors (§IV-B, §IV-C): the read-only region predictor and the
// streaming-chunk predictor with its memory access trackers (MATs), plus
// the accuracy-accounting machinery used to reproduce the prediction
// breakdowns of Figs. 10 and 11 and the Table IX hardware-overhead math.
//
// Both predictors are tagless bit vectors indexed by (local address /
// granularity) mod entries, so aliasing is possible; the design guarantees
// aliasing only costs performance, never security: read-only entries only
// transition RO→not-RO during a kernel, and a mispredicted streaming chunk
// falls back to re-fetches per Tables III/IV.
package detectors

import (
	"fmt"

	"shmgpu/internal/memdef"
)

// ReadOnlyConfig configures one partition's read-only predictor.
type ReadOnlyConfig struct {
	// Entries is the bit-vector length (paper: 1024).
	Entries int
	// RegionBytes is the detection granularity (paper: 16 KB).
	RegionBytes uint64
}

// maxEntries bounds either predictor's bit-vector length, which its
// constructor allocates up front: 32× the paper's 2048 streaming entries.
const maxEntries = 1 << 16

// DefaultReadOnlyConfig is the paper's configuration.
func DefaultReadOnlyConfig() ReadOnlyConfig {
	return ReadOnlyConfig{Entries: 1024, RegionBytes: memdef.RegionSize}
}

// Validate reports a configuration NewReadOnlyPredictor cannot build.
func (c ReadOnlyConfig) Validate() error {
	if c.Entries <= 0 || c.Entries > maxEntries || c.RegionBytes == 0 {
		return fmt.Errorf("detectors: bad read-only config %+v: Entries must be in [1, %d] and RegionBytes positive", c, maxEntries)
	}
	return nil
}

// ReadOnlyPredictor is the per-partition read-only region detector: an
// N-entry bit vector indexed by region ID over local addresses. Bit set
// means "predicted read-only" (use the shared counter, skip the BMT).
type ReadOnlyPredictor struct {
	cfg  ReadOnlyConfig
	bits []bool
	// everMarked records whether an entry was ever set by the command
	// processor; clearedBy records which region last cleared an entry.
	// Both exist purely for misprediction attribution (Fig. 10).
	everMarked []bool
	clearedBy  []uint64
	hasClear   []bool
}

// NewReadOnlyPredictor builds a predictor; all entries start 0
// (not-read-only by default, per the paper).
func NewReadOnlyPredictor(cfg ReadOnlyConfig) *ReadOnlyPredictor {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &ReadOnlyPredictor{
		cfg:        cfg,
		bits:       make([]bool, cfg.Entries),
		everMarked: make([]bool, cfg.Entries),
		clearedBy:  make([]uint64, cfg.Entries),
		hasClear:   make([]bool, cfg.Entries),
	}
}

// Config returns the predictor configuration.
func (p *ReadOnlyPredictor) Config() ReadOnlyConfig { return p.cfg }

// regionOf returns the region ID of a local address.
func (p *ReadOnlyPredictor) regionOf(local memdef.Addr) uint64 {
	return uint64(local) / p.cfg.RegionBytes
}

func (p *ReadOnlyPredictor) index(region uint64) int {
	return int(region % uint64(len(p.bits)))
}

// Predict reports whether the region containing local is predicted
// read-only.
func (p *ReadOnlyPredictor) Predict(local memdef.Addr) bool {
	return p.bits[p.index(p.regionOf(local))]
}

// MarkInput marks the region containing local as read-only. The command
// processor calls this for every region populated by a host→device memory
// copy during context initialization.
func (p *ReadOnlyPredictor) MarkInput(local memdef.Addr) {
	i := p.index(p.regionOf(local))
	p.bits[i] = true
	p.everMarked[i] = true
}

// MarkInputRange marks every region overlapping [lo, hi).
func (p *ReadOnlyPredictor) MarkInputRange(lo, hi memdef.Addr) {
	if hi <= lo {
		return
	}
	for r := p.regionOf(lo); r <= p.regionOf(hi-1); r++ {
		i := p.index(r)
		p.bits[i] = true
		p.everMarked[i] = true
	}
}

// OnWrite records a store/write-back to local. If the region was predicted
// read-only the bit is cleared and OnWrite returns true: the caller must
// propagate the shared counter into per-block counters for this region
// (paper Fig. 8). The transition is one-way during kernel execution.
func (p *ReadOnlyPredictor) OnWrite(local memdef.Addr) (transition bool) {
	region := p.regionOf(local)
	i := p.index(region)
	if !p.bits[i] {
		return false
	}
	p.bits[i] = false
	p.clearedBy[i] = region
	p.hasClear[i] = true
	return true
}

// Reset implements the InputReadOnlyReset(addressRange) API (§IV-B): the
// regions in [lo, hi) are re-marked read-only. The accompanying shared
// counter adjustment (scan for max major counter) is the secure-memory
// engine's job; this just restores predictor state.
func (p *ReadOnlyPredictor) Reset(lo, hi memdef.Addr) {
	if hi <= lo {
		return
	}
	for r := p.regionOf(lo); r <= p.regionOf(hi-1); r++ {
		i := p.index(r)
		p.bits[i] = true
		p.everMarked[i] = true
		p.hasClear[i] = false
	}
}

// Attribution explains a misprediction for the Fig. 10/11 breakdowns.
type Attribution uint8

const (
	// AttrInit: the predictor entry was still in (or shaped by) its
	// initialization state.
	AttrInit Attribution = iota
	// AttrAliasing: a different region/chunk sharing the entry trained it.
	AttrAliasing
	// AttrRuntime: the entry was trained by this same region/chunk, so the
	// mismatch reflects a genuine runtime pattern change.
	AttrRuntime
)

// Attribute classifies why a misprediction for local would have happened,
// given current predictor state. Called by the accuracy harness at
// prediction time; the final correct/mispredict decision happens later when
// ground truth is known.
func (p *ReadOnlyPredictor) Attribute(local memdef.Addr) Attribution {
	region := p.regionOf(local)
	i := p.index(region)
	if p.hasClear[i] && p.clearedBy[i] != region {
		return AttrAliasing
	}
	return AttrInit
}

// CountMarked returns how many entries are currently set (for tests).
func (p *ReadOnlyPredictor) CountMarked() int {
	n := 0
	for _, b := range p.bits {
		if b {
			n++
		}
	}
	return n
}

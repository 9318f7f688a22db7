package experiments

import (
	"fmt"

	"shmgpu/internal/gpu"
	"shmgpu/internal/invariant"
	"shmgpu/internal/scheme"
)

// Equivalence is one byte-neutral execution knob: flipping it must leave
// everything a run exports byte-identical. Check derives the variant and
// reference sides from base (which must set Telemetry), runs them through
// h and reports every divergence; a run that failed is h.Err.
type Equivalence struct {
	Name  string
	Check func(h *Harness, base RunSpec) []Divergence
}

// Divergence is one failed byte comparison. Oracle is the row's name, or
// "invariant" for a violation the sanitizer reported.
type Divergence struct{ Oracle, Detail string }

func (d Divergence) String() string { return "[" + d.Oracle + "] " + d.Detail }

// Equivalences is the one table of byte-compare properties, in the order
// the fuzz battery checks it. The root corpora check its rows on named
// cells.
var Equivalences = []Equivalence{
	FastForwardEquivalence, Determinism, SanitizerTransparency,
	MigrationEquivalence, PrefetchEquivalence, DetectorAblation,
}

var modeName = map[bool]string{true: "fast-forward", false: "every-cycle"}

// FastForwardEquivalence: event-horizon cycle skipping against
// every-cycle ticking (Config.DisableFastForward).
var FastForwardEquivalence = Equivalence{"ff-equivalence", func(h *Harness, base RunSpec) []Divergence {
	return h.compare("ff-equivalence", modeName[true], base.withFastForward(true), modeName[false], base.withFastForward(false))
}}

// Determinism: the same spec executed again, fresh.
var Determinism = Equivalence{"determinism", func(h *Harness, base RunSpec) []Divergence {
	return DiffArtifacts("determinism", "first-run", h.Run(base).Artifacts, "second-run", h.fresh(base).Artifacts)
}}

// SanitizerTransparency: the same spec with the runtime invariant
// sanitizer armed. Arming it must change nothing, and every violation it
// reports is a divergence too.
var SanitizerTransparency = Equivalence{"sanitizer-transparency", func(h *Harness, base RunSpec) []Divergence {
	unchecked := h.Run(base)
	var ivs []invariant.Violation
	restore := invariant.CollectInto(&ivs)
	sanitized := h.fresh(base)
	restore()
	var ds []Divergence
	for _, iv := range ivs {
		ds = append(ds, Divergence{"invariant", iv.Error()})
	}
	return append(ds, DiffArtifacts("sanitizer-transparency", "unchecked", unchecked.Artifacts, "sanitized", sanitized.Artifacts)...)
}}

// MigrationEquivalence: a host tier whose frame budget covers the whole
// working set (ratio ≥ 1.0) prepopulates everything, never faults, and
// must be invisible against the tier disabled outright. A base already
// at fit keeps its own ratio.
var MigrationEquivalence = Equivalence{"migration-equivalence", func(h *Harness, base RunSpec) []Divergence {
	on := base
	if !on.Config.HostTier || on.Config.OversubRatio < 1 {
		on.Config.HostTier, on.Config.OversubRatio = true, 1
	}
	return h.compare("migration-equivalence", "host-tier(ratio>=1.0)", on, "host-tier-off", base.tierOff())
}}

// PrefetchEquivalence: at ratio 1.0 no access faults, so no fault stream
// forms and each migration-ahead policy in turn must be idle, at whatever
// page size the base carries.
var PrefetchEquivalence = Equivalence{"prefetch-equivalence", func(h *Harness, base RunSpec) []Divergence {
	var ds []Divergence
	for _, policy := range []string{"stride", "stream"} {
		on := base
		on.Config.HostTier, on.Config.OversubRatio, on.Config.UVMPrefetch = true, 1, policy
		ds = append(ds, h.compare("prefetch-equivalence", "prefetch="+policy+"(ratio>=1.0)", on, "host-tier-off", base.tierOff())...)
	}
	return ds
}}

// DetectorAblation: the base design with both adaptive mechanisms off
// (the read-only counter predictor and dual-granularity MACs), run under
// PSSM's label, against PSSM. The two flags are SHM's entire delta over
// PSSM (Fig. 13), so on an SHM base any residue is state leaking between
// mechanisms or across runs. The ablated side always runs fresh: its
// options are PSSM's, and a reused run would compare PSSM with itself.
var DetectorAblation = Equivalence{"detector-ablation", func(h *Harness, base RunSpec) []Divergence {
	ablated, pssm := base, base
	ablated.Scheme.Name = scheme.PSSM.Name
	ablated.Scheme.Options.ReadOnlyOpt, ablated.Scheme.Options.DualGranMAC = false, false
	pssm.Scheme = scheme.PSSM
	return DiffArtifacts("detector-ablation", base.Scheme.Name+"-detectors-off", h.fresh(ablated).Artifacts,
		scheme.PSSM.Name, h.Run(pssm).Artifacts)
}}

func (spec RunSpec) withFastForward(on bool) RunSpec {
	spec.Config.DisableFastForward = !on
	return spec
}

// tierOff is the rows' tier-off side: a tier-off base itself (so the
// harness reuses its run), otherwise the base with the host tier disabled
// and all its knobs cleared.
func (spec RunSpec) tierOff() RunSpec {
	if !spec.Config.HostTier {
		return spec
	}
	c := &spec.Config
	c.HostTier, c.OversubRatio, c.UVMPageBytes, c.UVMPrefetch = false, 0, 0, ""
	return spec
}

// Rendered is one executed and rendered run.
type Rendered struct {
	Result gpu.Result
	Artifacts
}

// Harness executes and renders the runs the rows compare, each distinct
// spec once: rows checked on one cell share its base runs (the
// fast-forward row's run in the base's own mode is the determinism row's
// first run, a tier-off base is the migration row's tier-off side).
// Errors are sticky: after the first the harness runs nothing, so callers
// check Err after a row.
type Harness struct {
	tool string
	runs map[string]Rendered
	err  error
	// Executed counts the simulations run.
	Executed int
}

// NewHarness returns an empty harness whose renders stamp tool into the
// JSONL manifest.
func NewHarness(tool string) *Harness {
	return &Harness{tool: tool, runs: make(map[string]Rendered)}
}

// Err returns the first error a run met.
func (h *Harness) Err() error { return h.err }

// Run returns spec's rendered run, executing it the first time the
// harness sees spec.
func (h *Harness) Run(spec RunSpec) Rendered {
	key := spec.key()
	if _, ok := h.runs[key]; !ok {
		h.runs[key] = h.fresh(spec)
	}
	return h.runs[key]
}

// fresh executes and renders spec without reuse.
func (h *Harness) fresh(spec RunSpec) Rendered {
	if h.err != nil {
		return Rendered{}
	}
	h.Executed++
	out, err := Execute(spec)
	if err != nil {
		h.err = err
		return Rendered{}
	}
	arts, err := Render(h.tool, spec, out)
	h.err = err
	return Rendered{Result: out.Result, Artifacts: arts}
}

// compare runs both sides and byte-compares them under oracle's name.
func (h *Harness) compare(oracle, aName string, a RunSpec, bName string, b RunSpec) []Divergence {
	return DiffArtifacts(oracle, aName, h.Run(a).Artifacts, bName, h.Run(b).Artifacts)
}

// key identifies spec's run by value. The generated workload and the
// telemetry configuration are compared by content; Observe is passive and
// left out.
func (spec RunSpec) key() string {
	gen, tel := spec.Generated, spec.Telemetry
	spec.Generated, spec.Telemetry, spec.Observe = nil, nil, nil
	return fmt.Sprintf("%+v|%+v|%+v", spec, gen, tel)
}

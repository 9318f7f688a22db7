package fuzz

import (
	"encoding/json"
	"maps"
	"slices"

	"shmgpu/internal/memdef"
	"shmgpu/internal/workload"
)

// FailurePredicate reports whether a candidate cell still exhibits the
// failure being minimized. Predicates must be pure functions of the cell
// (the simulator is deterministic, so re-running the oracle battery is).
type FailurePredicate func(Case) bool

// OracleFails builds the canonical predicate: the cell is still "failing"
// when the oracle battery, run with opts, reports at least one violation
// of one of the given oracle names (any violation when no names are
// given). Invalid candidate cells count as not failing, so the shrinker
// never escapes the valid-case space.
func OracleFails(opts CheckOptions, oracles ...string) FailurePredicate {
	want := make(map[string]bool, len(oracles))
	for _, o := range oracles {
		want[o] = true
	}
	return func(c Case) bool {
		vs, err := CheckCaseOpts(c, opts)
		if err != nil {
			return false
		}
		for _, v := range vs {
			if len(want) == 0 || want[v.Oracle] {
				return true
			}
		}
		return false
	}
}

// cost orders cells for shrinking: fewer simulation runs first, then
// shorter canonical JSON. The shrinker only accepts strictly
// cost-decreasing candidates, which guarantees termination.
func cost(c Case) (runs, jsonLen int) {
	runs = len(c.SchemeNames())
	data, err := json.Marshal(c)
	if err != nil {
		return runs, 1 << 30
	}
	return runs, len(data)
}

func costLess(a, b Case) bool {
	ar, aj := cost(a)
	br, bj := cost(b)
	if ar != br {
		return ar < br
	}
	return aj < bj
}

// candidates enumerates one pass of reduction attempts in a fixed order:
// structural deletions first (schemes, buffers), then workload field
// resets toward the tiny-base defaults and numeric halvings, then config
// delta keys, then seed and name. Order matters for determinism, not
// correctness — every accepted step strictly shrinks.
func candidates(c Case) []Case {
	var out []Case

	// Drop schemes: try each single scheme alone, then each removal.
	names := c.SchemeNames()
	if len(names) > 1 {
		for _, keep := range names {
			n := c
			n.Schemes = []string{keep}
			out = append(out, n)
		}
		for i := range names {
			n := c
			n.Schemes = append(append([]string(nil), names[:i]...), names[i+1:]...)
			out = append(out, n)
		}
	}

	// Drop buffers.
	if len(c.Workload.Buffers) > 1 {
		for i := range c.Workload.Buffers {
			n := c
			n.Workload.Buffers = slices.Delete(slices.Clone(c.Workload.Buffers), i, i+1)
			out = append(out, n)
		}
	}

	// Simplify buffers field by field.
	for i, b := range c.Workload.Buffers {
		try := func(mut func(*workload.Buffer)) {
			n := c
			n.Workload.Buffers = slices.Clone(c.Workload.Buffers)
			mut(&n.Workload.Buffers[i])
			out = append(out, n)
		}
		if b.Bytes != 0 {
			try(func(b *workload.Buffer) { b.Bytes = 0 })
			if b.Bytes > 32<<10 { // a half stays above the 16 KB default
				try(func(b *workload.Buffer) { b.Bytes /= 2 })
			}
		}
		if b.Pattern != workload.Stream {
			try(func(b *workload.Buffer) { b.Pattern = workload.Stream })
		}
		if b.Space != memdef.SpaceGlobal {
			try(func(b *workload.Buffer) { b.Space = memdef.SpaceGlobal })
		}
		if b.ReadOnly {
			try(func(b *workload.Buffer) { b.ReadOnly = false })
		}
		if b.WriteFrac != 0 {
			try(func(b *workload.Buffer) { b.WriteFrac = 0 })
		}
		if b.Weight != 0 {
			try(func(b *workload.Buffer) { b.Weight = 0 })
		}
		if b.HostCopied {
			try(func(b *workload.Buffer) { b.HostCopied = false })
		}
		if b.Name != "" {
			try(func(b *workload.Buffer) { b.Name = "" })
		}
	}

	// Workload scalars.
	w := c.Workload
	tryW := func(mut func(*workload.Spec)) {
		n := c
		mut(&n.Workload)
		out = append(out, n)
	}
	for _, f := range []struct {
		val int
		mut func(*workload.Spec, int)
	}{
		{w.KernelCount, func(w *workload.Spec, v int) { w.KernelCount = v }},
		{w.MemInstsPerWarp, func(w *workload.Spec, v int) { w.MemInstsPerWarp = v }},
		{w.ComputePerMem, func(w *workload.Spec, v int) { w.ComputePerMem = v }},
		{w.FrontierWindow, func(w *workload.Spec, v int) { w.FrontierWindow = v }},
	} {
		f := f
		if f.val != 0 {
			tryW(func(w *workload.Spec) { f.mut(w, 0) })
			if f.val > 2 {
				tryW(func(w *workload.Spec) { f.mut(w, f.val/2) })
			}
		}
	}
	if w.RewriteInputs {
		tryW(func(w *workload.Spec) { w.RewriteInputs = false; w.UseResetAPI = false })
	}
	if w.UseResetAPI {
		tryW(func(w *workload.Spec) { w.UseResetAPI = false })
	}

	// Config: drop one delta key, reverting its field to the tiny base.
	for _, path := range c.Config.paths() {
		n := c
		n.Config = maps.Clone(c.Config)
		delete(n.Config, path)
		out = append(out, n)
	}

	// Seed and name cosmetics last: a failure that survives a seed swap
	// is a much stronger repro, but behaviour is seed-dependent, so this
	// must not preempt structural reduction.
	if w.Seed > 3 {
		tryW(func(w *workload.Spec) { w.Seed = 1 + w.Seed%3 })
	}
	if w.BenchName != "" {
		tryW(func(w *workload.Spec) { w.BenchName = "" })
	}
	return out
}

// Shrink greedily reduces a failing cell to a minimal one: in each pass
// it tries the reduction candidates in a fixed order and accepts the
// first strictly cost-smaller candidate that still fails, restarting
// until a full pass makes no progress or the attempt budget is spent.
// The procedure is deterministic: the same cell and predicate always
// produce the same minimal repro. attempts counts predicate evaluations
// (each one runs the full oracle battery); budget ≤ 0 means the default
// of 300.
func Shrink(c Case, pred FailurePredicate, budget int) (Case, int) {
	if budget <= 0 {
		budget = 300
	}
	attempts := 0
	for {
		progressed := false
		for _, cand := range candidates(c) {
			if attempts >= budget {
				return c, attempts
			}
			if !costLess(cand, c) {
				continue
			}
			attempts++
			if pred(cand) {
				c = cand
				progressed = true
				break
			}
		}
		if !progressed {
			return c, attempts
		}
	}
}

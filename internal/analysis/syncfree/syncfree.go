// Package syncfree flags synchronization operations on the simulator's
// per-cycle hot path. The deterministic core is single-threaded by
// construction — parallelism lives at the cell level, one whole run per
// worker — so a mutex, atomic, or channel operation reachable from the
// tick loop is either dead weight (cost per cycle with nothing to
// protect) or, worse, evidence of hidden cross-thread sharing that the
// determinism argument does not cover.
//
// The walk shares hotalloc's machinery: flow summaries with CFG pruning,
// a whole-tree call graph from //shm:tick-root entry points, interface
// resolution by method name, and func-value flows.
// Flagged operations are mutex/atomic/Cond/WaitGroup/Once calls (anything
// in sync and sync/atomic), channel sends, receives, closes, ranges and
// selects, goroutine spawns, and time.Sleep.
//
// A vetted exception carries `//shm:sync-ok <why>` so the waiver is the
// documentation, and anything else that shows up is a finding. The tree
// currently needs none: the ops heartbeat, the one synchronizing call in
// the tick, sits on an interval-throttled //shm:cold path. Panic-only blocks,
// invariant.Enabled() branches, and //shm:cold paths are pruned exactly
// as in hotalloc — but note //shm:cold does not waive correctness checks,
// only cost accounting; syncfree findings on cold paths are still
// reported via the cold function's own roots if it has any.
//
// Like hotalloc, findings come from the Finish hook, over every package's
// summary.
package syncfree

import (
	"shmgpu/internal/analysis"
	"shmgpu/internal/analysis/flow"
)

// Analyzer is the syncfree check.
var Analyzer = &analysis.Analyzer{
	Name: "syncfree",
	Doc: "flag mutex/atomic/channel operations reachable from the per-cycle " +
		"tick entry points; the simulation core is single-threaded",
	Run:    run,
	Finish: finish,
}

func run(pass *analysis.Pass) (any, error) {
	return flow.Collect(pass), nil
}

func finish(f *analysis.Finishing) {
	g := flow.BuildGraph(f.Results)
	roots := g.Roots(func(fn *flow.Func) bool { return fn.TickRoot })
	if len(roots) == 0 {
		return // hotalloc owns the missing-root integrity diagnostic
	}
	reach := g.Reach(roots)
	for _, key := range reach.Order {
		fn := g.Funcs[key]
		for _, site := range fn.Syncs {
			if site.Pruned || site.Waived {
				continue
			}
			f.Reportf(site.Pos,
				"hot-path synchronization: %s (path: %s); the simulation core is "+
					"single-threaded — annotate //shm:sync-ok with a justification for vetted sites",
				site.What, g.Witness(reach, key))
		}
	}
}

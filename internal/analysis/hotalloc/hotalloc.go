// Package hotalloc flags heap allocations on the simulator's per-cycle
// hot path. The tick loop executes millions of times per run; a single
// append that grows, a closure that captures, or a value boxed into an
// interface argument inside it turns into GC pressure that distorts the
// very timing the simulator measures. The discipline this analyzer
// enforces is the one the engine documents: steady-state ticks run
// allocation-free, with growth amortized behind explicit cold paths.
//
// The analysis is flow-sensitive and interprocedural: the flow package
// builds per-function summaries with CFG-based pruning, then a whole-tree
// call graph is walked from the per-cycle drivers annotated
// //shm:tick-root. Interface calls resolve to every concrete method with
// the same name, and calls through func-typed fields and parameters
// follow the recorded value flows, so the crossbar accept/respond hooks
// stay on the graph.
//
// Not every allocation on the path is a bug. Three pruning rules remove
// paths that are not steady-state cost: CFG blocks from which every path
// panics (failure messages may allocate), branches gated on
// invariant.Enabled() (the runtime sanitizer is debug tooling), and
// statements or whole functions marked //shm:cold (amortized growth,
// capture-mode telemetry). Individual vetted sites carry
// `//shm:alloc-ok <why>` on the flagged line.
//
// hotalloc needs the whole tree: findings are reported from the Finish
// hook, so they appear in standalone `shmlint ./...` runs and not under
// `go vet -vettool` (which invokes the driver per package).
package hotalloc

import (
	"shmgpu/internal/analysis"
	"shmgpu/internal/analysis/flow"
)

// Analyzer is the hotalloc check.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc: "flag heap allocations reachable from the per-cycle tick entry " +
		"points (//shm:tick-root)",
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
		// Integrity guard: a tree with no roots silently checks nothing,
		// which is indistinguishable from a clean run. Make it loud.
		f.Reportf(0, "no //shm:tick-root annotations found in the tree; "+
			"hotalloc has nothing to anchor on — annotate the per-cycle "+
			"entry points (the tick loop)")
		return
	}
	reach := g.Reach(roots)
	for _, key := range reach.Order {
		fn := g.Funcs[key]
		for _, site := range fn.Allocs {
			if site.Pruned || site.Waived {
				continue
			}
			f.Reportf(site.Pos,
				"hot-path allocation: %s (path: %s); steady-state ticks must not allocate — "+
					"move the site behind a //shm:cold path or annotate //shm:alloc-ok with a justification",
				site.What, g.Witness(reach, key))
		}
	}
}

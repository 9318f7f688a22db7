// Package nodeterminism forbids nondeterminism sources inside the
// simulator's cycle-accurate core. A timing simulator must produce
// bit-identical results for identical (workload, scheme, seed) inputs; the
// easiest way to lose that property is an innocent-looking call to
// time.Now, a read of the global math/rand source, iteration over a map
// whose order leaks into model state, or a goroutine racing the tick loop.
//
// The check applies only to the restricted core packages (see Restricted);
// harness, CLI, and reporting code may use wall-clock time freely. A line
// may opt out with `//shmlint:allow maprange` (etc.) when the construct is
// provably order-insensitive — the annotation doubles as the written
// justification.
//
// Goroutines have their own, stricter annotation: `//shm:parallel-ok` on the
// spawning line marks a vetted fork/join worker (the fixed pool behind the
// sweep prefetcher) whose batches join before model state is read, so
// goroutine scheduling cannot leak into results. Ad-hoc `go` statements in
// the core stay flagged; the distinct spelling keeps goroutine waivers
// greppable separately from ordinary lint allows. It is the one `//shm:`
// marker any analyzer reads, so every other marker, and a parallel-ok that
// is not on such a go statement, is reported as a marker nothing reads.
//
// A second rule keeps the cycle loop single-threaded: a package the loop
// runs (see CycleLoop) may not import sync or sync/atomic, start a
// goroutine, or operate on a channel. It has no waiver. One run is one
// goroutine; parallelism lives at the cell level, one whole run per
// worker, so a lock, an atomic or a channel in the loop is either cost per
// cycle with nothing to protect or sharing the determinism argument does
// not cover.
package nodeterminism

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"shmgpu/internal/analysis"
)

// Analyzer is the nodeterminism check.
var Analyzer = &analysis.Analyzer{
	Name: "nodeterminism",
	Doc: "forbid wall-clock time, global randomness, map-order dependence, " +
		"and goroutines in the cycle-accurate simulator core, synchronization " +
		"in the packages the cycle loop runs, and //shm: markers nothing reads",
	Run: run,
}

// Restricted lists the import-path segments that mark a package as part of
// the deterministic core.
var Restricted = []string{
	"internal/gpu",
	"internal/dram",
	"internal/cache",
	"internal/secmem",
	"internal/bmt",
	"internal/detectors",
	"internal/pool",
}

// CycleLoop lists the import-path segments of the packages the cycle loop
// runs, which the synchronization rule covers. It is its own list: the
// loop runs packages (flatmap, telemetry) that are not in Restricted, and
// internal/pool is in Restricted but never runs in the loop.
var CycleLoop = []string{
	"internal/gpu",
	"internal/secmem",
	"internal/dram",
	"internal/cache",
	"internal/hostmem",
	"internal/detectors",
	"internal/flatmap",
	"internal/ringbuf",
	"internal/workload",
	"internal/metadata",
	"internal/stats",
	"internal/memdef",
	"internal/bmt",
	"internal/invariant",
	"internal/telemetry",
}

// inList reports whether pkgPath falls under one of the path segments.
func inList(pkgPath string, segs []string) bool {
	for _, seg := range segs {
		if pkgPath == seg ||
			strings.HasSuffix(pkgPath, "/"+seg) ||
			strings.Contains(pkgPath, "/"+seg+"/") ||
			strings.HasPrefix(pkgPath, seg+"/") {
			return true
		}
	}
	return false
}

// globalRandAllowed are math/rand package-level functions that construct
// explicitly seeded state rather than touching the global source.
var globalRandAllowed = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
}

func run(pass *analysis.Pass) error {
	path := pass.Pkg.Path()
	restricted, loop := inList(path, Restricted), inList(path, CycleLoop)
	// waived holds the lines of the go statements a parallel-ok marker
	// waives: the only place a marker is read.
	waived := map[token.Position]bool{}
	if loop {
		checkImports(pass)
	}
	if restricted || loop {
		pass.Inspect(func(n ast.Node) bool {
			if n != nil {
				inspect(pass, n, restricted, loop, waived)
			}
			return true
		})
	}
	for _, m := range pass.Waivers().Markers() {
		if m.Name != "parallel-ok" || !waived[lineOf(pass, m.Pos)] {
			pass.Reportf(m.Pos, "//shm:%s marker is read by no analyzer; keep its reason as a plain comment "+
				"(only //shm:parallel-ok on a go statement in a restricted core package is read)", m.Name)
		}
	}
	return nil
}

// checkImports reports sync and sync/atomic imports in a cycle-loop package.
func checkImports(pass *analysis.Pass) {
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			if p, err := strconv.Unquote(imp.Path.Value); err == nil && (p == "sync" || p == "sync/atomic") {
				pass.Reportf(imp.Pos(), "import of %s in cycle-loop package %s: the cycle loop is single-threaded",
					p, pass.Pkg.Path())
			}
		}
	}
}

// lineOf is the file and line of pos.
func lineOf(pass *analysis.Pass, pos token.Pos) token.Position {
	p := pass.Fset.Position(pos)
	return token.Position{Filename: p.Filename, Line: p.Line}
}

func inspect(pass *analysis.Pass, n ast.Node, restricted, loop bool, waived map[token.Position]bool) {
	switch node := n.(type) {
	case *ast.GoStmt:
		switch {
		case loop:
			pass.Reportf(node.Pos(), "goroutine spawned in cycle-loop package %s: the cycle loop is single-threaded",
				pass.Pkg.Path())
		case pass.Waivers().Line("parallel-ok", node.Pos()):
			// The fork/join-worker waiver, parsed by the shared waiver
			// sheet; it must sit on the same line as the go statement.
			waived[lineOf(pass, node.Pos())] = true
		default:
			pass.Reportf(node.Pos(),
				"goroutine spawned in deterministic core package %s; the simulator is single-threaded per run "+
					"(a vetted fork/join pool worker may be waived with //shm:parallel-ok on the spawning line)",
				pass.Pkg.Path())
		}
	case *ast.SendStmt:
		if loop {
			reportChan(pass, node.Pos(), "send")
		}
	case *ast.UnaryExpr:
		if loop && node.Op == token.ARROW {
			reportChan(pass, node.Pos(), "receive")
		}
	case *ast.SelectStmt:
		if loop {
			reportChan(pass, node.Pos(), "select")
		}
	case *ast.RangeStmt:
		t := pass.TypesInfo.TypeOf(node.X)
		if t == nil {
			return
		}
		switch t.Underlying().(type) {
		case *types.Map:
			if restricted && !pass.Allowed("maprange", node.Pos()) {
				pass.Reportf(node.Pos(),
					"range over map in deterministic core: iteration order is random; "+
						"sort the keys or annotate with //shmlint:allow maprange if order-insensitive")
			}
		case *types.Chan:
			if loop {
				reportChan(pass, node.Pos(), "range")
			}
		}
	case *ast.CallExpr:
		if loop && isBuiltin(pass, node.Fun, "close") {
			reportChan(pass, node.Pos(), "close")
		}
		if restricted {
			checkCall(pass, node)
		}
	}
}

func reportChan(pass *analysis.Pass, pos token.Pos, op string) {
	pass.Reportf(pos, "channel %s in cycle-loop package %s: the cycle loop is single-threaded", op, pass.Pkg.Path())
}

// isBuiltin reports whether fun names the predeclared function name.
func isBuiltin(pass *analysis.Pass, fun ast.Expr, name string) bool {
	id, ok := ast.Unparen(fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	// Methods (e.g. (*rand.Rand).Intn on an explicitly seeded source) are
	// fine; only package-level functions are screened.
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Now" || fn.Name() == "Since" || fn.Name() == "Until" {
			pass.Reportf(call.Pos(),
				"call to time.%s in deterministic core: model time must come from the cycle argument",
				fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !globalRandAllowed[fn.Name()] {
			pass.Reportf(call.Pos(),
				"call to global-source rand.%s in deterministic core: draw from a *rand.Rand seeded from the run manifest",
				fn.Name())
		}
	}
}

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
// greppable separately from ordinary lint allows.
package nodeterminism

import (
	"go/ast"
	"go/types"
	"strings"

	"shmgpu/internal/analysis"
)

// Analyzer is the nodeterminism check.
var Analyzer = &analysis.Analyzer{
	Name: "nodeterminism",
	Doc: "forbid wall-clock time, global randomness, map-order dependence, " +
		"and goroutines in the cycle-accurate simulator core",
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

// restrictedPath reports whether pkgPath falls in the deterministic core.
func restrictedPath(pkgPath string) bool {
	for _, seg := range Restricted {
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

func run(pass *analysis.Pass) (any, error) {
	if !restrictedPath(pass.Pkg.Path()) {
		return nil, nil
	}
	pass.Inspect(func(n ast.Node) bool {
		if n == nil {
			return true
		}
		if pass.IsTestFile(n.Pos()) {
			return false
		}
		switch node := n.(type) {
		case *ast.GoStmt:
			// The fork/join-worker waiver, parsed by the shared waiver
			// sheet; it must sit on the same line as the go statement.
			if pass.Waivers().Line("parallel-ok", node.Pos()) {
				return true
			}
			pass.Reportf(node.Pos(),
				"goroutine spawned in deterministic core package %s; the simulator is single-threaded per run "+
					"(a vetted fork/join pool worker may be waived with //shm:parallel-ok on the spawning line)",
				pass.Pkg.Path())
		case *ast.RangeStmt:
			t := pass.TypesInfo.TypeOf(node.X)
			if t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap && !pass.Allowed("maprange", node.Pos()) {
					pass.Reportf(node.Pos(),
						"range over map in deterministic core: iteration order is random; "+
							"sort the keys or annotate with //shmlint:allow maprange if order-insensitive")
				}
			}
		case *ast.CallExpr:
			checkCall(pass, node)
		}
		return true
	})
	return nil, nil
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

// Package analysis is a minimal, dependency-free reimplementation of the
// go/analysis analyzer model (golang.org/x/tools/go/analysis) sufficient to
// host this repository's lint suite. It exists because the simulator's
// correctness rules — determinism, a single-threaded cycle loop, probe
// guarding, unit discipline — are mechanical properties of the source tree
// that belong in a lint gate, and the canonical framework is an external
// module this repository does not vendor. cmd/shmlint is the one driver.
// Counter naming and ownership need no analyzer: a counter is a
// stats.Counter handle, and stats.NewCounter enforces both at registration.
// That the cycle loop does not allocate is a measured property, not a lint
// rule: the gpu package's TestTickSteadyStateAllocFree counts it.
//
// The model is the familiar one: an Analyzer owns a Run function invoked
// once per package with a Pass carrying the parsed non-test files, type
// information, and a Report sink. Every check is per-package.
//
// Source lines can silence a specific check with a trailing
// `//shmlint:allow <check>` comment; the annotation is an explicit,
// greppable justification marker. Pass.Allowed consults it.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"shmgpu/internal/analysis/waiver"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name is the analyzer's identifier: lower-case, no spaces. It doubles
	// as the //shmlint:allow annotation key and labels its findings.
	Name string
	// Doc is the one-line description listed by `shmlint -h`.
	Doc string
	// Run analyzes one package and reports findings via pass.Report.
	Run func(pass *Pass) error
}

// Pass carries one package's analysis inputs to an Analyzer's Run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report delivers one diagnostic to the driver.
	Report func(Diagnostic)

	// waivers lazily indexes the package's waiver comments.
	waivers *waiver.Sheet
}

// Diagnostic is one finding, positioned at Pos.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf formats and reports a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Waivers returns the package's lazily built waiver sheet, the single
// parser for `//shmlint:allow` and `//shm:*` annotations.
func (p *Pass) Waivers() *waiver.Sheet {
	if p.waivers == nil {
		p.waivers = waiver.New(p.Fset, p.Files)
	}
	return p.waivers
}

// Allowed reports whether the line containing pos carries a
// `//shmlint:allow <check>` annotation for the named check. The annotation
// must appear in a comment on the same source line as the flagged node.
func (p *Pass) Allowed(check string, pos token.Pos) bool {
	return p.Waivers().Allow(check, pos)
}

// NamedType reports whether t (after unwrapping pointers) is the named type
// pkgName.typeName, matching by package *name* rather than full import path
// so test fixtures with short paths behave like the real tree.
func NamedType(t types.Type, pkgName, typeName string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil &&
		obj.Pkg().Name() == pkgName && obj.Name() == typeName
}

// Inspect walks every file in the pass in source order, calling fn for each
// node; fn returning false prunes the subtree (ast.Inspect semantics).
func (p *Pass) Inspect(fn func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}

// Package counterhygiene enforces the stats.Registry naming and ownership
// contract. Registry counters flow verbatim into the Prometheus export
// (shmgpu_registry_total{name="..."}) and into byte-stable trace output, so
// a counter name must (a) be statically known at the write site, (b) use
// the lowercase_snake charset Prometheus label values standardize on, and
// (c) be written by exactly one owning package — two packages incrementing
// the same name silently merge unrelated quantities at export time.
//
// Rules (a) and (b) are checked per package by Run. Rule (c) needs the
// whole tree at once, so the Finish hook checks it over every package's
// result.
package counterhygiene

import (
	"go/ast"
	"go/constant"
	"go/token"
	"regexp"
	"sort"

	"shmgpu/internal/analysis"
)

// Analyzer is the counterhygiene check.
var Analyzer = &analysis.Analyzer{
	Name: "counterhygiene",
	Doc: "enforce stats.Registry counter naming (lowercase_snake, static) " +
		"and single-package ownership",
	Run:    run,
	Finish: finish,
}

// Write records one Registry.Add/Inc call site.
type Write struct {
	Name string // resolved counter name (format verbs normalized)
	Pos  token.Pos
	Pkg  string
}

// Result is the per-package output consumed by Finish.
type Result struct {
	Writes []Write
}

var nameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// verbRE matches fmt verbs in a Sprintf-constructed counter name so the
// charset check can normalize them (e.g. det_timeout_bucket_%d → ..._0).
var verbRE = regexp.MustCompile(`%[-+ #0-9.]*[a-zA-Z]`)

func run(pass *analysis.Pass) (any, error) {
	res := &Result{}
	pass.Inspect(func(n ast.Node) bool {
		if n == nil {
			return true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Add" && sel.Sel.Name != "Inc") || len(call.Args) < 1 {
			return true
		}
		recv := pass.TypesInfo.TypeOf(sel.X)
		if recv == nil || !analysis.NamedType(recv, "stats", "Registry") {
			return true
		}
		// The package defining Registry forwards names through its own API
		// (Inc and Merge call Add with a variable); those are not counter
		// write sites.
		if pass.Pkg.Name() == "stats" {
			return true
		}
		name, static := counterName(pass, call.Args[0])
		if !static {
			pass.Reportf(call.Args[0].Pos(),
				"counter name must be a constant string or Sprintf of one: "+
					"dynamic names defeat the ownership and export contracts")
			return true
		}
		if !nameRE.MatchString(name) {
			pass.Reportf(call.Args[0].Pos(),
				"counter name %q is not lowercase_snake ([a-z][a-z0-9_]*): "+
					"it is exported verbatim as a Prometheus label value", name)
			return true
		}
		res.Writes = append(res.Writes, Write{Name: name, Pos: call.Pos(), Pkg: pass.Pkg.Path()})
		return true
	})
	if len(res.Writes) == 0 {
		return nil, nil
	}
	return res, nil
}

// counterName resolves the statically known value of a counter-name
// expression: any constant string (literal or named const), or an
// fmt.Sprintf call whose format string is constant (verbs normalized to
// "0" for the charset check).
func counterName(pass *analysis.Pass, e ast.Expr) (string, bool) {
	if tv, ok := pass.TypesInfo.Types[e]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
		return constant.StringVal(tv.Value), true
	}
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) < 1 {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Sprintf" {
		return "", false
	}
	if id, ok := sel.X.(*ast.Ident); !ok || id.Name != "fmt" {
		return "", false
	}
	tv, ok := pass.TypesInfo.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return verbRE.ReplaceAllString(constant.StringVal(tv.Value), "0"), true
}

// finish applies the single-owner rule across the whole tree: every counter
// name must be written from exactly one package.
func finish(f *analysis.Finishing) {
	type site struct {
		pkg string
		pos token.Pos
	}
	byName := map[string][]site{}
	for _, res := range f.Results {
		r, ok := res.(*Result)
		if !ok {
			continue
		}
		for _, w := range r.Writes {
			byName[w.Name] = append(byName[w.Name], site{pkg: w.Pkg, pos: w.Pos})
		}
	}
	names := make([]string, 0, len(byName))
	for n := range byName { //shmlint:allow maprange — keys are sorted before use
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		sites := byName[name]
		pkgs := map[string]token.Pos{}
		var order []string
		for _, s := range sites {
			if _, seen := pkgs[s.pkg]; !seen {
				pkgs[s.pkg] = s.pos
				order = append(order, s.pkg)
			}
		}
		if len(order) < 2 {
			continue
		}
		sort.Strings(order)
		owner := order[0]
		for _, pkg := range order[1:] {
			f.Reportf(pkgs[pkg],
				"counter %q is written by package %s but also by %s: "+
					"each counter must have exactly one owning package",
				name, pkg, owner)
		}
	}
}

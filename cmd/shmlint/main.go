// Command shmlint is the repository's lint gate: it loads the module from
// source and runs the analyzer suite in internal/analysis over it, one
// package at a time (determinism and a single-threaded cycle loop, probe
// guarding, unit discipline):
//
//	go run ./cmd/shmlint ./...
//
// Exit status is 0 when clean, 1 when any analyzer reported a finding, 2 on
// usage or load errors. `shmlint -h` lists the analyzers.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"

	"shmgpu/internal/analysis"
	"shmgpu/internal/analysis/load"
	"shmgpu/internal/analysis/nodeterminism"
	"shmgpu/internal/analysis/probeguard"
	"shmgpu/internal/analysis/unitcheck"
)

// analyzers is the suite, in the order it runs. Adding an analyzer here is
// all it takes to put it in the gate.
var analyzers = []*analysis.Analyzer{
	nodeterminism.Analyzer,
	probeguard.Analyzer,
	unitcheck.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("shmlint", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array on stdout")
	ghaOut := fs.Bool("gha", false, "emit GitHub Actions ::error annotations on stdout")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "Usage: shmlint [flags] <package patterns>\n\nFlags:\n")
		fs.PrintDefaults()
		fmt.Fprintf(os.Stderr, "\nAnalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "  %-15s %s\n", a.Name, a.Doc)
		}
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}
	return lint(fs.Args(), outputOpts{json: *jsonOut, gha: *ghaOut})
}

// lint loads the packages matching patterns from the enclosing module, runs
// every analyzer on each, and prints the findings.
func lint(patterns []string, opts outputOpts) int {
	moduleDir, err := findModuleRoot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "shmlint: %v\n", err)
		return 2
	}
	modulePath, err := load.ModuleInfo(moduleDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "shmlint: reading module path: %v\n", err)
		return 2
	}
	loader := load.New(modulePath, moduleDir)

	paths, err := expandPatterns(loader, modulePath, patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "shmlint: %v\n", err)
		return 2
	}

	var diags []namedDiag
	generated := map[string]bool{}
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "shmlint: %v\n", err)
			return 2
		}
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "shmlint: %s: %v\n", path, terr)
		}
		if len(pkg.TypeErrors) > 0 {
			return 2
		}
		for f := range pkg.Generated {
			generated[f] = true
		}
		diags = append(diags, runAnalyzers(loader.Fset, pkg.Files, pkg.Types, pkg.Info)...)
	}

	// Diagnostics in generated files are suppressed: the fix belongs in
	// the generator, not the output.
	kept := diags[:0]
	for _, d := range diags {
		if !generated[loader.Fset.Position(d.Pos).Filename] {
			kept = append(kept, d)
		}
	}
	diags = kept

	switch {
	case opts.json:
		emitJSON(loader.Fset, moduleDir, diags)
	case opts.gha:
		emitGHA(loader.Fset, moduleDir, diags)
	default:
		printDiags(loader.Fset, diags)
	}
	if len(diags) == 0 {
		return 0
	}
	return 1
}

type namedDiag struct {
	analyzer string
	analysis.Diagnostic
}

// runAnalyzers applies each analyzer to one package.
func runAnalyzers(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) []namedDiag {
	var diags []namedDiag
	for _, a := range analyzers {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Report: func(d analysis.Diagnostic) {
				diags = append(diags, namedDiag{analyzer: a.Name, Diagnostic: d})
			},
		}
		if err := a.Run(pass); err != nil {
			fmt.Fprintf(os.Stderr, "shmlint: analyzer %s: %v\n", a.Name, err)
		}
	}
	return diags
}

package main

import (
	"encoding/json"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// outputOpts selects the findings format: the default human
// file:line:col lines on stderr, a machine-readable JSON array, or
// GitHub Actions workflow annotations.
type outputOpts struct {
	json bool
	gha  bool
}

// jsonDiag is one finding in -json output. File is module-relative when
// the finding lies inside the module.
type jsonDiag struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// relFile renders a diagnostic filename module-relative so output is
// stable across checkouts.
func relFile(moduleDir, name string) string {
	if name == "" {
		return ""
	}
	if rel, err := filepath.Rel(moduleDir, name); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return name
}

func sortDiags(fset *token.FileSet, diags []namedDiag) {
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
}

// printDiags writes one file:line:col line per finding on stderr.
func printDiags(fset *token.FileSet, diags []namedDiag) {
	sortDiags(fset, diags)
	for _, d := range diags {
		p := fset.Position(d.Pos)
		fmt.Fprintf(os.Stderr, "%s:%d:%d: %s (%s)\n", p.Filename, p.Line, p.Column, d.Message, d.analyzer)
	}
}

// emitJSON writes every finding as a JSON array on stdout — always an
// array, so consumers can decode without special-casing the clean run.
func emitJSON(fset *token.FileSet, moduleDir string, diags []namedDiag) {
	sortDiags(fset, diags)
	out := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		p := fset.Position(d.Pos)
		out = append(out, jsonDiag{
			Analyzer: d.analyzer,
			File:     relFile(moduleDir, p.Filename),
			Line:     p.Line,
			Col:      p.Column,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintf(os.Stderr, "shmlint: encoding findings: %v\n", err)
	}
}

// emitGHA writes GitHub Actions workflow command annotations: each
// finding becomes an inline ::error marker on the touched line in the PR
// diff view.
func emitGHA(fset *token.FileSet, moduleDir string, diags []namedDiag) {
	sortDiags(fset, diags)
	for _, d := range diags {
		p := fset.Position(d.Pos)
		fmt.Fprintf(os.Stdout, "::error file=%s,line=%d,col=%d::%s (%s)\n",
			relFile(moduleDir, p.Filename), p.Line, p.Column,
			ghaEscape(d.Message), d.analyzer)
	}
}

// ghaEscape encodes the characters the workflow-command parser treats
// specially in the message position.
func ghaEscape(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

// Package waiver is the one parser for the repository's source-comment
// waiver and marker annotations. Two spellings exist, with deliberately
// different weight:
//
//   - `//shmlint:allow <check>[,<check>...] — <justification>` silences a
//     specific analyzer check on the same source line. It is the ordinary
//     lint escape hatch.
//
//   - `//shm:<name> [justification]` is a structural marker. The one
//     marker an analyzer reads is `//shm:parallel-ok`, nodeterminism's
//     waiver for a vetted fork/join goroutine; nodeterminism reports every
//     other marker, so a marker nothing reads cannot sit in the tree as a
//     silent no-op. The distinct prefix keeps load-bearing contract
//     annotations greppable separately from ordinary allows.
//
// Both spellings attach to the source line they sit on: an annotation
// applies to the nodes starting on its line.
// Every analyzer resolves annotations through a Sheet so the syntax is
// defined exactly once.
package waiver

import (
	"go/ast"
	"go/token"
	"regexp"
	"strings"
)

// shmRE matches a `//shm:<name>` marker, which must open its comment (so
// prose that quotes a marker is not one); names are lowercase with dashes.
var shmRE = regexp.MustCompile(`^//shm:([a-z][a-z0-9-]*)`)

// allowRE matches the `//shmlint:allow a,b` form.
var allowRE = regexp.MustCompile(`//shmlint:allow\s+([a-z0-9_,-]+)`)

// Sheet indexes the waiver comments of a set of files sharing one FileSet.
// Indexes are built lazily per file and cached; a Sheet is not safe for
// concurrent use (analyzer passes are single-goroutine).
type Sheet struct {
	fset  *token.FileSet
	files []*ast.File
	idx   map[*ast.File]*fileIndex
}

type fileIndex struct {
	shm   map[int][]string // line -> //shm: marker names on that line
	allow map[int][]string // line -> //shmlint:allow names on that line
}

// New builds a Sheet over files (all positioned in fset).
func New(fset *token.FileSet, files []*ast.File) *Sheet {
	return &Sheet{fset: fset, files: files, idx: map[*ast.File]*fileIndex{}}
}

// fileFor locates the file containing pos.
func (s *Sheet) fileFor(pos token.Pos) *ast.File {
	for _, f := range s.files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

func (s *Sheet) indexFor(f *ast.File) *fileIndex {
	if ix, ok := s.idx[f]; ok {
		return ix
	}
	ix := &fileIndex{shm: map[int][]string{}, allow: map[int][]string{}}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			ln := s.fset.Position(c.Pos()).Line
			if m := shmRE.FindStringSubmatch(c.Text); m != nil {
				ix.shm[ln] = append(ix.shm[ln], m[1])
			}
			if m := allowRE.FindStringSubmatch(c.Text); m != nil {
				for _, name := range strings.Split(m[1], ",") {
					ix.allow[ln] = append(ix.allow[ln], strings.TrimSpace(name))
				}
			}
		}
	}
	s.idx[f] = ix
	return ix
}

// Line reports whether the line containing pos carries `//shm:<name>`.
func (s *Sheet) Line(name string, pos token.Pos) bool {
	f := s.fileFor(pos)
	if f == nil {
		return false
	}
	for _, n := range s.indexFor(f).shm[s.fset.Position(pos).Line] {
		if n == name {
			return true
		}
	}
	return false
}

// Allow reports whether the line containing pos carries
// `//shmlint:allow <check>` for the named check.
func (s *Sheet) Allow(check string, pos token.Pos) bool {
	f := s.fileFor(pos)
	if f == nil {
		return false
	}
	for _, n := range s.indexFor(f).allow[s.fset.Position(pos).Line] {
		if n == check {
			return true
		}
	}
	return false
}

// Marker is one `//shm:<name>` marker.
type Marker struct {
	Pos  token.Pos // the comment carrying the marker
	Name string
}

// Markers lists every `//shm:` marker in the sheet's files, in source order.
func (s *Sheet) Markers() []Marker {
	var out []Marker
	for _, f := range s.files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if m := shmRE.FindStringSubmatch(c.Text); m != nil {
					out = append(out, Marker{Pos: c.Pos(), Name: m[1]})
				}
			}
		}
	}
	return out
}

// Package analysistest runs an analyzer against source fixtures and checks
// its diagnostics against `// want "regexp"` expectations embedded in the
// fixture files, mirroring golang.org/x/tools/go/analysis/analysistest.
//
// Fixtures live under <testdata>/src/<importpath>/, and a want comment on a
// source line asserts that the analyzer reports a diagnostic on that line
// whose message matches the regexp. Multiple quoted regexps on one comment
// expect multiple diagnostics. Lines without want comments must produce no
// diagnostics.
package analysistest

import (
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"shmgpu/internal/analysis"
	"shmgpu/internal/analysis/load"
)

type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

type finding struct {
	file string
	line int
	msg  string
}

// Run loads every fixture package, applies the analyzer to each, and
// compares all diagnostics against the fixtures' want comments.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	loader := load.New("", "", filepath.Join(testdata, "src"))

	var wants []*want
	var got []finding

	for _, path := range pkgPaths {
		pkg, err := loader.Load(path)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", path, err)
		}
		for _, terr := range pkg.TypeErrors {
			t.Errorf("fixture %s does not type-check: %v", path, terr)
		}
		wants = append(wants, collectWants(t, loader.Fset, pkg)...)

		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      loader.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Report: func(d analysis.Diagnostic) {
				p := loader.Fset.Position(d.Pos)
				got = append(got, finding{file: filepath.Base(p.Filename), line: p.Line, msg: d.Message})
			},
		}
		if err := a.Run(pass); err != nil {
			t.Fatalf("analyzer %s failed on %s: %v", a.Name, path, err)
		}
	}

	for _, g := range got {
		if w := match(wants, g); w != nil {
			w.hit = true
			continue
		}
		t.Errorf("%s:%d: unexpected diagnostic: %s", g.file, g.line, g.msg)
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

func match(wants []*want, g finding) *want {
	for _, w := range wants {
		if !w.hit && w.file == g.file && w.line == g.line && w.re.MatchString(g.msg) {
			return w
		}
	}
	return nil
}

var wantRE = regexp.MustCompile(`// want (.*)`)

func collectWants(t *testing.T, fset *token.FileSet, pkg *load.Package) []*want {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, lit := range splitQuoted(m[1]) {
					pat, err := strconv.Unquote(lit)
					if err != nil {
						t.Fatalf("%s:%d: bad want literal %s: %v", pos.Filename, pos.Line, lit, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
					}
					wants = append(wants, &want{file: filepath.Base(pos.Filename), line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// splitQuoted extracts the sequence of Go string literals ("..." or `...`)
// from the tail of a want comment.
func splitQuoted(s string) []string {
	var lits []string
	for {
		s = strings.TrimSpace(s)
		if s == "" {
			break
		}
		switch s[0] {
		case '"':
			i := 1
			for i < len(s) && s[i] != '"' {
				if s[i] == '\\' {
					i++
				}
				i++
			}
			if i >= len(s) {
				return lits
			}
			lits = append(lits, s[:i+1])
			s = s[i+1:]
		case '`':
			i := strings.IndexByte(s[1:], '`')
			if i < 0 {
				return lits
			}
			lits = append(lits, s[:i+2])
			s = s[i+2:]
		default:
			return lits
		}
	}
	return lits
}

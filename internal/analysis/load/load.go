// Package load type-checks Go packages straight from source, with no
// dependency on go/packages or precompiled export data. It is the package
// loader behind shmlint and the analysistest fixture runner.
//
// Resolution order for an import path: the enclosing module (prefix match
// on the module path), any extra roots (analysistest fixture trees), then
// GOROOT/src. Dependencies are type-checked declarations-only
// (IgnoreFuncBodies), which keeps whole-tree loading fast; only packages
// the caller explicitly Loads get full bodies and populated type info.
package load

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one fully loaded (bodies + type info) package.
type Package struct {
	Path  string
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects type-checker errors; loading tolerates them so a
	// lint run can still report on the parts that type-checked.
	TypeErrors []error
	// Generated marks files (by full path) carrying the conventional
	// "// Code generated ... DO NOT EDIT." header; drivers suppress
	// diagnostics in them since fixes belong in the generator.
	Generated map[string]bool
}

// Loader resolves and type-checks packages from source.
type Loader struct {
	Fset       *token.FileSet
	ModulePath string
	ModuleDir  string
	// ExtraRoots are additional source roots searched before GOROOT
	// (analysistest fixture trees, each laid out as <root>/<importpath>/).
	ExtraRoots []string

	ctx  build.Context
	deps map[string]*types.Package
}

// New builds a loader for the module rooted at moduleDir.
func New(modulePath, moduleDir string, extraRoots ...string) *Loader {
	ctx := build.Default
	// Cgo files cannot be type-checked from source; the tree is pure Go.
	ctx.CgoEnabled = false
	return &Loader{
		Fset:       token.NewFileSet(),
		ModulePath: modulePath,
		ModuleDir:  moduleDir,
		ExtraRoots: extraRoots,
		ctx:        ctx,
		deps:       map[string]*types.Package{},
	}
}

// resolveDir maps an import path to its source directory.
func (l *Loader) resolveDir(path string) (string, error) {
	if path == l.ModulePath {
		return l.ModuleDir, nil
	}
	if rest, ok := strings.CutPrefix(path, l.ModulePath+"/"); ok {
		return filepath.Join(l.ModuleDir, filepath.FromSlash(rest)), nil
	}
	for _, root := range l.ExtraRoots {
		dir := filepath.Join(root, filepath.FromSlash(path))
		if p, err := l.ctx.ImportDir(dir, 0); err == nil && len(p.GoFiles) > 0 {
			return dir, nil
		}
	}
	dir := filepath.Join(l.ctx.GOROOT, "src", filepath.FromSlash(path))
	if _, err := l.ctx.ImportDir(dir, 0); err != nil {
		return "", fmt.Errorf("load: cannot resolve import %q: %v", path, err)
	}
	return dir, nil
}

// parseDir parses the build-selected non-test Go files of dir.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	bp, err := l.ctx.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	names := append([]string(nil), bp.GoFiles...)
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// importDecl type-checks path declarations-only, memoized.
func (l *Loader) importDecl(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := l.deps[path]; ok {
		return p, nil
	}
	dir, err := l.resolveDir(path)
	if err != nil {
		return nil, err
	}
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, fmt.Errorf("load: parse %s: %v", path, err)
	}
	cfg := types.Config{
		Importer:         importerFunc(l.importDecl),
		IgnoreFuncBodies: true,
		FakeImportC:      true,
		Error:            func(error) {}, // decl-only stdlib parses may warn; tolerate
	}
	pkg, err := cfg.Check(path, l.Fset, files, nil)
	if err != nil && pkg == nil {
		return nil, fmt.Errorf("load: check %s: %v", path, err)
	}
	l.deps[path] = pkg
	return pkg, nil
}

// Load fully type-checks the package at importPath: function bodies are
// checked and the returned Info covers Types, Defs, Uses, and Selections.
func (l *Loader) Load(importPath string) (*Package, error) {
	dir, err := l.resolveDir(importPath)
	if err != nil {
		return nil, err
	}
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, fmt.Errorf("load: parse %s: %v", importPath, err)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("load: no Go files in %s", importPath)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var terrs []error
	cfg := types.Config{
		Importer: importerFunc(l.importDecl),
		Error:    func(err error) { terrs = append(terrs, err) },
	}
	pkg, err := cfg.Check(importPath, l.Fset, files, info)
	if err != nil && pkg == nil {
		return nil, fmt.Errorf("load: check %s: %v", importPath, err)
	}
	generated := map[string]bool{}
	for _, f := range files {
		if ast.IsGenerated(f) {
			generated[l.Fset.Position(f.Pos()).Filename] = true
		}
	}
	return &Package{
		Path:       importPath,
		Dir:        dir,
		Files:      files,
		Types:      pkg,
		Info:       info,
		TypeErrors: terrs,
		Generated:  generated,
	}, nil
}

// Walk returns the import paths of every package under the module root,
// skipping testdata, hidden, and vendor directories. The result is sorted.
func (l *Loader) Walk() ([]string, error) {
	var paths []string
	err := walkDirs(l.ModuleDir, func(dir string) error {
		bp, err := l.ctx.ImportDir(dir, 0)
		if err != nil {
			return nil // no buildable Go files here; keep walking
		}
		if len(bp.GoFiles) == 0 {
			return nil
		}
		rel, err := filepath.Rel(l.ModuleDir, dir)
		if err != nil {
			return err
		}
		if rel == "." {
			paths = append(paths, l.ModulePath)
		} else {
			paths = append(paths, l.ModulePath+"/"+filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

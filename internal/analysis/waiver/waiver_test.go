package waiver

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

const src = `package p

// doc for f.
//
//shm:tick-root
func f() {
	x := 1 //shm:alloc-ok grows to steady capacity
	_ = x
	y := 2 //shmlint:allow maprange,unitcheck — justified
	_ = y
	z := 3 //shm:sync-ok //shm:alloc-ok two markers one line
	_ = z
}

func g() { //shm:cold
}
`

func parse(t *testing.T) (*token.FileSet, *ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, f
}

func decls(f *ast.File) (fn, gn *ast.FuncDecl) {
	for _, d := range f.Decls {
		if d, ok := d.(*ast.FuncDecl); ok {
			if d.Name.Name == "f" {
				fn = d
			} else {
				gn = d
			}
		}
	}
	return
}

func stmtPos(fn *ast.FuncDecl, i int) token.Pos { return fn.Body.List[i].Pos() }

func TestLineMarkers(t *testing.T) {
	fset, f := parse(t)
	sh := New(fset, []*ast.File{f})
	fn, _ := decls(f)

	if !sh.Line("alloc-ok", stmtPos(fn, 0)) {
		t.Error("alloc-ok marker on statement line not found")
	}
	if sh.Line("sync-ok", stmtPos(fn, 0)) {
		t.Error("sync-ok reported on a line that only has alloc-ok")
	}
	if sh.Line("alloc-ok", stmtPos(fn, 1)) {
		t.Error("marker leaked to the following line")
	}
	if !sh.Line("sync-ok", stmtPos(fn, 4)) || !sh.Line("alloc-ok", stmtPos(fn, 4)) {
		t.Error("two markers on one line: both must be found")
	}
}

func TestAllow(t *testing.T) {
	fset, f := parse(t)
	sh := New(fset, []*ast.File{f})
	fn, _ := decls(f)

	pos := stmtPos(fn, 2)
	if !sh.Allow("maprange", pos) || !sh.Allow("unitcheck", pos) {
		t.Error("comma-separated allow list: both checks must be allowed")
	}
	if sh.Allow("nodeterminism", pos) {
		t.Error("allow reported for a check not on the list")
	}
	if sh.Allow("maprange", stmtPos(fn, 0)) {
		t.Error("allow reported on a line without an allow comment")
	}
}

func TestFuncMarkers(t *testing.T) {
	fset, f := parse(t)
	sh := New(fset, []*ast.File{f})
	fn, gn := decls(f)

	if !sh.Func("tick-root", fn) {
		t.Error("doc-comment tick-root marker not found")
	}
	if sh.Func("cold", fn) {
		t.Error("cold reported on f, which only has tick-root")
	}
	if !sh.Func("cold", gn) {
		t.Error("same-line cold marker on g not found")
	}
}

func TestOutOfRangePos(t *testing.T) {
	fset, f := parse(t)
	sh := New(fset, []*ast.File{f})
	if sh.Line("alloc-ok", token.NoPos) || sh.Allow("maprange", token.NoPos) {
		t.Error("NoPos must never match an annotation")
	}
}

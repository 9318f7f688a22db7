package waiver

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

const src = `package p

// f quotes //shm:parallel-ok in prose, which is not a marker.
func f(work func()) {
	go work() //shm:parallel-ok fixed pool worker
	x := 1
	_ = x
	y := 2 //shmlint:allow maprange,unitcheck — justified
	_ = y
	z := 3 //shm:amortized a marker nothing reads
	_ = z
}
`

func parse(t *testing.T) (*token.FileSet, *ast.File, *ast.FuncDecl) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, f, f.Decls[0].(*ast.FuncDecl)
}

func stmtPos(fn *ast.FuncDecl, i int) token.Pos { return fn.Body.List[i].Pos() }

func TestLineMarkers(t *testing.T) {
	fset, f, fn := parse(t)
	sh := New(fset, []*ast.File{f})

	if !sh.Line("parallel-ok", stmtPos(fn, 0)) {
		t.Error("parallel-ok marker on statement line not found")
	}
	if sh.Line("amortized", stmtPos(fn, 0)) {
		t.Error("amortized reported on a line that only has parallel-ok")
	}
	if sh.Line("parallel-ok", stmtPos(fn, 1)) {
		t.Error("marker leaked to the following line")
	}
}

func TestMarkers(t *testing.T) {
	fset, f, _ := parse(t)
	var got []string
	for _, m := range New(fset, []*ast.File{f}).Markers() {
		got = append(got, m.Name+"@"+fset.Position(m.Pos).String())
	}
	want := []string{"parallel-ok@p.go:5:12", "amortized@p.go:10:9"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("Markers = %v, want %v", got, want)
	}
}

func TestAllow(t *testing.T) {
	fset, f, fn := parse(t)
	sh := New(fset, []*ast.File{f})

	pos := stmtPos(fn, 3)
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

func TestOutOfRangePos(t *testing.T) {
	fset, f, _ := parse(t)
	sh := New(fset, []*ast.File{f})
	if sh.Line("parallel-ok", token.NoPos) || sh.Allow("maprange", token.NoPos) {
		t.Error("NoPos must never match an annotation")
	}
}

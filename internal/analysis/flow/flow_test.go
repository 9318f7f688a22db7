package flow

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"shmgpu/internal/analysis"
)

// checkPkg type-checks one import-free source file and wraps it in a Pass.
func checkPkg(t *testing.T, src string) *analysis.Pass {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{}
	pkg, err := conf.Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("type check: %v", err)
	}
	return &analysis.Pass{
		Fset:      fset,
		Files:     []*ast.File{f},
		Pkg:       pkg,
		TypesInfo: info,
		Report:    func(analysis.Diagnostic) {},
	}
}

// graphOf collects one package and builds a single-package graph.
func graphOf(t *testing.T, src string) *Graph {
	t.Helper()
	pf := Collect(checkPkg(t, src))
	return BuildGraph(map[string]any{"p": pf})
}

func TestReachThroughFuncValuedField(t *testing.T) {
	src := `package p

type S struct {
	fn func()
}

//shm:tick-root
func (s *S) tick() {
	s.fn()
}

func (s *S) wire() {
	s.fn = s.work
}

func (s *S) work() {
	other()
}

func other() {}
func unrelated() {}
`
	g := graphOf(t, src)
	r := g.Reach(g.Roots(func(f *Func) bool { return f.TickRoot }))
	if !r.In("p.(S).work") {
		t.Fatal("method stored into a func field must be reachable through the field call")
	}
	if !r.In("p.other") {
		t.Fatal("callee of the flowed method must be reachable")
	}
	if r.In("p.unrelated") {
		t.Fatal("unreferenced function must not be reachable")
	}
	wit := g.Witness(r, "p.other")
	if !strings.Contains(wit, "tick") || !strings.Contains(wit, "work") {
		t.Fatalf("witness %q should trace tick → work → other", wit)
	}
}

func TestReachThroughTaskSliceAndParam(t *testing.T) {
	src := `package p

type E struct {
	tasks []func()
}

func (e *E) build() {
	e.tasks = append(e.tasks, func() { leaf() })
}

//shm:tick-root
func (e *E) tick() {
	run(e.tasks)
}

func run(tasks []func()) {
	for _, t := range tasks {
		t()
	}
}

func leaf() {}
`
	g := graphOf(t, src)
	r := g.Reach(g.Roots(func(f *Func) bool { return f.TickRoot }))
	if !r.In("p.leaf") {
		t.Fatal("closure appended to a task slice and invoked through a parameter must be reachable")
	}
}

func TestInterfaceCallResolvesByMethodName(t *testing.T) {
	src := `package p

type Ticker interface{ Tick() }

type A struct{}
func (A) Tick() { fromA() }

type B struct{}
func (B) Tick() { fromB() }

//shm:tick-root
func drive(t Ticker) {
	t.Tick()
}

func fromA() {}
func fromB() {}
`
	g := graphOf(t, src)
	r := g.Reach(g.Roots(func(f *Func) bool { return f.TickRoot }))
	if !r.In("p.fromA") || !r.In("p.fromB") {
		t.Fatal("interface call must reach every concrete method with the name (CHA)")
	}
}

func TestPanicOnlyAndColdPruning(t *testing.T) {
	src := `package p

//shm:tick-root
func tick(bad bool) {
	if bad {
		deadEnd()
		panic("boom")
	}
	s := make([]int, 4)
	_ = s
	amortized() //shm:cold
}

func deadEnd()   {}
func amortized() { heavy() }
func heavy()     {}

//shm:cold
func coldFn() { alsoCold() }
func alsoCold() {}

//shm:tick-root
func tick2() { coldFn() }
`
	g := graphOf(t, src)
	r := g.Reach(g.Roots(func(f *Func) bool { return f.TickRoot }))
	if r.In("p.deadEnd") {
		t.Fatal("calls in panic-only blocks must not create reach edges")
	}
	if r.In("p.amortized") || r.In("p.heavy") {
		t.Fatal("calls on //shm:cold lines must not create reach edges")
	}
	if r.In("p.coldFn") || r.In("p.alsoCold") {
		t.Fatal("//shm:cold functions must not be entered")
	}
	// The make() in the hot block must be an unpruned alloc site.
	f := g.Funcs["p.tick"]
	var hotMakes int
	for _, s := range f.Allocs {
		if s.What == "make" && !s.Pruned {
			hotMakes++
		}
	}
	if hotMakes != 1 {
		t.Fatalf("want exactly 1 hot make site, got %d", hotMakes)
	}
}

func TestSyncAndAllocSites(t *testing.T) {
	src := `package p

func syncy(ch chan int) {
	ch <- 1
	<-ch
	close(ch)
	go leaf()
}

func alloczilla(xs []int, s1, s2 string) string {
	xs = append(xs, 1)
	m := map[int]int{}
	m[1] = 2
	p := &struct{ x int }{x: 1}
	_ = p
	_ = xs
	return s1 + s2
}

func leaf() {}
`
	g := graphOf(t, src)
	syncs := g.Funcs["p.syncy"].Syncs
	var kinds []string
	for _, s := range syncs {
		kinds = append(kinds, s.What)
	}
	joined := strings.Join(kinds, ";")
	for _, want := range []string{"channel send", "channel receive", "channel close", "goroutine spawn"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("sync sites %q missing %q", joined, want)
		}
	}
	// The go-spawned call must not create a reach edge.
	for _, c := range g.Funcs["p.syncy"].Calls {
		if c.Kind == CallStatic && c.Static == "p.leaf" {
			t.Fatal("go-spawned call must not be a call edge")
		}
	}
	var allocs []string
	for _, s := range g.Funcs["p.alloczilla"].Allocs {
		allocs = append(allocs, s.What)
	}
	aj := strings.Join(allocs, ";")
	for _, want := range []string{"append", "map literal", "&composite literal", "string concatenation"} {
		if !strings.Contains(aj, want) {
			t.Fatalf("alloc sites %q missing %q", aj, want)
		}
	}
}

// Package probeguard preserves the observability layers' zero-overhead
// contract: probes are nil by default, and every emit call on a probe —
// Emit on a *telemetry.Collector, Observe on an obs.Probe — must be
// dominated by a nil check, so an unobserved run never constructs an Event
// or takes a call.
//
// Two guard idioms are recognized, matching the tree's conventions:
//
//	if s.probe != nil { s.probe.Emit(...) }          // wrapping if
//
//	if s.probe == nil || ... { return }              // early return
//	...
//	s.probe.Emit(...)
//
// The early-return form must appear at the top level of the enclosing
// function body, before the emit call. Anything else — including an emit
// reached through an unguarded else-branch — is reported.
package probeguard

import (
	"go/ast"
	"go/token"
	"go/types"

	"shmgpu/internal/analysis"
)

// Analyzer is the probeguard check.
var Analyzer = &analysis.Analyzer{
	Name: "probeguard",
	Doc:  "require a dominating nil check on every telemetry.Collector Emit and obs.Probe Observe site",
	Run:  run,
}

// contracts lists the nil-guarded emit methods: the probe type (by package
// and type name; a pointer to it matches too) and the method whose call
// sites must be dominated by a nil check.
var contracts = []struct {
	pkg, typ, method string
}{
	{"telemetry", "Collector", "Emit"},
	{"obs", "Probe", "Observe"},
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		var stack []ast.Node
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			if call, ok := n.(*ast.CallExpr); ok {
				checkEmit(pass, call, stack)
			}
			return true
		})
	}
	return nil
}

func checkEmit(pass *analysis.Pass, call *ast.CallExpr, stack []ast.Node) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	recv := pass.TypesInfo.TypeOf(sel.X)
	if recv == nil {
		return
	}
	matched := false
	for _, c := range contracts {
		if sel.Sel.Name == c.method && analysis.NamedType(recv, c.pkg, c.typ) {
			matched = true
			break
		}
	}
	if !matched {
		return
	}
	recvText := types.ExprString(sel.X)
	if guardedByIf(recvText, stack) || guardedByEarlyReturn(recvText, call.Pos(), stack) {
		return
	}
	if pass.Allowed("probeguard", call.Pos()) {
		return
	}
	pass.Reportf(call.Pos(),
		"probe %s without a dominating nil check: guard with `if %s != nil` "+
			"or an early `if %s == nil { return }` (probes are nil unless observability is on)",
		sel.Sel.Name, recvText, recvText)
}

// guardedByIf reports whether the call sits in the then-branch of an if
// whose condition includes `recv != nil`.
func guardedByIf(recvText string, stack []ast.Node) bool {
	for i := len(stack) - 1; i > 0; i-- {
		ifStmt, ok := stack[i-1].(*ast.IfStmt)
		if !ok {
			continue
		}
		if stack[i] == ast.Node(ifStmt.Body) && condChecksNil(ifStmt.Cond, recvText, token.NEQ) {
			return true
		}
	}
	return false
}

// guardedByEarlyReturn reports whether the enclosing function's body
// contains, before pos, a top-level `if recv == nil ... { return }`.
func guardedByEarlyReturn(recvText string, pos token.Pos, stack []ast.Node) bool {
	var body *ast.BlockStmt
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			body = fn.Body
		case *ast.FuncLit:
			body = fn.Body
		}
		if body != nil {
			break
		}
	}
	if body == nil {
		return false
	}
	for _, stmt := range body.List {
		if stmt.Pos() >= pos {
			break
		}
		ifStmt, ok := stmt.(*ast.IfStmt)
		if !ok || ifStmt.Else != nil || len(ifStmt.Body.List) == 0 {
			continue
		}
		if _, ret := ifStmt.Body.List[len(ifStmt.Body.List)-1].(*ast.ReturnStmt); !ret {
			continue
		}
		if condChecksNil(ifStmt.Cond, recvText, token.EQL) {
			return true
		}
	}
	return false
}

// condChecksNil reports whether cond contains `recvText <op> nil` (either
// operand order), possibly nested in && / || chains.
func condChecksNil(cond ast.Expr, recvText string, op token.Token) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		b, ok := n.(*ast.BinaryExpr)
		if !ok || b.Op != op {
			return true
		}
		if (isNil(b.Y) && types.ExprString(b.X) == recvText) ||
			(isNil(b.X) && types.ExprString(b.Y) == recvText) {
			found = true
			return false
		}
		return true
	})
	return found
}

func isNil(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

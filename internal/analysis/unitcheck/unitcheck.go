// Package unitcheck flags arithmetic that mixes quantities of different
// units. The simulator's scalars are all uint64, so nothing stops
// `latencyCycles + rowBytes` from compiling; the tree's defense is a naming
// convention — identifiers carry their unit as a suffix (Cycles, Bytes,
// Blocks) — and this check makes the convention load-bearing.
//
// A binary arithmetic expression whose two operands carry *different* unit
// suffixes is reported. Wrapping an operand in any call (a conversion or a
// named converter like bytesToBlocks(x)) neutralizes its unit, which is the
// idiomatic way to state the conversion explicitly. One-sided expressions
// (unit op unitless) are allowed: scaling by plain factors is ubiquitous.
// `//shmlint:allow unitmix` silences a deliberate mixed expression.
package unitcheck

import (
	"go/ast"
	"go/token"
	"strings"

	"shmgpu/internal/analysis"
)

// Analyzer is the unitcheck check.
var Analyzer = &analysis.Analyzer{
	Name: "unitcheck",
	Doc: "flag arithmetic mixing Cycles/Bytes/Blocks-suffixed quantities " +
		"without an explicit conversion",
	Run: run,
}

var arithmetic = map[token.Token]bool{
	token.ADD: true, token.SUB: true, token.MUL: true,
	token.QUO: true, token.REM: true,
}

func run(pass *analysis.Pass) error {
	pass.Inspect(func(n ast.Node) bool {
		if n == nil {
			return true
		}
		b, ok := n.(*ast.BinaryExpr)
		if !ok || !arithmetic[b.Op] {
			return true
		}
		ux, uy := unitOf(b.X), unitOf(b.Y)
		if ux == "" || uy == "" || ux == uy {
			return true
		}
		if pass.Allowed("unitmix", b.Pos()) {
			return true
		}
		pass.Reportf(b.Pos(),
			"arithmetic mixes units: %s (%s) %s %s (%s); convert one side explicitly "+
				"or annotate with //shmlint:allow unitmix",
			exprName(b.X), ux, b.Op, exprName(b.Y), uy)
		return true
	})
	return nil
}

var unitSuffixes = []string{"Cycles", "Bytes", "Blocks"}

// unitOf returns the unit suffix an operand carries, or "" for unitless
// operands. Calls (conversions) and literals are unitless by design.
func unitOf(e ast.Expr) string {
	name := exprName(e)
	if name == "" {
		return ""
	}
	for _, u := range unitSuffixes {
		if strings.HasSuffix(name, u) || strings.EqualFold(name, u) {
			return u
		}
	}
	return ""
}

// exprName extracts the terminal identifier of an operand, looking through
// parentheses; non-name operands yield "".
func exprName(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return v.Sel.Name
	case *ast.ParenExpr:
		return exprName(v.X)
	}
	return ""
}

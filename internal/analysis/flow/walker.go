package flow

import (
	"go/ast"
	"go/token"
	"go/types"

	"shmgpu/internal/analysis/cfg"
)

// allocPkgs are stdlib packages whose exported functions allocate on
// essentially every call (formatting, string building, sorting adapters).
// A hot-path call into one of them is flagged as an allocation site even
// though the allocation happens outside the module.
var allocPkgs = map[string]bool{
	"fmt": true, "strings": true, "strconv": true,
	"errors": true, "sort": true, "bytes": true, "log": true,
}

// posRange is a half-open source region used for //shm:cold and
// sanitizer-branch pruning.
type posRange struct{ lo, hi token.Pos }

// funcWalker summarizes one function body.
type funcWalker struct {
	c *collector
	f *Func

	cold     []posRange
	callFuns map[ast.Expr]bool      // expressions used as a call's Fun
	goCalls  map[*ast.CallExpr]bool // calls spawned by go statements
	lits     []*ast.FuncLit         // direct literals, source order
}

func (w *funcWalker) info() *types.Info { return w.c.pf.Info }

func (w *funcWalker) run() {
	w.callFuns = map[ast.Expr]bool{}
	w.goCalls = map[*ast.CallExpr]bool{}

	w.assignLitKeys()
	w.collectCold()
	w.scanBlocks()
	w.collectFlows()
	w.summarizeLits()
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// assignLitKeys gives every direct function literal its stable key in
// source order (nested literals get theirs when their own walker runs).
func (w *funcWalker) assignLitKeys() {
	ast.Inspect(w.f.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			w.lits = append(w.lits, lit)
			w.c.litKeys[lit] = FuncKey(string(w.f.Key) + "$" + itoa(len(w.lits)))
			return false
		}
		return true
	})
}

// summarizeLits recursively summarizes the direct literals.
func (w *funcWalker) summarizeLits() {
	for i, lit := range w.lits {
		w.c.summarize(w.c.litKeys[lit], w.f.Display+"$"+itoa(i+1), lit, lit.Body, nil)
	}
}

// collectCold gathers //shm:cold statement ranges and sanitizer-only
// branches (`if invariant.Enabled() { ... }` bodies): paths whose cost is
// amortized or debug-only, excluded from steady-state accounting. Nested
// literals own their cold ranges.
func (w *funcWalker) collectCold() {
	ast.Inspect(w.f.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		stmt, ok := n.(ast.Stmt)
		if !ok {
			return true
		}
		// //shm:cold marks amortized/debug paths.
		if w.c.pf.Sheet.Line("cold", stmt.Pos()) {
			w.cold = append(w.cold, posRange{stmt.Pos(), stmt.End()})
		}
		if ifs, ok := stmt.(*ast.IfStmt); ok && w.isSanitizerCond(ifs.Cond) {
			w.cold = append(w.cold, posRange{ifs.Body.Pos(), ifs.Body.End()})
		}
		return true
	})
}

// isSanitizerCond reports whether cond is (or contains) a call to
// invariant.Enabled, the runtime sanitizer gate.
func (w *funcWalker) isSanitizerCond(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if fn, ok := w.info().Uses[sel.Sel].(*types.Func); ok &&
				fn.Pkg() != nil && fn.Pkg().Name() == "invariant" && fn.Name() == "Enabled" {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func (w *funcWalker) inCold(pos token.Pos) bool {
	for _, r := range w.cold {
		if r.lo <= pos && pos < r.hi {
			return true
		}
	}
	return false
}

// scanBlocks walks the CFG and classifies every call, allocation, and
// synchronization site with its pruning state.
func (w *funcWalker) scanBlocks() {
	g := cfg.New(w.f.Body)
	reach := g.Reachable()
	panicOnly := g.PanicOnly(func(call *ast.CallExpr) bool {
		return IsNoReturn(w.info(), call)
	})
	for _, bl := range g.Blocks {
		hot := reach[bl] && !panicOnly[bl]
		for _, n := range bl.Nodes {
			// Compound statements whose children live in their own blocks
			// are skipped, but the statement node itself marks sync points.
			switch s := n.(type) {
			case *ast.SelectStmt:
				w.sync(s.Pos(), "select", !hot)
				continue
			case *ast.RangeStmt:
				if t := w.info().TypeOf(s.X); t != nil {
					if _, isChan := t.Underlying().(*types.Chan); isChan {
						w.sync(s.Pos(), "range over channel", !hot)
					}
				}
				continue
			}
			if isCompound(n) {
				continue
			}
			w.scanNode(n, !hot)
		}
	}
}

// isCompound reports statements whose children are distributed across
// other CFG blocks (so inspecting them here would double-count).
func isCompound(n ast.Node) bool {
	switch n.(type) {
	case *ast.IfStmt, *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt,
		*ast.TypeSwitchStmt, *ast.SelectStmt, *ast.LabeledStmt, *ast.BlockStmt:
		return true
	}
	return false
}

// scanNode classifies sites in one CFG node, skipping nested literals.
func (w *funcWalker) scanNode(n ast.Node, pruned bool) {
	// Direct sync statements.
	switch s := n.(type) {
	case *ast.SendStmt:
		w.sync(s.Arrow, "channel send", pruned)
	case *ast.GoStmt:
		// The spawn is a sync site; the spawned call is NOT a call edge
		// (the work happens on another goroutine, outside this path).
		w.sync(s.Pos(), "goroutine spawn", pruned)
		w.goCalls[s.Call] = true
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			w.alloc(m.Pos(), "function literal (closure) is heap-allocated when it captures", pruned)
			return false
		case *ast.CallExpr:
			w.call(m, pruned)
		case *ast.AssignStmt:
			for _, lhs := range m.Lhs {
				if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
					if t := w.info().TypeOf(ix.X); t != nil {
						if _, isMap := t.Underlying().(*types.Map); isMap {
							w.alloc(ix.Pos(), "map assignment may grow the table", pruned)
						}
					}
				}
			}
		case *ast.CompositeLit:
			if t := w.info().TypeOf(m); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice:
					w.alloc(m.Pos(), "slice literal", pruned)
				case *types.Map:
					w.alloc(m.Pos(), "map literal", pruned)
				}
			}
		case *ast.UnaryExpr:
			switch m.Op {
			case token.AND:
				if _, ok := ast.Unparen(m.X).(*ast.CompositeLit); ok {
					w.alloc(m.Pos(), "&composite literal escapes to the heap", pruned)
				}
			case token.ARROW:
				w.sync(m.Pos(), "channel receive", pruned)
			}
		case *ast.BinaryExpr:
			if m.Op == token.ADD && !w.isConst(m) {
				if t := w.info().TypeOf(m); t != nil {
					if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						w.alloc(m.Pos(), "string concatenation", pruned)
					}
				}
			}
		case *ast.SelectorExpr:
			if sel := w.info().Selections[m]; sel != nil &&
				sel.Kind() == types.MethodVal && !w.callFuns[m] {
				w.alloc(m.Pos(), "bound method value allocates its receiver binding", pruned)
			}
		}
		return true
	})
}

func (w *funcWalker) isConst(e ast.Expr) bool {
	tv, ok := w.info().Types[e]
	return ok && tv.Value != nil
}

func (w *funcWalker) alloc(pos token.Pos, what string, pruned bool) {
	w.f.Allocs = append(w.f.Allocs, Site{
		Pos: pos, What: what,
		Waived: w.c.pf.Sheet.Line("alloc-ok", pos),
		Pruned: pruned || w.inCold(pos),
	})
}

func (w *funcWalker) sync(pos token.Pos, what string, pruned bool) {
	w.f.Syncs = append(w.f.Syncs, Site{
		Pos: pos, What: what,
		Waived: w.c.pf.Sheet.Line("sync-ok", pos),
		Pruned: pruned || w.inCold(pos),
	})
}

// call classifies one call expression: conversions (possible allocations),
// builtins (append/make/new/close), sync-package calls, static calls,
// interface calls, and calls through func values.
func (w *funcWalker) call(call *ast.CallExpr, pruned bool) {
	w.callFuns[call.Fun] = true
	info := w.info()
	pruned = pruned || w.inCold(call.Pos())

	// Type conversions are not calls; string/byte-slice conversions copy.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 && !w.isConst(call.Args[0]) {
			dst := tv.Type.Underlying()
			src := info.TypeOf(call.Args[0])
			if src != nil {
				db, dOK := dst.(*types.Basic)
				_, sSlice := src.Underlying().(*types.Slice)
				sb, sbOK := src.Underlying().(*types.Basic)
				if dOK && db.Info()&types.IsString != 0 && sSlice {
					w.alloc(call.Pos(), "[]byte/[]rune-to-string conversion copies", pruned)
				}
				if _, dSlice := dst.(*types.Slice); dSlice && sbOK && sb.Info()&types.IsString != 0 {
					w.alloc(call.Pos(), "string-to-slice conversion copies", pruned)
				}
			}
		}
		return
	}

	fun := ast.Unparen(call.Fun)

	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "append":
				w.alloc(call.Pos(), "append may grow its backing array", pruned)
			case "make":
				w.alloc(call.Pos(), "make", pruned)
			case "new":
				w.alloc(call.Pos(), "new", pruned)
			case "close":
				w.sync(call.Pos(), "channel close", pruned)
			}
			return
		}
	}

	c := Call{Pos: call.Pos(), Pruned: pruned}

	// Interface boxing at the call boundary: a concrete non-pointer value
	// passed where a parameter is interface-typed allocates.
	w.checkBoxing(call, pruned)

	switch fun := fun.(type) {
	case *ast.Ident:
		switch obj := info.Uses[fun].(type) {
		case *types.Func:
			c.Kind = CallStatic
			c.Static = FuncKeyOf(obj)
		case *types.Var:
			c.Kind = CallDyn
			c.DynKeys = w.dynKeys(fun)
		default:
			return
		}
	case *ast.SelectorExpr:
		sel := info.Selections[fun]
		if sel == nil {
			// Qualified identifier: pkg.Func or pkg.Var.
			switch obj := info.Uses[fun.Sel].(type) {
			case *types.Func:
				w.classifyPkgCall(obj, call, pruned)
				c.Kind = CallStatic
				c.Static = FuncKeyOf(obj)
			case *types.Var:
				c.Kind = CallDyn
				c.DynKeys = []string{ObjKey(obj)}
			default:
				return
			}
		} else {
			switch sel.Kind() {
			case types.MethodVal:
				fn, ok := sel.Obj().(*types.Func)
				if !ok {
					return
				}
				w.classifySyncMethod(fn, call, pruned)
				if types.IsInterface(sel.Recv()) {
					c.Kind = CallIface
					c.Method = fn.Name()
				} else {
					c.Kind = CallStatic
					c.Static = FuncKeyOf(fn)
				}
			case types.FieldVal:
				c.Kind = CallDyn
				c.DynKeys = w.dynKeys(fun)
			default:
				return
			}
		}
	case *ast.FuncLit:
		// Immediately-invoked literal.
		c.Kind = CallStatic
		c.Static = w.c.litKeys[fun]
	case *ast.IndexExpr:
		// Generic instantiation f[T](...) or indexing a func collection.
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			if obj, ok := info.Uses[id].(*types.Func); ok {
				c.Kind = CallStatic
				c.Static = FuncKeyOf(obj)
				break
			}
		}
		c.Kind = CallDyn
		c.DynKeys = w.dynKeys(fun)
	default:
		return
	}

	if w.goCalls[call] {
		return // spawned on another goroutine: no intraprocedural edge
	}
	w.f.Calls = append(w.f.Calls, c)
}

// funcSources resolves the function values an expression may evaluate to:
// literals, named functions, bound methods — or, transitively, the flow
// keys of variables/fields/parameters the value is read from. w supplies
// parameter context and may be nil at package scope.
func (c *collector) funcSources(w *funcWalker, e ast.Expr) []Source {
	info := c.pf.Info
	switch e := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		if k, ok := c.litKeys[e]; ok {
			return []Source{{Func: k}}
		}
	case *ast.Ident:
		switch obj := info.Uses[e].(type) {
		case *types.Func:
			return []Source{{Func: FuncKeyOf(obj)}}
		case *types.Var:
			srcs := []Source{{Key: ObjKey(obj)}}
			if w != nil {
				for i, p := range w.f.ParamObjs {
					if p == obj {
						srcs = append(srcs, Source{Key: paramKey(w.f.Key, i)})
					}
				}
			}
			return srcs
		}
	case *ast.SelectorExpr:
		if sel := info.Selections[e]; sel != nil {
			switch sel.Kind() {
			case types.MethodVal:
				if fn, ok := sel.Obj().(*types.Func); ok {
					return []Source{{Func: FuncKeyOf(fn)}}
				}
			case types.FieldVal:
				return []Source{{Key: ObjKey(sel.Obj())}}
			}
			return nil
		}
		switch obj := info.Uses[e.Sel].(type) {
		case *types.Func:
			return []Source{{Func: FuncKeyOf(obj)}}
		case *types.Var:
			return []Source{{Key: ObjKey(obj)}}
		}
	case *ast.IndexExpr:
		return c.funcSources(w, e.X)
	case *ast.CallExpr:
		// append(dst, f1, f2) carries dst's functions plus the appended ones;
		// conversions pass through.
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "append" && len(e.Args) > 0 {
				var out []Source
				for _, a := range e.Args {
					out = append(out, c.funcSources(w, a)...)
				}
				return out
			}
		}
		if tv, ok := info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return c.funcSources(w, e.Args[0])
		}
	}
	return nil
}

// classifyPkgCall flags package-level calls into sync/atomic and the
// known-allocating stdlib packages.
func (w *funcWalker) classifyPkgCall(fn *types.Func, call *ast.CallExpr, pruned bool) {
	if fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "sync", "sync/atomic":
		w.sync(call.Pos(), "call to "+fn.Pkg().Name()+"."+fn.Name(), pruned)
	case "time":
		if fn.Name() == "Sleep" {
			w.sync(call.Pos(), "call to time.Sleep", pruned)
		}
	default:
		if allocPkgs[fn.Pkg().Path()] {
			w.alloc(call.Pos(), "call into allocating package "+fn.Pkg().Name(), pruned)
		}
	}
}

// classifySyncMethod flags method calls on sync/atomic receivers
// (mutexes, wait groups, atomic boxes).
func (w *funcWalker) classifySyncMethod(fn *types.Func, call *ast.CallExpr, pruned bool) {
	if fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "sync", "sync/atomic":
		recv := "sync"
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			if name, ok := recvTypeName(sig.Recv().Type()); ok {
				recv = fn.Pkg().Name() + "." + name
			}
		}
		w.sync(call.Pos(), recv+"."+fn.Name(), pruned)
	}
}

// checkBoxing flags concrete non-pointer values passed to interface-typed
// parameters (the classic hidden hot-path allocation).
func (w *funcWalker) checkBoxing(call *ast.CallExpr, pruned bool) {
	sig, ok := w.info().TypeOf(call.Fun).(*types.Signature)
	if !ok || sig.Params() == nil {
		return
	}
	for i, arg := range call.Args {
		pi := i
		if pi >= sig.Params().Len() {
			if !sig.Variadic() {
				break
			}
			pi = sig.Params().Len() - 1
		}
		pt := sig.Params().At(pi).Type()
		if sig.Variadic() && pi == sig.Params().Len()-1 {
			if sl, ok := pt.(*types.Slice); ok && !call.Ellipsis.IsValid() {
				pt = sl.Elem()
			}
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := w.info().TypeOf(arg)
		if at == nil || w.isConst(arg) {
			continue
		}
		if types.IsInterface(at) {
			continue // already boxed
		}
		if _, isPtr := at.Underlying().(*types.Pointer); isPtr {
			continue // pointer-to-interface conversion does not allocate
		}
		if b, ok := at.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		w.alloc(arg.Pos(), "value boxed into interface argument", pruned)
	}
}

// dynKeys names the flow keys a func-valued call expression may read from.
func (w *funcWalker) dynKeys(e ast.Expr) []string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj, ok := w.info().Uses[e].(*types.Var); ok {
			keys := []string{ObjKey(obj)}
			for i, p := range w.f.ParamObjs {
				if p == obj {
					keys = append(keys, paramKey(w.f.Key, i))
				}
			}
			return keys
		}
	case *ast.SelectorExpr:
		if sel := w.info().Selections[e]; sel != nil && sel.Kind() == types.FieldVal {
			return []string{ObjKey(sel.Obj())}
		}
		if obj, ok := w.info().Uses[e.Sel].(*types.Var); ok {
			return []string{ObjKey(obj)}
		}
	case *ast.IndexExpr:
		return w.dynKeys(e.X)
	}
	return nil
}

// collectFlows records the function's func-value flows.
func (w *funcWalker) collectFlows() {
	info := w.info()
	ast.Inspect(w.f.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				var rhs ast.Expr
				switch {
				case len(n.Rhs) == len(n.Lhs):
					rhs = n.Rhs[i]
				case len(n.Rhs) == 1:
					rhs = n.Rhs[0]
				}
				if rhs != nil {
					w.registerFlow(lhs, rhs)
				}
			}
		case *ast.RangeStmt:
			if id, ok := n.Value.(*ast.Ident); ok && id.Name != "_" {
				if w.isFuncish(id) {
					for _, src := range w.c.funcSources(w, n.X) {
						if obj := firstObj(info, id); obj != nil {
							w.c.addFlow(ObjKey(obj), src)
						}
					}
				}
			}
		case *ast.CallExpr:
			w.registerArgFlows(n)
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, ok := kv.Key.(*ast.Ident)
				if !ok {
					continue
				}
				if fieldObj, ok := info.Uses[key].(*types.Var); ok && w.exprIsFuncish(kv.Value) {
					for _, src := range w.c.funcSources(w, kv.Value) {
						w.c.addFlow(ObjKey(fieldObj), src)
					}
				}
			}
		}
		return true
	})
}

func firstObj(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Defs[id]; o != nil {
		return o
	}
	return info.Uses[id]
}

// isFuncish / exprIsFuncish report whether a value can carry function
// values (func type, or slice/array/map of funcs) — the only types worth
// tracking in the flow map.
func (w *funcWalker) isFuncish(e ast.Expr) bool { return w.exprIsFuncish(e) }

func (w *funcWalker) exprIsFuncish(e ast.Expr) bool {
	return typeIsFuncish(w.info().TypeOf(e))
}

func typeIsFuncish(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t := t.Underlying().(type) {
	case *types.Signature:
		return true
	case *types.Slice:
		return typeIsFuncish(t.Elem())
	case *types.Array:
		return typeIsFuncish(t.Elem())
	case *types.Map:
		return typeIsFuncish(t.Elem())
	}
	return false
}

// registerFlow records func values flowing into the destination named by
// lhs (variable, field, or element of a field/variable).
func (w *funcWalker) registerFlow(lhs, rhs ast.Expr) {
	if !w.exprIsFuncish(lhs) && !w.exprIsFuncish(rhs) {
		return
	}
	srcs := w.c.funcSources(w, rhs)
	if len(srcs) == 0 {
		return
	}
	for _, key := range w.destKeys(lhs) {
		for _, src := range srcs {
			w.c.addFlow(key, src)
		}
	}
}

// destKeys names the flow destinations of an assignable expression.
func (w *funcWalker) destKeys(e ast.Expr) []string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if e.Name == "_" {
			return nil
		}
		if obj := firstObj(w.info(), e); obj != nil {
			return []string{ObjKey(obj)}
		}
	case *ast.SelectorExpr:
		if sel := w.info().Selections[e]; sel != nil && sel.Kind() == types.FieldVal {
			return []string{ObjKey(sel.Obj())}
		}
		if v, ok := w.info().Uses[e.Sel].(*types.Var); ok {
			return []string{ObjKey(v)}
		}
	case *ast.IndexExpr:
		return w.destKeys(e.X)
	case *ast.StarExpr:
		return w.destKeys(e.X)
	}
	return nil
}

// registerArgFlows records func values passed as arguments to statically
// known callees, keyed by the callee parameter.
func (w *funcWalker) registerArgFlows(call *ast.CallExpr) {
	info := w.info()
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return
	}
	var callee FuncKey
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			callee = FuncKeyOf(fn)
		}
	case *ast.SelectorExpr:
		if sel := info.Selections[fun]; sel != nil && sel.Kind() == types.MethodVal {
			if fn, ok := sel.Obj().(*types.Func); ok {
				callee = FuncKeyOf(fn)
			}
		} else if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			callee = FuncKeyOf(fn)
		}
	}
	if callee == "" {
		return
	}
	sig, _ := info.TypeOf(call.Fun).(*types.Signature)
	for i, arg := range call.Args {
		if !w.exprIsFuncish(arg) {
			continue
		}
		srcs := w.c.funcSources(w, arg)
		if len(srcs) == 0 {
			continue
		}
		pi := i
		if sig != nil && sig.Params() != nil && pi >= sig.Params().Len() {
			pi = sig.Params().Len() - 1
		}
		for _, src := range srcs {
			w.c.addFlow(paramKey(callee, pi), src)
		}
	}
}

package flow

import (
	"sort"
	"strings"
)

// Graph is the whole-tree call graph stitched from per-package summaries
// at Finish time.
type Graph struct {
	// Funcs indexes every summarized function by key.
	Funcs map[FuncKey]*Func
	// PkgOf maps each function to its owning package summary.
	PkgOf map[FuncKey]*PkgFuncs
	// Methods indexes concrete methods by bare name, the class-hierarchy
	// approximation used to resolve interface calls.
	Methods map[string][]FuncKey
	// Flows merges every package's func-value flows.
	Flows map[string][]Source

	resolved map[string][]FuncKey // memoized dyn-key resolution
}

// BuildGraph stitches per-package Collect results (a Finishing.Results
// map whose values are *PkgFuncs) into one graph.
func BuildGraph(results map[string]any) *Graph {
	g := &Graph{
		Funcs:    map[FuncKey]*Func{},
		PkgOf:    map[FuncKey]*PkgFuncs{},
		Methods:  map[string][]FuncKey{},
		Flows:    map[string][]Source{},
		resolved: map[string][]FuncKey{},
	}
	paths := make([]string, 0, len(results))
	for p := range results {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		pf, ok := results[p].(*PkgFuncs)
		if !ok || pf == nil {
			continue
		}
		for _, f := range pf.Funcs {
			g.Funcs[f.Key] = f
			g.PkgOf[f.Key] = pf
			if f.RecvObj != nil {
				name := methodName(f.Key)
				g.Methods[name] = append(g.Methods[name], f.Key)
			}
		}
		for k, srcs := range pf.Flows {
			g.Flows[k] = append(g.Flows[k], srcs...)
		}
	}
	for name := range g.Methods {
		sortKeys(g.Methods[name])
	}
	return g
}

// methodName extracts the bare method name from "pkg.(Recv).Name".
func methodName(k FuncKey) string {
	s := string(k)
	if i := strings.LastIndex(s, ")."); i >= 0 {
		return s[i+2:]
	}
	if i := strings.LastIndex(s, "."); i >= 0 {
		return s[i+1:]
	}
	return s
}

func sortKeys(ks []FuncKey) {
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
}

// ResolveDyn returns the functions a flow key may hold, following
// key-to-key flows transitively. Results are memoized, deduplicated, and
// sorted for deterministic traversal.
func (g *Graph) ResolveDyn(key string) []FuncKey {
	if r, ok := g.resolved[key]; ok {
		return r
	}
	g.resolved[key] = nil // cycle guard
	seen := map[FuncKey]bool{}
	var out []FuncKey
	for _, src := range g.Flows[key] {
		if src.Func != "" {
			if !seen[src.Func] {
				seen[src.Func] = true
				out = append(out, src.Func)
			}
			continue
		}
		for _, k := range g.ResolveDyn(src.Key) {
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	sortKeys(out)
	g.resolved[key] = out
	return out
}

// Callees resolves one call site to candidate function keys. Keys without
// a summary (stdlib, body-less declarations) are included for static
// calls; callers filter against g.Funcs.
func (g *Graph) Callees(c *Call) []FuncKey {
	switch c.Kind {
	case CallStatic:
		if c.Static == "" {
			return nil
		}
		return []FuncKey{c.Static}
	case CallIface:
		return g.Methods[c.Method]
	case CallDyn:
		seen := map[FuncKey]bool{}
		var out []FuncKey
		for _, k := range c.DynKeys {
			for _, fk := range g.ResolveDyn(k) {
				if !seen[fk] {
					seen[fk] = true
					out = append(out, fk)
				}
			}
		}
		sortKeys(out)
		return out
	}
	return nil
}

// Roots returns (sorted) the keys of functions matching pred.
func (g *Graph) Roots(pred func(*Func) bool) []FuncKey {
	var out []FuncKey
	for k, f := range g.Funcs {
		if pred(f) {
			out = append(out, k)
		}
	}
	sortKeys(out)
	return out
}

// Reach records which functions are reachable from a root set and, for
// witness paths, each function's BFS parent.
type Reach struct {
	// Parent maps a reached function to the caller it was first reached
	// from; roots map to "".
	Parent map[FuncKey]FuncKey
	// Order lists reached functions in BFS order.
	Order []FuncKey
}

// In reports whether key was reached.
func (r *Reach) In(key FuncKey) bool {
	_, ok := r.Parent[key]
	return ok
}

// Reach walks the call graph from roots, skipping pruned call sites and
// never descending into //shm:cold functions (amortized paths own their
// cost elsewhere).
func (g *Graph) Reach(roots []FuncKey) *Reach {
	r := &Reach{Parent: map[FuncKey]FuncKey{}}
	queue := make([]FuncKey, 0, len(roots))
	for _, root := range roots {
		if _, ok := g.Funcs[root]; !ok {
			continue
		}
		if _, seen := r.Parent[root]; seen {
			continue
		}
		r.Parent[root] = ""
		queue = append(queue, root)
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		r.Order = append(r.Order, cur)
		f := g.Funcs[cur]
		for i := range f.Calls {
			c := &f.Calls[i]
			if c.Pruned {
				continue
			}
			for _, callee := range g.Callees(c) {
				cf, ok := g.Funcs[callee]
				if !ok || cf.Cold {
					continue
				}
				if _, seen := r.Parent[callee]; seen {
					continue
				}
				r.Parent[callee] = cur
				queue = append(queue, callee)
			}
		}
	}
	return r
}

// Witness renders the call chain from a root to key, e.g.
// "runKernel → tickOnce → issueTick". Long chains elide the middle.
func (g *Graph) Witness(r *Reach, key FuncKey) string {
	var chain []string
	for k := key; k != ""; k = r.Parent[k] {
		f := g.Funcs[k]
		if f == nil {
			chain = append(chain, string(k))
		} else {
			chain = append(chain, f.Display)
		}
		if _, ok := r.Parent[k]; !ok {
			break
		}
	}
	// chain is leaf-to-root; reverse it.
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	if len(chain) > 6 {
		chain = append(append([]string{}, chain[:2]...),
			append([]string{"…"}, chain[len(chain)-3:]...)...)
	}
	return strings.Join(chain, " → ")
}

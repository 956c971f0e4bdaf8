// Program: the inter-procedural layer under lockorder (DESIGN §7). A
// Program indexes every function declared in the packages of one Run
// batch, resolves a same-module call graph through go/types, and orders
// it bottom-up by strongly connected components so that per-function
// lock sets (locksummary.go) can be computed callees-first in one pass.
// Mutual recursion collapses into one SCC, whose members see each
// other's sets only as far as source order allows — false negatives
// over false positives, as everywhere else in the suite.
//
// The Program is built lazily: Run attaches one to every Pass, but the
// function index and SCC order are only computed the first time an
// analyzer asks, so a batch with nothing in lockorder's scope (a golden
// fixture of another analyzer) never pays for them.

package analysis

import (
	"go/ast"
	"go/types"
	"sort"
)

// progFunc is one module function with a body in the loaded batch.
type progFunc struct {
	fn   *types.Func
	decl *ast.FuncDecl
	pkg  *Package
	// callees are the module-local functions called from decl's body,
	// excluding calls made inside nested function literals (a literal's
	// body does not run when this function is called).
	callees []*progFunc
}

// Program spans every package of one Run batch.
type Program struct {
	pkgs []*Package

	built bool
	fns   map[*types.Func]*progFunc
	// order lists every progFunc bottom-up: each function appears after
	// all functions it (transitively) calls, except within its own SCC.
	order []*progFunc

	lockBuilt bool
	lockInfo  *lockGraph
}

func newProgram(pkgs []*Package) *Program {
	return &Program{pkgs: pkgs}
}

// build indexes the batch's function declarations and computes the
// bottom-up SCC order. Idempotent.
func (prog *Program) build() {
	if prog.built {
		return
	}
	prog.built = true
	prog.fns = make(map[*types.Func]*progFunc)
	for _, pkg := range prog.pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				prog.fns[fn] = &progFunc{fn: fn, decl: fd, pkg: pkg}
			}
		}
	}
	for _, pf := range prog.fns {
		pf.callees = prog.calleesOf(pf)
	}
	prog.computeSCCs()
}

// calleesOf collects the module-local functions pf's body calls
// directly, skipping nested function literals.
func (prog *Program) calleesOf(pf *progFunc) []*progFunc {
	seen := make(map[*progFunc]bool)
	var out []*progFunc
	walkFuncBody(pf.decl.Body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		callee := prog.fns[calleeFunc(pf.pkg.Info, call)]
		if callee == nil || seen[callee] {
			return
		}
		seen[callee] = true
		out = append(out, callee)
	})
	return out
}

// walkFuncBody visits every node of body except the interiors of nested
// function literals (their statements execute on a different activation).
func walkFuncBody(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

// computeSCCs orders the call graph bottom-up. Tarjan emits each SCC
// only after every SCC it reaches, so the emission order is exactly the
// callees-first order the summary layers need.
func (prog *Program) computeSCCs() {
	// Deterministic iteration: sort roots by position so the order (and
	// any diagnostics derived from it) is stable across runs.
	roots := make([]*progFunc, 0, len(prog.fns))
	for _, pf := range prog.fns {
		roots = append(roots, pf)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].decl.Pos() < roots[j].decl.Pos() })
	for _, scc := range sccs(roots, func(pf *progFunc) []*progFunc { return pf.callees }) {
		// Within one SCC, keep source order for determinism.
		sort.Slice(scc, func(i, j int) bool { return scc[i].decl.Pos() < scc[j].decl.Pos() })
		prog.order = append(prog.order, scc...)
	}
}

// sccs is the suite's one Tarjan: the strongly connected components of
// the graph reachable from roots, each emitted after every component it
// reaches. It serves the call graph and the lock-order graph.
func sccs[N comparable](roots []N, succs func(N) []N) [][]N {
	index := make(map[N]int)
	low := make(map[N]int)
	onStack := make(map[N]bool)
	var stack []N
	var out [][]N
	var strongconnect func(v N)
	strongconnect = func(v N) {
		index[v] = len(index)
		low[v] = index[v]
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range succs(v) {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				low[v] = min(low[v], low[w])
			} else if onStack[w] {
				low[v] = min(low[v], index[w])
			}
		}
		if low[v] == index[v] {
			var scc []N
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			out = append(out, scc)
		}
	}
	for _, v := range roots {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
	return out
}

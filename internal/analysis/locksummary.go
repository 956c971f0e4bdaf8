// Lock-set summaries and the module-wide lock-acquisition-order graph
// (DESIGN §7). For every function of the scoped delivery packages the
// layer computes, bottom-up over the Program's SCC order:
//
//   - the set of global lock identities the function (transitively)
//     acquires, and
//   - nesting edges held→acquired: one for every lock acquired — directly
//     or inside a callee — while another is statically held.
//
// A lock identity abstracts instances into "which mutex in the source":
// a struct-field mutex is pkgpath.Type.field (via the receiver's static
// type, so every Link shares viper/internal/transport.Link.mu), a
// package-level mutex is pkgpath.var, and an embedded mutex locked
// through its promoted method is pkgpath.Type.Mutex. Local sync.Mutex
// values have no cross-function identity and are ignored. Identifying
// locks by type-and-field means two instances of one type collapse into
// one node — exactly the abstraction a lock-ORDER graph wants, since an
// instance-crossed acquisition (lock a.mu then b.mu of the same type)
// is itself the classic AB-BA hazard.
//
// Held sets flow over the CFG in cfg.go with intersection joins
// (must-held: silence over noise), a silent fixpoint, and a single
// recording replay. Bodies the CFG cannot model (goto)
// fall back to a flow-free scan that keeps the acquire set sound but
// records no edges.

package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// lockEdge is one held→acquired nesting fact.
type lockEdge struct {
	from, to string
	pos      token.Pos
	pkgPath  string
	// via names the callee whose interior performs the acquisition when
	// the edge comes from a call made under the held lock; "" for a
	// directly nested Lock.
	via string
}

// lockGraph is the module-wide acquisition-order graph.
type lockGraph struct {
	edges []lockEdge
	// acquires is the inferred acquire set per function.
	acquires map[*types.Func]map[string]bool
	// cycleEdges are the edges participating in an acquisition-order
	// cycle (two-lock SCCs and self-loops): each is a potential deadlock.
	cycleEdges []lockEdge
}

// lockorderScope names the packages whose mutex nesting joins the graph.
var lockorderScope = map[string]bool{
	"viper/internal/transport": true,
	"viper/internal/relay":     true,
	"viper/internal/pubsub":    true,
	"viper/internal/remote":    true,
	"viper/internal/kvstore":   true,
	"viper/internal/metrics":   true,
}

// lockGraphInfo builds (once) and returns the batch's lock graph.
func (prog *Program) lockGraphInfo() *lockGraph {
	if prog.lockBuilt {
		return prog.lockInfo
	}
	prog.lockBuilt = true
	prog.build()
	g := &lockGraph{acquires: make(map[*types.Func]map[string]bool)}
	for _, pf := range prog.order {
		if !lockorderScope[pf.pkg.ImportPath] {
			continue
		}
		acq, edges := lockFlowRun(pf, g.acquires)
		g.edges = append(g.edges, edges...)
		g.acquires[pf.fn] = acq
	}
	g.findCycles()
	prog.lockInfo = g
	return g
}

// lockIDOf resolves a mutex receiver expression to its global identity,
// or "" for locks without one (locals, unresolvable shapes).
func lockIDOf(info *types.Info, x ast.Expr) string {
	switch x := ast.Unparen(x).(type) {
	case *ast.Ident:
		v, ok := info.Uses[x].(*types.Var)
		if !ok || v.Pkg() == nil {
			return ""
		}
		// A named non-sync type here means a promoted Lock through an
		// embedded mutex: identify it by the embedding type.
		if named := namedOf(v.Type()); named != nil && named.Obj().Pkg() != nil &&
			named.Obj().Pkg().Path() != "sync" {
			return named.Obj().Pkg().Path() + "." + named.Obj().Name() + ".Mutex"
		}
		if v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name()
		}
		return "" // a local mutex cannot participate in cross-function order
	case *ast.SelectorExpr:
		fld, ok := info.Uses[x.Sel].(*types.Var)
		if !ok || !fld.IsField() {
			return ""
		}
		tv, ok := info.Types[x.X]
		if !ok {
			return ""
		}
		named := namedOf(tv.Type)
		if named == nil || named.Obj().Pkg() == nil {
			return ""
		}
		return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + fld.Name()
	}
	return ""
}

func namedOf(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// mutexOpCall classifies call as a Lock/RLock/Unlock/RUnlock on a
// sync.Mutex or sync.RWMutex, returning the receiver expression and
// "lock", "unlock", or "".
func mutexOpCall(info *types.Info, call *ast.CallExpr) (ast.Expr, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	var op string
	switch sel.Sel.Name {
	case "Lock", "RLock":
		op = "lock"
	case "Unlock", "RUnlock":
		op = "unlock"
	default:
		return nil, ""
	}
	obj := info.Uses[sel.Sel]
	if !methodOnType(obj, "sync", "Mutex") && !methodOnType(obj, "sync", "RWMutex") {
		return nil, ""
	}
	return sel.X, op
}

// lockFlowRun computes one function's inferred acquire set and nesting
// edges, consuming the already-computed sets of its callees.
func lockFlowRun(pf *progFunc, acquires map[*types.Func]map[string]bool) (map[string]bool, []lockEdge) {
	info := pf.pkg.Info
	acq := map[string]bool{}
	var edges []lockEdge

	// step applies one CFG node to the held set; when record is true it
	// also emits nesting edges (the single replay pass).
	step := func(n ast.Node, held map[string]token.Pos, record bool) {
		if rng, ok := n.(*ast.RangeStmt); ok {
			n = rng.X // the body lives in its own blocks
		}
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				return false // runs on a different activation
			case *ast.DeferStmt:
				// A deferred unlock keeps the mutex held for the rest of
				// the function — exactly the state we track. A deferred
				// lock is beyond the model.
				return false
			case *ast.GoStmt:
				return false // a new goroutine does not nest under our locks
			case *ast.CallExpr:
				if x, op := mutexOpCall(info, m); op != "" {
					id := lockIDOf(info, x)
					if id == "" {
						return true
					}
					if op == "lock" {
						acq[id] = true
						if record {
							for h := range held {
								edges = append(edges, lockEdge{
									from: h, to: id, pos: m.Pos(),
									pkgPath: pf.pkg.ImportPath,
								})
							}
						}
						held[id] = m.Pos()
					} else {
						delete(held, id)
					}
					return true
				}
				if fn := calleeFunc(info, m); fn != nil {
					for id := range acquires[fn] {
						acq[id] = true
						if record {
							for h := range held {
								edges = append(edges, lockEdge{
									from: h, to: id, pos: m.Pos(),
									pkgPath: pf.pkg.ImportPath, via: fn.Name(),
								})
							}
						}
					}
				}
			}
			return true
		})
	}

	// scanOnly keeps the acquire set sound when the CFG (and therefore
	// held-set tracking) is unavailable.
	scanOnly := func() {
		walkFuncBody(pf.decl.Body, func(n ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			if x, op := mutexOpCall(info, call); op == "lock" {
				if id := lockIDOf(info, x); id != "" {
					acq[id] = true
				}
			}
			if fn := calleeFunc(info, call); fn != nil {
				for id := range acquires[fn] {
					acq[id] = true
				}
			}
		})
	}

	g := buildCFG(pf.decl.Body)
	if g.unsupported {
		scanOnly()
		return acq, nil
	}
	in := make([]map[string]token.Pos, len(g.blocks))
	in[g.entry.index] = map[string]token.Pos{}
	work := []*cfgBlock{g.entry}
	iters, iterCap := 0, (len(g.blocks)+4)*32
	for len(work) > 0 {
		if iters++; iters > iterCap {
			scanOnly()
			return acq, nil
		}
		blk := work[len(work)-1]
		work = work[:len(work)-1]
		st := copyHeld(in[blk.index])
		for _, n := range blk.nodes {
			step(n, st, false)
		}
		for _, to := range blk.succs {
			if in[to.index] == nil {
				in[to.index] = copyHeld(st)
				work = append(work, to)
			} else if next := intersectHeld(in[to.index], st); len(next) != len(in[to.index]) {
				in[to.index] = next
				work = append(work, to)
			}
		}
	}
	for _, blk := range g.blocks {
		if in[blk.index] == nil {
			continue // unreachable
		}
		st := copyHeld(in[blk.index])
		for _, n := range blk.nodes {
			step(n, st, true)
		}
	}
	return acq, edges
}

// findCycles marks every edge inside a strongly connected component of
// the identity graph (including self-loops) as a potential deadlock.
func (g *lockGraph) findCycles() {
	adj := make(map[string]map[string]bool)
	node := func(id string) {
		if adj[id] == nil {
			adj[id] = make(map[string]bool)
		}
	}
	for _, e := range g.edges {
		node(e.from)
		node(e.to)
		adj[e.from][e.to] = true
	}
	ids := make([]string, 0, len(adj))
	for id := range adj {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	succsOf := func(id string) []string {
		out := make([]string, 0, len(adj[id]))
		for s := range adj[id] {
			out = append(out, s)
		}
		sort.Strings(out)
		return out
	}

	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	sccOf := make(map[string]int)
	sccSize := make(map[int]int)
	var stack []string
	next, sccs := 0, 0
	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range succsOf(v) {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				sccOf[w] = sccs
				sccSize[sccs]++
				if w == v {
					break
				}
			}
			sccs++
		}
	}
	for _, id := range ids {
		if _, seen := index[id]; !seen {
			strongconnect(id)
		}
	}
	for _, e := range g.edges {
		if e.from == e.to || (sccOf[e.from] == sccOf[e.to] && sccSize[sccOf[e.from]] > 1) {
			g.cycleEdges = append(g.cycleEdges, e)
		}
	}
}

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
// type, so every Link shares viper/internal/core.Link.mu), a
// package-level mutex is pkgpath.var, and an embedded mutex locked
// through its promoted method is pkgpath.Type.Mutex. Local sync.Mutex
// values have no cross-function identity and are ignored. Identifying
// locks by type-and-field means two instances of one type collapse into
// one node — exactly the abstraction a lock-ORDER graph wants, since an
// instance-crossed acquisition (lock a.mu then b.mu of the same type)
// is itself the classic AB-BA hazard.
//
// Held sets flow through solveFlow (cfg.go) with intersection joins
// (must-held: silence over noise); edges are recorded in its one replay.
// Bodies the CFG cannot model (goto) fall back to a flow-free scan that
// keeps the acquire set sound but records no edges.

package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
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
	"viper/internal/core":      true,
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

// mutexOpCall is the suite's one Lock/Unlock recognizer: it classifies
// call as a Lock/RLock/Unlock/RUnlock on a sync.Mutex or sync.RWMutex,
// returning the receiver expression and "lock", "unlock", or "".
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

// copyHeld and intersectHeld are the held-set state of solveFlow for
// lockedsend and lockorder: a set maps a lock to the position that
// acquired it, and the join keeps a lock only where every incoming path
// holds it (must-held), reporting whether dst lost one.
func copyHeld(m map[string]token.Pos) map[string]token.Pos {
	out := make(map[string]token.Pos, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func intersectHeld(dst, src map[string]token.Pos) (map[string]token.Pos, bool) {
	out := make(map[string]token.Pos, len(dst))
	for k, v := range dst {
		if _, ok := src[k]; ok {
			out[k] = v
		}
	}
	return out, len(out) != len(dst)
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
		switch s := n.(type) {
		case *ast.RangeStmt:
			n = s.X // the body lives in its own blocks
		case *ast.SelectStmt:
			return // the comms and arms live in their own blocks
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

	if !solveFlow(pf.decl.Body, map[string]token.Pos{}, copyHeld, intersectHeld, step) {
		scanOnly()
		return acq, nil
	}
	return acq, edges
}

// findCycles marks every edge inside a strongly connected component of
// the identity graph (including self-loops) as a potential deadlock.
func (g *lockGraph) findCycles() {
	adj := make(map[string][]string)
	var ids []string
	for _, e := range g.edges {
		adj[e.from] = append(adj[e.from], e.to)
		ids = append(ids, e.from)
	}
	comps := sccs(ids, func(id string) []string { return adj[id] })
	compOf := make(map[string]int)
	for i, comp := range comps {
		for _, id := range comp {
			compOf[id] = i
		}
	}
	for _, e := range g.edges {
		if c := compOf[e.from]; e.from == e.to || (c == compOf[e.to] && len(comps[c]) > 1) {
			g.cycleEdges = append(g.cycleEdges, e)
		}
	}
}

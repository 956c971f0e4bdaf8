// waitmisuse flags the three sync.WaitGroup disciplines this codebase's
// goroutine-join idiom (wg.Add(1); go ...; defer wg.Done(); owner
// Close→Wait) depends on:
//
//  1. Add inside the spawned goroutine — `go func() { wg.Add(1); ... }`
//     races with Wait: the owner can observe the counter at zero and
//     return before the goroutine has registered itself, so the join
//     silently stops joining. Add must happen before the launch, in the
//     spawning goroutine. The hierarchical idiom is exempt: when the spawning
//     scope itself did a wg.Add on the same WaitGroup before the go
//     statement, the spawned goroutine holds a counter unit for its
//     whole lifetime, so the counter cannot be zero while it registers
//     children (pubsub's accept loop adds each serveConn this way).
//  2. Done as a plain statement instead of a defer — a panic, or an
//     early return added later, between the work and the Done leaves
//     Wait blocked forever.
//  3. Wait while holding a sync.Mutex/RWMutex — the waited-on
//     goroutines almost always need that same lock to finish (every
//     server in this repo takes the state lock in its serve loop), which
//     is a deadlock, and one that only fires under shutdown-vs-traffic
//     races. Mutex tracking follows lockedsend's conservative model:
//     intra-procedural, function literals start with an empty lock set,
//     branch effects merge by intersection.

package analysis

import (
	"go/ast"
	"go/token"
)

// WaitMisuse reports WaitGroup Add/Done/Wait placement bugs.
var WaitMisuse = &Analyzer{
	Name: "waitmisuse",
	Doc:  "sync.WaitGroup misuse: Add inside the spawned goroutine, non-deferred Done, or Wait under a mutex",
	Run:  runWaitMisuse,
}

func runWaitMisuse(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					if wgMethodCall(pass, call) == "Done" {
						pass.Reportf(call.Pos(), "WaitGroup.Done as a plain statement: a panic or early return before it leaves Wait blocked forever; use `defer %s.Done()` at the top of the goroutine", wgRecv(call))
					}
				}
			case *ast.FuncDecl:
				if n.Body != nil {
					(&waitLockWalker{pass: pass, held: make(map[string]token.Pos)}).walkStmts(n.Body.List)
				}
			case *ast.FuncLit:
				(&waitLockWalker{pass: pass, held: make(map[string]token.Pos)}).walkStmts(n.Body.List)
			}
			return true
		})
		// The Add-inside-goroutine check needs each go statement's
		// enclosing body, to recognize the hierarchical exemption.
		var walkBody func(body *ast.BlockStmt)
		walkBody = func(body *ast.BlockStmt) {
			if body == nil {
				return
			}
			ast.Inspect(body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncLit:
					walkBody(n.Body)
					return false
				case *ast.GoStmt:
					if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
						reportAddInsideGoroutine(pass, body, n, lit.Body)
					}
				}
				return true
			})
		}
		for _, d := range file.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok {
				walkBody(fn.Body)
			}
		}
	}
}

// reportAddInsideGoroutine flags WaitGroup.Add calls in a spawned
// function-literal body, unless the spawning scope performed an Add on
// the same WaitGroup before the go statement (the goroutine then holds
// a counter unit, so its own Adds cannot race a zero-counter Wait).
func reportAddInsideGoroutine(pass *Pass, enclosing *ast.BlockStmt, g *ast.GoStmt, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if wgMethodCall(pass, call) != "Add" {
			return true
		}
		if addBeforeOnSameGroup(pass, enclosing, g, wgRecv(call)) {
			return true
		}
		pass.Reportf(call.Pos(), "WaitGroup.Add inside the spawned goroutine races with Wait (the owner can see the counter at zero before this runs); call %s.Add before the go statement", wgRecv(call))
		return true
	})
}

// addBeforeOnSameGroup reports whether an Add on the WaitGroup named by
// recv occurs in enclosing before the go statement.
func addBeforeOnSameGroup(pass *Pass, enclosing *ast.BlockStmt, g *ast.GoStmt, recv string) bool {
	found := false
	ast.Inspect(enclosing, func(n ast.Node) bool {
		if found || n == nil || n.Pos() >= g.Pos() {
			return !found
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if wgMethodCall(pass, call) == "Add" && wgRecv(call) == recv {
			found = true
		}
		return !found
	})
	return found
}

// wgMethodCall returns the method name if call is a sync.WaitGroup
// method call, else "".
func wgMethodCall(pass *Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if !methodOnType(pass.Info.Uses[sel.Sel], "sync", "WaitGroup") {
		return ""
	}
	return sel.Sel.Name
}

// wgRecv renders the WaitGroup receiver expression for diagnostics.
func wgRecv(call *ast.CallExpr) string {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		return exprString(sel.X)
	}
	return "wg"
}

// waitLockWalker tracks held mutexes through one function body and
// reports WaitGroup.Wait calls made under a lock. It is a reduced
// lockWalker: same branch-merge rules, but the only "blocking
// operation" it looks for is Wait.
type waitLockWalker struct {
	pass *Pass
	held map[string]token.Pos
}

func (w *waitLockWalker) walkStmts(stmts []ast.Stmt) {
	for _, s := range stmts {
		w.walkStmt(s)
	}
}

func (w *waitLockWalker) walkStmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if name, op := w.mutexOp(call); op != "" {
				if op == "lock" {
					w.held[name] = call.Pos()
				} else {
					delete(w.held, name)
				}
				return
			}
			w.checkCall(call)
		}
	case *ast.DeferStmt:
		// A deferred unlock keeps the mutex held for the walk's purposes —
		// a Wait later in the function still runs under the lock.
		if _, op := w.mutexOp(s.Call); op != "" {
			return
		}
	case *ast.LabeledStmt:
		w.walkStmt(s.Stmt)
	case *ast.BlockStmt:
		w.walkStmts(s.List)
	case *ast.IfStmt:
		if s.Init != nil {
			w.walkStmt(s.Init)
		}
		bodyHeld, bodyTerm := w.walkBranch(s.Body.List)
		elseHeld, elseTerm := w.held, false
		if s.Else != nil {
			switch e := s.Else.(type) {
			case *ast.BlockStmt:
				elseHeld, elseTerm = w.walkBranch(e.List)
			case *ast.IfStmt:
				elseHeld, elseTerm = w.walkBranch([]ast.Stmt{e})
			}
		}
		w.held = mergeBranches(w.held, bodyHeld, bodyTerm, elseHeld, elseTerm)
	case *ast.ForStmt:
		if s.Init != nil {
			w.walkStmt(s.Init)
		}
		w.walkStmts(s.Body.List)
	case *ast.RangeStmt:
		w.walkStmts(s.Body.List)
	case *ast.SwitchStmt:
		w.walkClauseBodies(s.Body)
	case *ast.TypeSwitchStmt:
		w.walkClauseBodies(s.Body)
	case *ast.SelectStmt:
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok {
				held, term := w.walkBranch(cc.Body)
				if !term {
					w.held = intersectHeld(w.held, held)
				}
			}
		}
	}
}

func (w *waitLockWalker) walkClauseBodies(body *ast.BlockStmt) {
	for _, clause := range body.List {
		if cc, ok := clause.(*ast.CaseClause); ok {
			held, term := w.walkBranch(cc.Body)
			if !term {
				w.held = intersectHeld(w.held, held)
			}
		}
	}
}

func (w *waitLockWalker) walkBranch(stmts []ast.Stmt) (map[string]token.Pos, bool) {
	saved := w.held
	w.held = copyHeld(saved)
	w.walkStmts(stmts)
	result := w.held
	w.held = saved
	return result, terminates(stmts)
}

func (w *waitLockWalker) checkCall(call *ast.CallExpr) {
	if len(w.held) == 0 {
		return
	}
	if wgMethodCall(w.pass, call) != "Wait" {
		return
	}
	var mu string
	for k := range w.held {
		mu = k
		break
	}
	w.pass.Reportf(call.Pos(), "WaitGroup.Wait on %s while holding %s: the waited goroutines need that lock to finish, so this deadlocks under shutdown-vs-traffic races; unlock before waiting", wgRecv(call), mu)
}

// mutexOp classifies call as a lock/unlock on a sync mutex (same rules
// as lockedsend).
func (w *waitLockWalker) mutexOp(call *ast.CallExpr) (string, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	var op string
	switch sel.Sel.Name {
	case "Lock", "RLock":
		op = "lock"
	case "Unlock", "RUnlock":
		op = "unlock"
	default:
		return "", ""
	}
	obj := w.pass.Info.Uses[sel.Sel]
	if !methodOnType(obj, "sync", "Mutex") && !methodOnType(obj, "sync", "RWMutex") {
		return "", ""
	}
	return exprString(sel.X), op
}

// lockedsend flags blocking operations reachable while a sync.Mutex or
// sync.RWMutex is held: blocking channel sends and receives, selects
// without a default case, time/clock sleeps, and direct net.Conn
// reads/writes (a net.Buffers.WriteTo gathered write included). This is the PR-1 pubsub bug class — Broker.Publish once
// performed channel sends while holding b.mu, able to stall every
// publisher and subscriber behind one slow consumer.
//
// The walk is intra-procedural and intentionally conservative about
// false positives: non-blocking select operations (any select with a
// default case) are exempt, function literals are analyzed as separate
// functions with an empty lock set, and branch effects merge by
// intersection so an unlock on any fall-through path clears the state.
// Sends that are provably safe (e.g. into a freshly made buffered
// channel) should carry a //lint:ignore lockedsend comment explaining
// the capacity argument.

package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockedSend reports blocking operations performed under a mutex.
var LockedSend = &Analyzer{
	Name: "lockedsend",
	Doc:  "blocking channel/conn/sleep operation while holding a sync.Mutex or sync.RWMutex",
	Run:  runLockedSend,
}

func runLockedSend(pass *Pass) {
	var connIface *types.Interface
	if netPkg := pass.Dep("net"); netPkg != nil {
		if obj, ok := netPkg.Scope().Lookup("Conn").(*types.TypeName); ok {
			connIface, _ = obj.Type().Underlying().(*types.Interface)
		}
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body != nil {
				w := &lockWalker{pass: pass, conn: connIface, held: make(map[string]token.Pos)}
				w.walkStmts(body.List)
			}
			return true
		})
	}
}

type lockWalker struct {
	pass *Pass
	conn *types.Interface
	// held maps a mutex's receiver expression (e.g. "b.mu") to the
	// position of the Lock call that acquired it.
	held map[string]token.Pos
}

func (w *lockWalker) anyHeld() (string, bool) {
	for k := range w.held {
		return k, true
	}
	return "", false
}

func (w *lockWalker) walkStmts(stmts []ast.Stmt) {
	for _, s := range stmts {
		w.walkStmt(s)
	}
}

func (w *lockWalker) walkStmt(s ast.Stmt) {
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
		}
		w.checkExpr(s.X)
	case *ast.DeferStmt:
		// A deferred unlock keeps the mutex held for the rest of the
		// function, which is exactly the state we track; only the call's
		// arguments evaluate now.
		if _, op := w.mutexOp(s.Call); op != "" {
			return
		}
		for _, arg := range s.Call.Args {
			w.checkExpr(arg)
		}
	case *ast.GoStmt:
		for _, arg := range s.Call.Args {
			w.checkExpr(arg)
		}
	case *ast.SendStmt:
		if mu, ok := w.anyHeld(); ok {
			w.pass.Reportf(s.Pos(), "blocking channel send on %s while holding %s (the PR-1 pubsub bug class); move the send outside the critical section or use a select with default", exprString(s.Chan), mu)
		}
		w.checkExpr(s.Chan)
		w.checkExpr(s.Value)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.checkExpr(e)
		}
		for _, e := range s.Lhs {
			w.checkExpr(e)
		}
	case *ast.DeclStmt:
		ast.Inspect(s, func(n ast.Node) bool { return w.inspectExprNode(n) })
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.checkExpr(e)
		}
	case *ast.IncDecStmt:
		w.checkExpr(s.X)
	case *ast.LabeledStmt:
		w.walkStmt(s.Stmt)
	case *ast.BlockStmt:
		w.walkStmts(s.List)
	case *ast.IfStmt:
		if s.Init != nil {
			w.walkStmt(s.Init)
		}
		w.checkExpr(s.Cond)
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
		if s.Cond != nil {
			w.checkExpr(s.Cond)
		}
		w.walkStmts(s.Body.List)
		if s.Post != nil {
			w.walkStmt(s.Post)
		}
	case *ast.RangeStmt:
		w.checkExpr(s.X)
		w.walkStmts(s.Body.List)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init)
		}
		if s.Tag != nil {
			w.checkExpr(s.Tag)
		}
		w.walkCaseBodies(s.Body)
	case *ast.TypeSwitchStmt:
		w.walkCaseBodies(s.Body)
	case *ast.SelectStmt:
		hasDefault := false
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if mu, ok := w.anyHeld(); ok && !hasDefault {
			w.pass.Reportf(s.Pos(), "blocking select (no default case) while holding %s; release the lock first or add a default", mu)
		}
		for _, clause := range s.Body.List {
			cc, ok := clause.(*ast.CommClause)
			if !ok {
				continue
			}
			// The comm operations themselves are non-blocking when a
			// default exists, and already covered by the select-level
			// report when it does not — either way only the bodies need
			// walking.
			held, term := w.walkBranch(cc.Body)
			if !term {
				w.held = intersectHeld(w.held, held)
			}
		}
	}
}

func (w *lockWalker) walkCaseBodies(body *ast.BlockStmt) {
	for _, clause := range body.List {
		if cc, ok := clause.(*ast.CaseClause); ok {
			for _, e := range cc.List {
				w.checkExpr(e)
			}
			held, term := w.walkBranch(cc.Body)
			if !term {
				w.held = intersectHeld(w.held, held)
			}
		}
	}
}

// walkBranch runs stmts against a copy of the lock set, returning the
// copy and whether the branch cannot fall through.
func (w *lockWalker) walkBranch(stmts []ast.Stmt) (map[string]token.Pos, bool) {
	saved := w.held
	w.held = copyHeld(saved)
	w.walkStmts(stmts)
	result := w.held
	w.held = saved
	return result, terminates(stmts)
}

// mergeBranches combines the lock sets of an if/else: a terminating
// branch contributes nothing; otherwise a mutex survives only if every
// fall-through path still holds it.
func mergeBranches(orig, a map[string]token.Pos, aTerm bool, b map[string]token.Pos, bTerm bool) map[string]token.Pos {
	switch {
	case aTerm && bTerm:
		return orig
	case aTerm:
		return b
	case bTerm:
		return a
	default:
		return intersectHeld(a, b)
	}
}

func copyHeld(m map[string]token.Pos) map[string]token.Pos {
	out := make(map[string]token.Pos, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func intersectHeld(a, b map[string]token.Pos) map[string]token.Pos {
	out := make(map[string]token.Pos)
	for k, v := range a {
		if _, ok := b[k]; ok {
			out[k] = v
		}
	}
	return out
}

// mutexOp classifies call as a lock/unlock on a sync mutex, returning
// the receiver key and "lock", "unlock", or "".
func (w *lockWalker) mutexOp(call *ast.CallExpr) (string, string) {
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

// isConn reports whether e's static type implements net.Conn.
func (w *lockWalker) isConn(e ast.Expr) bool {
	tv, ok := w.pass.Info.Types[e]
	return ok && tv.Type != nil && types.Implements(tv.Type, w.conn)
}

// checkExpr reports blocking operations inside an expression evaluated
// under the current lock set.
func (w *lockWalker) checkExpr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool { return w.inspectExprNode(n) })
}

// inspectExprNode is the shared ast.Inspect callback for expression
// contexts; it returns false to skip nested function literals.
func (w *lockWalker) inspectExprNode(n ast.Node) bool {
	if _, ok := n.(*ast.FuncLit); ok {
		return false // analyzed separately, with an empty lock set
	}
	mu, heldNow := w.anyHeld()
	if !heldNow {
		return true
	}
	switch n := n.(type) {
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			w.pass.Reportf(n.Pos(), "blocking channel receive from %s while holding %s; release the lock first", exprString(n.X), mu)
		}
	case *ast.CallExpr:
		sel, ok := n.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if sel.Sel.Name == "Sleep" {
			w.pass.Reportf(n.Pos(), "%s.Sleep while holding %s; sleeping under a lock stalls every other critical section", exprString(sel.X), mu)
			return true
		}
		if w.conn != nil && (sel.Sel.Name == "Read" || sel.Sel.Name == "Write") && w.isConn(sel.X) {
			w.pass.Reportf(n.Pos(), "net.Conn %s on %s while holding %s; network I/O under a lock couples peer latency into the critical section", sel.Sel.Name, exprString(sel.X), mu)
		}
		// net.Buffers.WriteTo(conn) is a conn write (a writev): a gathered
		// write must not hide from the rule what a plain one would show it.
		if w.conn != nil && sel.Sel.Name == "WriteTo" && len(n.Args) == 1 && w.isConn(n.Args[0]) &&
			methodOnType(w.pass.Info.Uses[sel.Sel], "net", "Buffers") {
			w.pass.Reportf(n.Pos(), "net.Conn Write on %s while holding %s; network I/O under a lock couples peer latency into the critical section", exprString(n.Args[0]), mu)
		}
	}
	return true
}

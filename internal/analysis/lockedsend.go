// lockedsend flags blocking operations reachable while a sync.Mutex or
// sync.RWMutex is held: blocking channel sends and receives, selects
// without a default case, time/clock sleeps, sync.WaitGroup.Wait, and
// direct net.Conn reads/writes (a net.Buffers.WriteTo gathered write
// included). This is the pubsub broker-stall bug class — Broker.Publish
// once performed channel sends while holding b.mu, able to stall every
// publisher and subscriber behind one slow consumer. A Wait under a lock
// is the deadlock form: the waited goroutines almost always need that
// same lock to finish (every server here takes its state lock in the
// serve loop), and it fires only under shutdown-vs-traffic races.
//
// Held sets flow through solveFlow (cfg.go) and are intra-procedural and
// conservative about false positives: joins intersect (a lock survives
// only where every incoming path holds it), function literals are
// analyzed as separate functions with an empty lock set, a deferred
// unlock keeps the lock held to the end, a select is judged at its head
// (its comm operations are non-blocking under a default and covered by
// the head's report without one), and bodies with goto are skipped.
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
	Doc:  "blocking channel/conn/sleep/WaitGroup.Wait operation while holding a sync.Mutex or sync.RWMutex",
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
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkLockedBody(pass, connIface, fn.Body)
				}
			case *ast.FuncLit:
				checkLockedBody(pass, connIface, fn.Body)
			}
			return true
		})
	}
}

// checkLockedBody flows the held set through one function body and
// reports, in the replay, every blocking operation met with a lock held.
func checkLockedBody(pass *Pass, conn *types.Interface, body *ast.BlockStmt) {
	comms := map[ast.Node]bool{}
	walkFuncBody(body, func(n ast.Node) {
		if cc, ok := n.(*ast.CommClause); ok && cc.Comm != nil {
			comms[cc.Comm] = true
		}
	})
	isConn := func(e ast.Expr) bool {
		tv, ok := pass.Info.Types[e]
		return conn != nil && ok && tv.Type != nil && types.Implements(tv.Type, conn)
	}
	step := func(n ast.Node, held map[string]token.Pos, report bool) {
		if es, ok := n.(*ast.ExprStmt); ok {
			if call, ok := es.X.(*ast.CallExpr); ok {
				if x, op := mutexOpCall(pass.Info, call); op == "lock" {
					held[exprString(x)] = call.Pos()
					return
				} else if op == "unlock" {
					delete(held, exprString(x))
					return
				}
			}
		}
		if !report || len(held) == 0 || comms[n] {
			return
		}
		mu := ""
		for k := range held {
			if mu == "" || k < mu {
				mu = k // the first in name order, so reports are stable
			}
		}
		// check reports the blocking operations an evaluation of e
		// performs; function literals run elsewhere.
		check := func(e ast.Node) {
			ast.Inspect(e, func(m ast.Node) bool {
				switch m := m.(type) {
				case *ast.FuncLit:
					return false
				case *ast.SendStmt:
					pass.Reportf(m.Pos(), "blocking channel send on %s while holding %s (the pubsub broker-stall bug class); move the send outside the critical section or use a select with default", exprString(m.Chan), mu)
				case *ast.UnaryExpr:
					if m.Op == token.ARROW {
						pass.Reportf(m.Pos(), "blocking channel receive from %s while holding %s; release the lock first", exprString(m.X), mu)
					}
				case *ast.CallExpr:
					sel, ok := m.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					switch {
					case sel.Sel.Name == "Sleep":
						pass.Reportf(m.Pos(), "%s.Sleep while holding %s; sleeping under a lock stalls every other critical section", exprString(sel.X), mu)
					case wgMethodCall(pass, m) == "Wait":
						pass.Reportf(m.Pos(), "WaitGroup.Wait on %s while holding %s: the waited goroutines need that lock to finish, so this deadlocks under shutdown-vs-traffic races; unlock before waiting", exprString(sel.X), mu)
					case (sel.Sel.Name == "Read" || sel.Sel.Name == "Write") && isConn(sel.X):
						pass.Reportf(m.Pos(), "net.Conn %s on %s while holding %s; network I/O under a lock couples peer latency into the critical section", sel.Sel.Name, exprString(sel.X), mu)
					case sel.Sel.Name == "WriteTo" && len(m.Args) == 1 && isConn(m.Args[0]) &&
						methodOnType(pass.Info.Uses[sel.Sel], "net", "Buffers"):
						// net.Buffers.WriteTo(conn) is a conn write (a writev):
						// a gathered write must not hide what a plain one shows.
						pass.Reportf(m.Pos(), "net.Conn Write on %s while holding %s; network I/O under a lock couples peer latency into the critical section", exprString(m.Args[0]), mu)
					}
				}
				return true
			})
		}
		switch s := n.(type) {
		case *ast.SelectStmt:
			for _, c := range s.Body.List {
				if c.(*ast.CommClause).Comm == nil {
					return // a default makes every comm non-blocking
				}
			}
			pass.Reportf(s.Pos(), "blocking select (no default case) while holding %s; release the lock first or add a default", mu)
		case *ast.RangeStmt:
			check(s.X) // the body lives in its own blocks
		case *ast.DeferStmt: // only the call's arguments evaluate now
			for _, arg := range s.Call.Args {
				check(arg)
			}
		case *ast.GoStmt:
			for _, arg := range s.Call.Args {
				check(arg)
			}
		default:
			check(n)
		}
	}
	solveFlow(body, map[string]token.Pos{}, copyHeld, intersectHeld, step)
}

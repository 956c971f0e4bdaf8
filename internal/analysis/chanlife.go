// chanlife enforces channel-lifecycle protocol on the delivery
// packages: who may close a channel, that close happens at most once
// along any path, that sends do not race a close, and that non-blocking
// shutdown polls cannot silently skip the only shutdown receive. The
// historical anchor is the pubsub server close path — an unguarded
// close(s.done) in Close that panicked when a defer and an error path
// both closed — plus the racy select-default close guard that made
// concurrent Close calls double-close instead of idempotent.
//
// Two layers:
//
//   - A dataflow over the CFG in cfg.go (silent fixpoint, then one
//     reporting replay) tracks, per syntactic channel key ("ch",
//     "s.done"), where the channel is definitely closed (intersection
//     joins) and possibly closed (union joins). Definite re-close and
//     sends on a possibly-closed channel are reported; reassignment
//     (close-and-replace, e.g. `close(r.wake); r.wake = make(...)`)
//     resets the key. goto bodies are skipped — silence over noise.
//   - AST pattern checks: close of a bidirectional channel parameter
//     (the closer should be the owning producer; a `chan<-` parameter
//     marks sanctioned producer-side closes), a close guarded only by a
//     non-blocking receive (TOCTOU double-close between two closers),
//     an unconditional close of a receiver field inside Close/Stop/
//     Shutdown (second call panics; sync.Once is the fix), and a
//     one-shot select whose default can skip the only receive of a
//     shutdown-named channel in the function (in-loop polls and
//     functions with another receive of the same channel are exempt).

package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// ChanLife reports channel-lifecycle protocol violations.
var ChanLife = &Analyzer{
	Name: "chanlife",
	Doc:  "channel close ownership, double-close paths, sends on closed channels, and skipped shutdown receives",
	Run:  runChanLife,
}

var chanlifeScope = map[string]bool{
	"viper/internal/transport": true,
	"viper/internal/relay":     true,
	"viper/internal/pubsub":    true,
	"viper/internal/remote":    true,
	"viper/internal/kvstore":   true,
	"viper/internal/core":      true,
	"viper/internal/coupled":   true,
	"viper/internal/vformat":   true,
}

// shutdownChanName matches channel identifiers conventionally used as
// shutdown signals.
var shutdownChanName = regexp.MustCompile(`(?i)^(done|closed?|quit|stop(ped)?|exit|shutdown|dying)$`)

// lastKeyElem returns the final component of a dotted channel key
// ("s.done" → "done"), matched against shutdownChanName.
func lastKeyElem(key string) string {
	if i := strings.LastIndexByte(key, '.'); i >= 0 {
		return key[i+1:]
	}
	return key
}

func runChanLife(pass *Pass) {
	if !chanlifeScope[pass.ImportPath] {
		return
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body == nil {
					return true
				}
				checkUnguardedCloseMethod(pass, fn)
				checkChanFunc(pass, fn.Type, fn.Body)
			case *ast.FuncLit:
				checkChanFunc(pass, fn.Type, fn.Body)
			}
			return true // nested literals analyzed independently
		})
	}
}

// checkChanFunc runs every per-function check over one body.
func checkChanFunc(pass *Pass, ftype *ast.FuncType, body *ast.BlockStmt) {
	checkParamClose(pass, ftype, body)
	checkSelectPatterns(pass, body)
	runChanFlow(pass, body)
}

// chanKey renders a channel operand as a stable tracking key: plain
// identifiers and dotted selector chains only. Indexed, computed, or
// call-derived channels have no stable identity and stay untracked.
func chanKey(e ast.Expr) (string, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name, true
	case *ast.SelectorExpr:
		if base, ok := chanKey(e.X); ok {
			return base + "." + e.Sel.Name, true
		}
	}
	return "", false
}

// closeCallKey matches `close(ch)` for a trackable ch.
func closeCallKey(info *types.Info, call *ast.CallExpr) (string, bool) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || len(call.Args) != 1 {
		return "", false
	}
	if b, ok := info.Uses[id].(*types.Builtin); !ok || b.Name() != "close" {
		return "", false
	}
	return chanKey(call.Args[0])
}

// --- flow layer: definite/possible closes over the CFG -----------------

type chanFlowState struct {
	must map[string]token.Pos // closed on every path reaching here
	may  map[string]token.Pos // closed on at least one path
}

func newChanFlowState() *chanFlowState {
	return &chanFlowState{must: map[string]token.Pos{}, may: map[string]token.Pos{}}
}

func (s *chanFlowState) clone() *chanFlowState {
	c := newChanFlowState()
	for k, v := range s.must {
		c.must[k] = v
	}
	for k, v := range s.may {
		c.may[k] = v
	}
	return c
}

// join merges o into s (must: intersection, may: union), reporting
// whether s changed.
func (s *chanFlowState) join(o *chanFlowState) (*chanFlowState, bool) {
	changed := false
	for k := range s.must {
		if _, ok := o.must[k]; !ok {
			delete(s.must, k)
			changed = true
		}
	}
	for k, v := range o.may {
		if _, ok := s.may[k]; !ok {
			s.may[k] = v
			changed = true
		}
	}
	return s, changed
}

// invalidate drops a reassigned key and everything reached through it
// ("s" invalidates "s.done"; "s.done" invalidates itself).
func (s *chanFlowState) invalidate(key string, deferClosed map[string]token.Pos) {
	for _, m := range []map[string]token.Pos{s.must, s.may, deferClosed} {
		for k := range m {
			if k == key || strings.HasPrefix(k, key+".") {
				delete(m, k)
			}
		}
	}
}

func runChanFlow(pass *Pass, body *ast.BlockStmt) {
	// deferClosed records `defer close(ch)` registrations during the
	// replay pass; close/defer-close of an already-registered key is the
	// deferred-double-close shape.
	deferClosed := map[string]token.Pos{}
	step := func(n ast.Node, st *chanFlowState, reporting bool) {
		switch n := n.(type) {
		case *ast.DeferStmt:
			key, ok := closeCallKey(pass.Info, n.Call)
			if !ok || !reporting {
				return
			}
			if prior, dup := deferClosed[key]; dup {
				pass.Reportf(n.Pos(), "%s has two deferred closes (first at line %d): the second to run panics", key, pass.Fset.Position(prior).Line)
			} else if prior, closed := st.must[key]; closed {
				pass.Reportf(n.Pos(), "deferred close of %s, but it is already closed at line %d on this path: the deferred close panics", key, pass.Fset.Position(prior).Line)
			}
			deferClosed[key] = n.Pos()
		case *ast.GoStmt, *ast.RangeStmt:
			// A goroutine's closes land on another timeline; a range head
			// neither closes nor sends.
		case *ast.AssignStmt:
			for _, lh := range n.Lhs {
				if key, ok := chanKey(lh); ok {
					st.invalidate(key, deferClosed)
				}
			}
		case *ast.SendStmt:
			if key, ok := chanKey(n.Chan); ok && reporting {
				if pos, closed := st.must[key]; closed {
					pass.Reportf(n.Pos(), "send on %s, which is already closed on this path (closed at line %d): send on a closed channel panics", key, pass.Fset.Position(pos).Line)
				} else if pos, maybe := st.may[key]; maybe {
					pass.Reportf(n.Pos(), "send on %s, which may already be closed (close at line %d reaches this send on some path): send on a closed channel panics", key, pass.Fset.Position(pos).Line)
				}
			}
		case *ast.ExprStmt:
			call, ok := ast.Unparen(n.X).(*ast.CallExpr)
			if !ok {
				return
			}
			key, ok := closeCallKey(pass.Info, call)
			if !ok {
				return
			}
			if prior, ok := st.must[key]; ok && reporting {
				pass.Reportf(call.Pos(), "%s is closed twice on this path (already closed at line %d): the second close panics", key, pass.Fset.Position(prior).Line)
			} else if prior, ok := deferClosed[key]; ok && reporting {
				pass.Reportf(call.Pos(), "%s is closed here and again by the deferred close at line %d: the deferred close panics at return", key, pass.Fset.Position(prior).Line)
			}
			st.must[key] = call.Pos()
			st.may[key] = call.Pos()
		case *ast.DeclStmt:
			if gd, ok := n.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for _, name := range vs.Names {
							st.invalidate(name.Name, deferClosed)
						}
					}
				}
			}
		}
	}

	solveFlow(body, newChanFlowState(), (*chanFlowState).clone, (*chanFlowState).join, step)
}

// --- AST pattern checks ------------------------------------------------

// checkParamClose reports closes of bidirectional channel parameters:
// the function did not make the channel, so it does not own its close.
// Send-only (chan<-) parameters are the sanctioned producer-side close.
func checkParamClose(pass *Pass, ftype *ast.FuncType, body *ast.BlockStmt) {
	if ftype.Params == nil {
		return
	}
	params := map[*types.Var]bool{}
	for _, field := range ftype.Params.List {
		for _, name := range field.Names {
			v, ok := pass.Info.Defs[name].(*types.Var)
			if !ok || v.Type() == nil {
				continue
			}
			if ch, ok := v.Type().Underlying().(*types.Chan); ok && ch.Dir() == types.SendRecv {
				params[v] = true
			}
		}
	}
	if len(params) == 0 {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if _, isClose := closeCallKey(pass.Info, call); !isClose {
			return true
		}
		if v := identVar(pass.Info, call.Args[0]); v != nil && params[v] {
			pass.Reportf(call.Pos(), "closes parameter channel %s it does not own: closing is the maker's (or producer's) job — take a chan<- parameter if this function is the sanctioned closer", v.Name())
		}
		return true
	})
}

// checkSelectPatterns reports the two select-shaped hazards: a close
// guarded only by a non-blocking receive, and a one-shot default that
// can skip the function's only shutdown receive.
func checkSelectPatterns(pass *Pass, body *ast.BlockStmt) {
	var walk func(n ast.Node, inLoop bool)
	walk = func(n ast.Node, inLoop bool) {
		switch n := n.(type) {
		case nil:
			return
		case *ast.FuncLit:
			return // analyzed as its own function
		case *ast.ForStmt:
			walkChildren(n.Body, walk, true)
			walk(n.Init, inLoop)
			walk(n.Post, inLoop)
			return
		case *ast.RangeStmt:
			walkChildren(n.Body, walk, true)
			return
		case *ast.SelectStmt:
			checkSelect(pass, n, body, inLoop)
		}
		walkChildren(n, walk, inLoop)
	}
	walkChildren(body, walk, false)
}

// walkChildren applies walk to each direct child of n, threading inLoop.
func walkChildren(n ast.Node, walk func(ast.Node, bool), inLoop bool) {
	if n == nil {
		return
	}
	first := true
	ast.Inspect(n, func(m ast.Node) bool {
		if first {
			first = false
			return true
		}
		if m != nil {
			walk(m, inLoop)
		}
		return false
	})
}

func checkSelect(pass *Pass, sel *ast.SelectStmt, fnBody *ast.BlockStmt, inLoop bool) {
	var defaultClause *ast.CommClause
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			defaultClause = cc
		}
	}
	if defaultClause == nil {
		return
	}
	// Racy close guard: `select { case <-ch: ... default: close(ch) }`.
	// Between the failed receive and the close, another goroutine running
	// the same guard can close first — both then panic or double-close.
	received := map[string]bool{}
	for _, c := range sel.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok || cc.Comm == nil {
			continue
		}
		if key, ok := commRecvKey(cc.Comm); ok {
			received[key] = true
		}
	}
	ast.Inspect(defaultClause, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if key, ok := closeCallKey(pass.Info, call); ok && received[key] {
			pass.Reportf(call.Pos(), "close(%s) guarded only by a non-blocking receive: two goroutines can both take the default and double-close (TOCTOU); make the close idempotent with sync.Once", key)
		}
		return true
	})
	// One-shot shutdown skip: outside a loop, a default case that
	// bypasses the only receive of a shutdown-named channel means the
	// shutdown signal is never observed once the default is taken.
	if inLoop {
		return
	}
	for _, c := range sel.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok || cc.Comm == nil {
			continue
		}
		key, ok := commRecvKey(cc.Comm)
		if !ok || !shutdownChanName.MatchString(lastKeyElem(key)) {
			continue
		}
		if countRecvs(fnBody, key) <= 1 {
			pass.Reportf(cc.Pos(), "the default case can skip this receive of %s — the only one in this function: once the default is taken the shutdown signal is never observed; use a blocking receive or re-check in a loop", key)
		}
	}
}

// commRecvKey extracts the received-from channel key of a select comm
// statement (`case <-ch:`, `case v := <-ch:`, `case v, ok := <-ch:`).
func commRecvKey(comm ast.Stmt) (string, bool) {
	var x ast.Expr
	switch s := comm.(type) {
	case *ast.ExprStmt:
		x = s.X
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			x = s.Rhs[0]
		}
	}
	if u, ok := ast.Unparen(x).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
		return chanKey(u.X)
	}
	return "", false
}

// countRecvs counts receive expressions (and channel ranges) of key
// anywhere in the function, nested literals included — a receive on any
// activation still observes the signal.
func countRecvs(body *ast.BlockStmt, key string) int {
	count := 0
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				if k, ok := chanKey(n.X); ok && k == key {
					count++
				}
			}
		case *ast.RangeStmt:
			if k, ok := chanKey(n.X); ok && k == key {
				count++
			}
		}
		return true
	})
	return count
}

// checkUnguardedCloseMethod reports the pubsub-server historical bug
// shape: a Close/Stop/Shutdown method that unconditionally closes a
// receiver field channel, so a second call panics. Closes wrapped in
// sync.Once.Do, behind any conditional, or in a select guard are the
// caller's chosen idempotence strategy and left alone (the racy select
// guard has its own check above).
func checkUnguardedCloseMethod(pass *Pass, fn *ast.FuncDecl) {
	if fn.Recv == nil {
		return
	}
	switch fn.Name.Name {
	case "Close", "Stop", "Shutdown":
	default:
		return
	}
	var straightLine func(stmts []ast.Stmt)
	straightLine = func(stmts []ast.Stmt) {
		for _, s := range stmts {
			switch s := s.(type) {
			case *ast.BlockStmt:
				straightLine(s.List)
			case *ast.ExprStmt:
				call, ok := ast.Unparen(s.X).(*ast.CallExpr)
				if !ok {
					continue
				}
				key, ok := closeCallKey(pass.Info, call)
				if !ok || !strings.Contains(key, ".") {
					continue // only receiver/field channels carry cross-call state
				}
				if sel, ok := ast.Unparen(call.Args[0]).(*ast.SelectorExpr); ok {
					if fld, ok := pass.Info.Uses[sel.Sel].(*types.Var); ok && fld.IsField() {
						pass.Reportf(call.Pos(), "%s unconditionally closes %s: a second %s call panics on the double close; make it idempotent with sync.Once (the pubsub server Close bug class)", fn.Name.Name, key, fn.Name.Name)
					}
				}
			}
		}
	}
	straightLine(fn.Body.List)
}

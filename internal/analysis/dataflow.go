// Path-sensitive ownership dataflow over the CFG in cfg.go. The engine
// is shared by poolown and pairbalance: each hands it a table of
// acquire/release call patterns (an ownRule) and the engine tracks, per
// local variable and per path, whether the protocol obligation the
// acquire created has been discharged.
//
// The lattice, smallest to largest:
//
//	none          — no obligation (never acquired on this path)
//	held          — acquired; release still owed
//	heldDeferred  — acquired; a deferred release is pending at exit
//	released      — released; further use or release is a bug
//	escaped       — ownership left this function (call arg, return,
//	                store, closure capture, channel send, &x); silence
//	maybe         — conflicting paths; silence
//
// Joins prefer silence: escaped absorbs everything, none⊔held = held
// (so a leak on *some* path still reports), any other disagreement goes
// to maybe. Acquires of the form `v, err := f(...)` record an err/ok
// refinement so the failure edge (`err != nil`, `!ok`) restores the
// pre-acquire state — the acquire never happened on that path. The
// engine runs the fixpoint silently, then replays each block once on the
// stable in-states to report. Functions using goto, or whose fixpoint
// exceeds the iteration cap, are skipped entirely: false negatives over
// false positives, like the rest of the suite.

package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

type ownState uint8

const (
	stNone ownState = iota
	stHeld
	stHeldDeferred
	stReleased
	stEscaped
	stMaybe
)

// tokenSource says where in a matched call the tracked object lives.
type tokenSource uint8

const (
	tokenResult tokenSource = iota // first result of the call
	tokenArg                       // first argument
	tokenRecv                      // method receiver
)

// callPattern names one function or method in an ownership table.
// typeName == "" means a package-level function.
type callPattern struct {
	pkgPath  string
	typeName string
	funcName string
	token    tokenSource
}

// ownRule is one acquire/release protocol.
type ownRule struct {
	// key is the rule's short identifier ("blob", "encoder",
	// "storewriter").
	key string
	// acquires yield the token as their first result (tokenResult);
	// releases take it as first argument or receiver.
	acquires []callPattern
	releases []callPattern
	// scope restricts the rule to these import paths; nil means every
	// package the analyzer visits.
	scope map[string]bool
	// handleToken marks rules whose token is a long-lived handle (a
	// chunk encoder, a store write handle): method calls on the token are
	// ordinary uses, not ownership transfers. Value tokens (a pooled
	// blob) escape when they reach any untabled call.
	handleToken bool

	// Diagnostic templates; each receives the variable name.
	leakMsg, doubleMsg, useAfterMsg string
	// rebindMsg, when non-empty, enables the defer-capture check:
	// reassigning a variable whose release is pending via a direct
	// `defer release(v)` (argument already evaluated) is reported.
	rebindMsg string
}

func (r *ownRule) inScope(importPath string) bool {
	return r.scope == nil || r.scope[importPath]
}

// matchCall resolves call's callee and matches it against p.
func matchCall(info *types.Info, call *ast.CallExpr, p callPattern) bool {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Name() != p.funcName {
		return false
	}
	if p.typeName == "" {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			return false
		}
		return fn.Pkg() != nil && fn.Pkg().Path() == p.pkgPath
	}
	return methodOnType(fn, p.pkgPath, p.typeName)
}

// calleeFunc resolves the called *types.Func, or nil for indirect calls,
// conversions, and builtins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[f]
	case *ast.SelectorExpr:
		obj = info.Uses[f.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// callToken extracts the tracked variable for a matched pattern, or nil
// when the token position is not a plain identifier (selector receivers
// like c.link are deliberately untracked — silence).
func callToken(info *types.Info, call *ast.CallExpr, p callPattern) *types.Var {
	switch p.token {
	case tokenArg:
		if len(call.Args) == 0 {
			return nil
		}
		return identVar(info, call.Args[0])
	case tokenRecv:
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return nil
		}
		return identVar(info, sel.X)
	}
	return nil // tokenResult tokens come from the enclosing assignment
}

func identVar(info *types.Info, e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	v, _ := info.Uses[id].(*types.Var)
	if v == nil {
		v, _ = info.Defs[id].(*types.Var)
	}
	return v
}

// refineInfo remembers that refining on the keyed err/ok variable's
// failure edge must restore token to prior.
type refineInfo struct {
	token  *types.Var
	prior  ownState
	okForm bool
}

type flowState struct {
	vals    map[*types.Var]ownState
	refines map[*types.Var]refineInfo
	// deferVal marks heldDeferred tokens whose pending release came
	// from a direct `defer release(v)` call: Go evaluated the argument
	// at the defer statement, so the release is bound to the value v
	// held *then*. Reassigning such a variable is the defer-capture
	// hazard — the deferred call frees the old value while the new one
	// leaks (or, when the rebinding call already recycled the old one,
	// the same buffer is released twice). Closure-form defers
	// (`defer func() { release(v) }()`) read v at exit and do not set
	// this flag.
	deferVal map[*types.Var]bool
}

func newFlowState() *flowState {
	return &flowState{vals: map[*types.Var]ownState{}, refines: map[*types.Var]refineInfo{}}
}

func (s *flowState) clone() *flowState {
	c := newFlowState()
	for k, v := range s.vals {
		c.vals[k] = v
	}
	for k, v := range s.refines {
		c.refines[k] = v
	}
	for k := range s.deferVal {
		c.setDeferVal(k)
	}
	return c
}

func (s *flowState) setDeferVal(v *types.Var) {
	if s.deferVal == nil {
		s.deferVal = map[*types.Var]bool{}
	}
	s.deferVal[v] = true
}

func (s *flowState) get(v *types.Var) ownState { return s.vals[v] }

func (s *flowState) equal(o *flowState) bool {
	if len(s.vals) != len(o.vals) || len(s.refines) != len(o.refines) || len(s.deferVal) != len(o.deferVal) {
		return false
	}
	for k := range s.deferVal {
		if !o.deferVal[k] {
			return false
		}
	}
	for k, v := range s.vals {
		if ov, ok := o.vals[k]; !ok || ov != v {
			return false
		}
	}
	for k, v := range s.refines {
		if ov, ok := o.refines[k]; !ok || ov != v {
			return false
		}
	}
	return true
}

func joinOwn(a, b ownState) ownState {
	if a == b {
		return a
	}
	if a == stEscaped || b == stEscaped {
		return stEscaped
	}
	if a == stMaybe || b == stMaybe {
		return stMaybe
	}
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	switch {
	case lo == stNone && hi == stHeld:
		return stHeld
	case lo == stNone && hi == stHeldDeferred:
		return stHeldDeferred
	case lo == stHeld && hi == stHeldDeferred:
		return stHeldDeferred
	}
	return stMaybe
}

// join merges o into s in place and reports whether s changed.
func (s *flowState) join(o *flowState) bool {
	changed := false
	for k, ov := range o.vals {
		nv := joinOwn(s.vals[k], ov)
		if nv != s.vals[k] {
			s.vals[k] = nv
			changed = true
		}
	}
	// Refinements survive a join only where both sides agree.
	for k, v := range s.refines {
		if ov, ok := o.refines[k]; !ok || ov != v {
			delete(s.refines, k)
			changed = true
		}
	}
	// A by-value deferred release on either path makes reassignment a
	// hazard, so the flag joins as a union.
	for k := range o.deferVal {
		if !s.deferVal[k] {
			s.setDeferVal(k)
			changed = true
		}
	}
	return changed
}

// ownEngine runs one rule over one function body.
type ownEngine struct {
	pass    *Pass
	rule    *ownRule
	tracked map[*types.Var]bool
	// sums are the per-function ownership summaries (DESIGN §7c) the
	// engine consults at call sites so a tracked token survives helper
	// calls; nil disables the inter-procedural layer.
	sums map[*types.Func]*ownSummary
	// inf, when non-nil, switches the engine into summary-inference
	// mode: reporting stays off and parameter states are recorded at
	// every exit instead.
	inf       *ownInference
	reporting bool
	recording bool
	funcEnd   token.Pos
	// exempt marks parameters whose own-function summary effect is
	// effAcquires: held-at-every-exit is the helper's contract (the
	// caller inherits the obligation), not a leak. Params that release
	// on some paths but not others stay reportable.
	exempt map[*types.Var]bool
}

// runOwnership applies every in-scope rule to every function (and every
// function literal, analyzed independently) in the package.
func runOwnership(pass *Pass, rules []*ownRule) {
	var active []*ownRule
	for _, r := range rules {
		if r.inScope(pass.ImportPath) {
			active = append(active, r)
		}
	}
	if len(active) == 0 {
		return
	}
	sums := make(map[*ownRule]map[*types.Func]*ownSummary, len(active))
	if pass.Prog != nil {
		for _, r := range active {
			sums[r] = pass.Prog.ownSummariesFor(r)
		}
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			var scope ast.Node
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body, scope = fn.Body, fn
			case *ast.FuncLit:
				body, scope = fn.Body, fn
			default:
				return true
			}
			if body == nil {
				return true
			}
			for _, r := range active {
				analyzeOwnership(pass, r, scope, body, sums[r])
			}
			return true // descend: nested FuncLits get their own pass
		})
	}
}

// analyzeOwnership runs one rule over one function body with reporting.
func analyzeOwnership(pass *Pass, rule *ownRule, scope ast.Node, body *ast.BlockStmt, sums map[*types.Func]*ownSummary) {
	e := &ownEngine{pass: pass, rule: rule, sums: sums, funcEnd: body.Rbrace}
	e.tracked = e.collectTracked(scope, body)
	if len(e.tracked) == 0 {
		return
	}
	e.exempt = acquireContractParams(pass, scope, sums)
	e.reporting = true
	e.runFlow(body)
}

// runFlow builds the CFG, runs the fixpoint silently, then replays each
// block once on the stable in-states with the engine's reporting (or
// inference recording) active. Returns false when the body cannot be
// analyzed (goto, non-converging fixpoint).
func (e *ownEngine) runFlow(body *ast.BlockStmt) bool {
	reporting := e.reporting
	e.reporting = false
	g := buildCFG(body)
	if g.unsupported {
		return false
	}
	in := make([]*flowState, len(g.blocks))
	in[g.entry.index] = newFlowState()
	work := []*cfgBlock{g.entry}
	iters, cap := 0, (len(g.blocks)+4)*32
	for len(work) > 0 {
		if iters++; iters > cap {
			return false // abandon: no reports from a non-converged analysis
		}
		blk := work[len(work)-1]
		work = work[:len(work)-1]
		st := in[blk.index].clone()
		for _, n := range blk.nodes {
			e.transfer(n, st)
		}
		for _, edge := range blk.succs {
			next := st.clone()
			e.refineEdge(next, edge)
			if in[edge.to.index] == nil {
				in[edge.to.index] = next
				work = append(work, edge.to)
			} else if in[edge.to.index].join(next) {
				work = append(work, edge.to)
			}
		}
	}
	// Replay once on the stable in-states with reporting/recording on.
	e.reporting = reporting
	e.recording = e.inf != nil
	for _, blk := range g.blocks {
		if in[blk.index] == nil {
			continue // unreachable
		}
		st := in[blk.index].clone()
		for _, n := range blk.nodes {
			e.transfer(n, st)
		}
		e.blockExitCheck(blk, st)
	}
	return true
}

// collectTracked finds every variable that appears in a token position
// of this rule's acquire or release table, declared within this
// function (outer captures are not tracked: a literal releasing its
// enclosing function's resource is the outer function's business).
func (e *ownEngine) collectTracked(scope ast.Node, body *ast.BlockStmt) map[*types.Var]bool {
	tracked := map[*types.Var]bool{}
	consider := func(v *types.Var) {
		if v != nil && v.Pos() >= scope.Pos() && v.Pos() <= scope.End() {
			tracked[v] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, p := range e.rule.acquires {
			if !matchCall(e.pass.Info, call, p) {
				continue
			}
			consider(assignedVar(e.pass.Info, body, call))
		}
		for _, p := range e.rule.releases {
			if matchCall(e.pass.Info, call, p) {
				consider(callToken(e.pass.Info, call, p))
			}
		}
		// Summarized helpers put their tokens in play too: a result the
		// helper acquires, or an argument/receiver it has a non-opaque
		// effect on, is tracked exactly like a tabled token.
		if sum := e.calleeSummary(call); sum != nil {
			if sum.result == effAcquires {
				consider(assignedVar(e.pass.Info, body, call))
			}
			for i, a := range call.Args {
				if sum.paramEffect(i) != effOpaque {
					consider(identVar(e.pass.Info, a))
				}
			}
			if sum.recv != effOpaque {
				if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
					consider(identVar(e.pass.Info, sel.X))
				}
			}
		}
		return true
	})
	return tracked
}

// calleeSummary resolves call's callee against the summary table.
func (e *ownEngine) calleeSummary(call *ast.CallExpr) *ownSummary {
	if e.sums == nil {
		return nil
	}
	fn := calleeFunc(e.pass.Info, call)
	if fn == nil {
		return nil
	}
	return e.sums[fn]
}

// assignedVar finds the variable the call's first result is bound to,
// for `v, err := f(...)` / `v := f(...)` / `var v, err = f(...)` forms.
func assignedVar(info *types.Info, body *ast.BlockStmt, call *ast.CallExpr) *types.Var {
	var found *types.Var
	ast.Inspect(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Rhs) == 1 && ast.Unparen(n.Rhs[0]) == call && len(n.Lhs) > 0 {
				found = identVar(info, n.Lhs[0])
				return false
			}
		case *ast.ValueSpec:
			if len(n.Values) == 1 && ast.Unparen(n.Values[0]) == call && len(n.Names) > 0 {
				found = identVar(info, n.Names[0])
				return false
			}
		}
		return true
	})
	return found
}

// --- transfer function -------------------------------------------------

func (e *ownEngine) transfer(n ast.Node, st *flowState) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		e.assign(n, st)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					e.valueSpec(vs, st)
				}
			}
		}
	case *ast.ReturnStmt:
		if e.recording && len(n.Results) > 0 {
			// Result inference looks at the first result before the
			// return escapes it: a tracked var still held here is a
			// candidate result-acquire; nil stays neutral (the error
			// path of a (T, error) acquire); anything else disqualifies.
			e.inf.resultSeen = true
			first := ast.Unparen(n.Results[0])
			if v := identVar(e.pass.Info, first); v != nil && e.tracked[v] && st.get(v) == stHeld {
				e.inf.resultHeld = true
			} else if !isNilIdent(first) {
				e.inf.resultOther = true
			}
		}
		for _, r := range n.Results {
			e.scanExpr(r, st)
			e.escapeValue(r, st)
		}
		if e.recording {
			e.inf.recordExit(st)
		}
		if e.reporting {
			for v, s := range st.vals {
				if s == stHeld && !e.exempt[v] {
					e.pass.Reportf(n.Pos(), e.rule.leakMsg, v.Name())
				}
			}
		}
	case *ast.DeferStmt:
		e.deferStmt(n, st)
	case *ast.GoStmt:
		// A goroutine's interleaving is beyond the model: anything it
		// mentions stops being tracked.
		e.escapeAllMentioned(n.Call, st, nil)
	case *ast.ExprStmt:
		e.scanExpr(n.X, st)
	case *ast.SendStmt:
		e.scanExpr(n.Chan, st)
		e.escapeValue(n.Value, st)
	case *ast.IncDecStmt:
		e.scanExpr(n.X, st)
	case *ast.RangeStmt:
		e.scanExpr(n.X, st)
	case *ast.LabeledStmt:
		e.transfer(n.Stmt, st)
	case ast.Expr:
		e.scanExpr(n, st)
	default:
		// A statement shape the engine doesn't model: anything tracked
		// it mentions stops being tracked.
		e.escapeMentioned(n, st)
	}
}

// assign handles acquire-binding assignments, reassignment, aliasing,
// and refinement invalidation.
func (e *ownEngine) assign(n *ast.AssignStmt, st *flowState) {
	// Acquire form: v[, err] := f(...) or tok.Method() on the RHS.
	if len(n.Rhs) == 1 {
		if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok {
			if p, ok := e.matchAny(call, e.rule.acquires); ok {
				for _, a := range call.Args {
					e.scanExpr(a, st)
				}
				e.invalidateLhs(n, st)
				var tok *types.Var
				if p.token == tokenResult {
					tok = identVar(e.pass.Info, n.Lhs[0])
				} else {
					tok = callToken(e.pass.Info, call, p)
				}
				e.bindAcquire(n, tok, st)
				return
			}
			// A summarized helper whose result is a held token binds
			// exactly like a tabled acquire (cross-call acquire: the
			// helper acquired on the caller's behalf, DESIGN §7c).
			if sum := e.calleeSummary(call); sum != nil && sum.result == effAcquires {
				e.summaryCallEffects(call, sum, st)
				e.invalidateLhs(n, st)
				e.bindAcquire(n, identVar(e.pass.Info, n.Lhs[0]), st)
				return
			}
		}
	}
	// Defer-capture hazard, checked before the RHS scan can escape the
	// token: a variable with a by-value deferred release pending is
	// being rebound, so the defer will fire on the old value — the
	// PR-10 growBuf bug class (defer putBuf(b); b = growBuf(b, n)
	// double-pools the old buffer). Re-slicings of the variable itself
	// (b = b[:0]) keep the same backing array and are exempt.
	if e.reporting && e.rule.rebindMsg != "" {
		for _, lh := range n.Lhs {
			v := identVar(e.pass.Info, lh)
			if v == nil || !e.tracked[v] || st.get(v) != stHeldDeferred || !st.deferVal[v] {
				continue
			}
			if len(n.Lhs) == 1 && len(n.Rhs) == 1 && isSelfSlice(e.pass.Info, n.Rhs[0], v) {
				continue
			}
			e.pass.Reportf(n.Pos(), e.rule.rebindMsg, v.Name())
		}
	}
	for _, r := range n.Rhs {
		e.scanExpr(r, st)
		// x := b aliases the tracked value; stop tracking it.
		if v := identVar(e.pass.Info, r); v != nil && e.tracked[v] {
			st.vals[v] = stEscaped
		}
	}
	e.invalidateLhs(n, st)
	// Reassigning a tracked variable: whatever it held is gone.
	for _, lh := range n.Lhs {
		v := identVar(e.pass.Info, lh)
		if v == nil || !e.tracked[v] {
			continue
		}
		delete(st.deferVal, v)
		switch st.get(v) {
		case stHeld, stHeldDeferred:
			st.vals[v] = stEscaped // lost track of an obligation: silence
		default:
			st.vals[v] = stNone // fresh, unobligated value
		}
	}
}

// isSelfSlice reports whether expr is a re-slicing rooted at v itself
// (v[:0], v[:n], v[a:b]): the value identity the deferred release
// captured is the same backing array, so rebinding is safe.
func isSelfSlice(info *types.Info, expr ast.Expr, v *types.Var) bool {
	for {
		switch x := ast.Unparen(expr).(type) {
		case *ast.SliceExpr:
			expr = x.X
		case *ast.Ident:
			return identVar(info, x) == v
		default:
			return false
		}
	}
}

func (e *ownEngine) valueSpec(vs *ast.ValueSpec, st *flowState) {
	if len(vs.Values) == 1 && len(vs.Names) > 0 {
		if call, ok := ast.Unparen(vs.Values[0]).(*ast.CallExpr); ok {
			if p, ok := e.matchAny(call, e.rule.acquires); ok && p.token == tokenResult {
				for _, a := range call.Args {
					e.scanExpr(a, st)
				}
				if tok := identVar(e.pass.Info, vs.Names[0]); tok != nil && e.tracked[tok] {
					st.vals[tok] = stHeld
				}
				return
			}
			if sum := e.calleeSummary(call); sum != nil && sum.result == effAcquires {
				e.summaryCallEffects(call, sum, st)
				if tok := identVar(e.pass.Info, vs.Names[0]); tok != nil && e.tracked[tok] {
					st.vals[tok] = stHeld
				}
				return
			}
		}
	}
	for _, v := range vs.Values {
		e.scanExpr(v, st)
	}
}

// bindAcquire binds tok as held and, for `v, err :=` / `v, ok :=`
// forms, records the failure-edge refinement that reverts the acquire.
func (e *ownEngine) bindAcquire(n *ast.AssignStmt, tok *types.Var, st *flowState) {
	if tok == nil || !e.tracked[tok] {
		return
	}
	prior := st.get(tok)
	st.vals[tok] = stHeld
	if len(n.Lhs) == 2 {
		if cond := identVar(e.pass.Info, n.Lhs[1]); cond != nil {
			if isBoolVar(cond) {
				st.refines[cond] = refineInfo{token: tok, prior: prior, okForm: true}
			} else if types.Identical(cond.Type(), types.Universe.Lookup("error").Type()) {
				st.refines[cond] = refineInfo{token: tok, prior: prior}
			}
		}
	}
}

// invalidateLhs drops err/ok refinements whose condition variable is
// overwritten by this assignment (err reused for the next call).
func (e *ownEngine) invalidateLhs(n *ast.AssignStmt, st *flowState) {
	for _, lh := range n.Lhs {
		if v := identVar(e.pass.Info, lh); v != nil {
			delete(st.refines, v)
		}
	}
}

func (e *ownEngine) deferStmt(n *ast.DeferStmt, st *flowState) {
	call := n.Call
	if p, ok := e.matchAny(call, e.rule.releases); ok {
		if tok := callToken(e.pass.Info, call, p); tok != nil && e.tracked[tok] {
			e.applyDeferredRelease(tok, n.Pos(), st)
			// Direct form: the argument was evaluated here, so the
			// pending release is pinned to the current value, not the
			// variable — a later reassignment is the defer-capture
			// hazard (see flowState.deferVal). Handle tokens are
			// long-lived objects, not swappable values; only value
			// tokens carry the hazard.
			if !e.rule.handleToken && st.get(tok) == stHeldDeferred {
				st.setDeferVal(tok)
			}
			return
		}
	}
	// defer func() { ... release(b) ... }(): the literal's releases
	// count as deferred releases; anything else it captures escapes.
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		released := map[*types.Var]bool{}
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			c, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			if p, ok := e.matchAny(c, e.rule.releases); ok {
				if tok := callToken(e.pass.Info, c, p); tok != nil && e.tracked[tok] {
					released[tok] = true
				}
			}
			return true
		})
		for tok := range released {
			e.applyDeferredRelease(tok, n.Pos(), st)
		}
		e.escapeAllMentioned(lit, st, released)
		return
	}
	e.escapeAllMentioned(call, st, nil)
}

func (e *ownEngine) applyDeferredRelease(v *types.Var, pos token.Pos, st *flowState) {
	switch st.get(v) {
	case stHeld:
		st.vals[v] = stHeldDeferred
	case stHeldDeferred, stReleased:
		if e.reporting {
			e.pass.Reportf(pos, e.rule.doubleMsg, v.Name())
		}
		st.vals[v] = stReleased
	case stNone:
		if e.inf != nil {
			if _, isParam := e.inf.params[v]; isParam {
				// Inference: `defer Release(b)` on a passed-in token is
				// the releases effect the summary exists to record.
				e.inf.deferReleased[v] = true
				return
			}
		}
		// A deferred release before any acquire: ordering is beyond the
		// model, stop tracking.
		st.vals[v] = stEscaped
	}
}

func (e *ownEngine) applyRelease(v *types.Var, pos token.Pos, st *flowState) {
	switch st.get(v) {
	case stHeld:
		st.vals[v] = stReleased
	case stHeldDeferred, stReleased:
		if e.reporting {
			e.pass.Reportf(pos, e.rule.doubleMsg, v.Name())
		}
		st.vals[v] = stReleased
	case stNone:
		if e.inf != nil {
			if _, isParam := e.inf.params[v]; isParam {
				// Inference: releasing a parameter the caller handed us
				// is exactly the effect the summary records.
				st.vals[v] = stReleased
				return
			}
		}
		// Probably acquired by whoever handed it to us; not ours to
		// judge intra-procedurally.
		st.vals[v] = stEscaped
	}
}

// scanExpr walks an expression for releases, expression-form acquires,
// uses of released values, and escapes.
func (e *ownEngine) scanExpr(x ast.Expr, st *flowState) {
	switch x := x.(type) {
	case nil:
		return
	case *ast.ParenExpr:
		e.scanExpr(x.X, st)
	case *ast.Ident:
		e.useIdent(x, st)
	case *ast.SelectorExpr:
		e.scanExpr(x.X, st)
	case *ast.IndexExpr:
		e.scanExpr(x.X, st)
		e.scanExpr(x.Index, st)
	case *ast.SliceExpr:
		e.scanExpr(x.X, st)
		e.scanExpr(x.Low, st)
		e.scanExpr(x.High, st)
		e.scanExpr(x.Max, st)
	case *ast.CallExpr:
		e.call(x, st)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			e.escapeValue(x.X, st)
			return
		}
		e.scanExpr(x.X, st)
	case *ast.StarExpr:
		e.scanExpr(x.X, st)
	case *ast.BinaryExpr:
		e.scanExpr(x.X, st)
		e.scanExpr(x.Y, st)
	case *ast.KeyValueExpr:
		e.scanExpr(x.Value, st)
	case *ast.TypeAssertExpr:
		e.scanExpr(x.X, st)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			e.escapeValue(el, st)
		}
	case *ast.FuncLit:
		// Captured by a closure: its lifetime is out of our hands.
		e.escapeAllMentioned(x, st, nil)
	}
}

func (e *ownEngine) call(x *ast.CallExpr, st *flowState) {
	if p, ok := e.matchAny(x, e.rule.releases); ok {
		if tok := callToken(e.pass.Info, x, p); tok != nil && e.tracked[tok] {
			for i, a := range x.Args {
				if p.token == tokenArg && i == 0 {
					continue // the token itself; not a "use"
				}
				e.scanExpr(a, st)
			}
			e.applyRelease(tok, x.Pos(), st)
			return
		}
	}
	if _, ok := e.matchAny(x, e.rule.acquires); ok {
		for _, a := range x.Args {
			e.scanExpr(a, st)
		}
		// Expression-form acquire: the result token is discarded —
		// silence.
		return
	}
	// Reading builtins and string conversions copy out of the value;
	// they are uses, not ownership transfers.
	if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
		if b, ok := e.pass.Info.Uses[id].(*types.Builtin); ok && readOnlyBuiltin(b.Name()) {
			for _, a := range x.Args {
				e.scanExpr(a, st)
			}
			return
		}
	}
	if tv, ok := e.pass.Info.Types[x.Fun]; ok && tv.IsType() {
		if basic, ok := tv.Type.Underlying().(*types.Basic); ok && basic.Info()&types.IsString != 0 {
			for _, a := range x.Args {
				e.scanExpr(a, st)
			}
			return
		}
		// Any other conversion may alias the backing store: escape.
	}
	// A summarized module-local callee: apply its per-slot effects
	// instead of the blanket escape (DESIGN §7c). A result-acquiring
	// summary in expression position leaves the result discarded —
	// silence, same as a discarded tabled acquire.
	if sum := e.calleeSummary(x); sum != nil {
		e.summaryCallEffects(x, sum, st)
		return
	}
	// Untabled call: arguments escape; a method receiver is an escape
	// for value tokens but an ordinary use for handle tokens.
	if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
		if v := identVar(e.pass.Info, sel.X); v != nil && e.tracked[v] {
			if e.rule.handleToken {
				e.useIdent(ast.Unparen(sel.X).(*ast.Ident), st)
			} else {
				e.escapeVar(v, st)
			}
		} else {
			e.scanExpr(sel.X, st)
		}
	}
	for _, a := range x.Args {
		e.scanExpr(a, st) // report use-after-release before escaping
		e.escapeValue(a, st)
	}
}

// summaryCallEffects applies a summarized callee's per-slot effects to
// the call's receiver and arguments.
func (e *ownEngine) summaryCallEffects(call *ast.CallExpr, sum *ownSummary, st *flowState) {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		e.applySlotEffect(sel.X, sum.recv, call.Pos(), st)
	}
	for i, a := range call.Args {
		e.applySlotEffect(a, sum.paramEffect(i), call.Pos(), st)
	}
}

// applySlotEffect applies one summarized effect to one call operand.
// Effects bind only to plain tracked identifiers; any other operand
// shape (or an opaque slot) falls back to the v3 scan+escape.
func (e *ownEngine) applySlotEffect(x ast.Expr, eff ownEffect, pos token.Pos, st *flowState) {
	id, _ := ast.Unparen(x).(*ast.Ident)
	var v *types.Var
	if id != nil {
		v, _ = e.pass.Info.Uses[id].(*types.Var)
	}
	if v == nil || !e.tracked[v] {
		e.scanExpr(x, st)
		if eff == effOpaque || eff == effTransfers {
			e.escapeValue(x, st)
		}
		return
	}
	switch eff {
	case effNone:
		// Pure use: the obligation survives the call. This is the v3
		// blind spot the summary layer removes.
		e.useIdent(id, st)
	case effReleases:
		e.applyRelease(v, pos, st)
	case effAcquires:
		st.vals[v] = stHeld
	default: // effOpaque, effTransfers
		e.useIdent(id, st)
		e.escapeVar(v, st)
	}
}

func (e *ownEngine) matchAny(call *ast.CallExpr, pats []callPattern) (callPattern, bool) {
	for _, p := range pats {
		if matchCall(e.pass.Info, call, p) {
			return p, true
		}
	}
	return callPattern{}, false
}

func (e *ownEngine) useIdent(id *ast.Ident, st *flowState) {
	v, _ := e.pass.Info.Uses[id].(*types.Var)
	if v == nil || !e.tracked[v] {
		return
	}
	if st.get(v) == stReleased {
		if e.reporting {
			e.pass.Reportf(id.Pos(), e.rule.useAfterMsg, v.Name())
		}
		// One report per path walk; stop tracking to avoid cascades.
		st.vals[v] = stEscaped
	}
}

// escapeValue marks tracked variables escaped only when the tracked
// value itself (or an alias of its backing store) is handed off in x:
// the ident, &ident, a slice of it, or a composite literal embedding
// it. Field reads (v.blob) and element reads (b[i]) copy out a
// different value, so they are uses — the ownership obligation stays.
func (e *ownEngine) escapeValue(x ast.Expr, st *flowState) {
	switch x := ast.Unparen(x).(type) {
	case nil:
		return
	case *ast.Ident:
		if v, _ := e.pass.Info.Uses[x].(*types.Var); v != nil && e.tracked[v] {
			e.useIdent(x, st)
			e.escapeVar(v, st)
		}
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			e.escapeValue(x.X, st)
		} else {
			e.scanExpr(x.X, st)
		}
	case *ast.StarExpr:
		e.escapeValue(x.X, st)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			e.escapeValue(el, st)
		}
	case *ast.KeyValueExpr:
		e.escapeValue(x.Value, st)
	case *ast.SliceExpr:
		// b[1:] aliases the tracked backing array.
		e.escapeValue(x.X, st)
		e.scanExpr(x.Low, st)
		e.scanExpr(x.High, st)
		e.scanExpr(x.Max, st)
	case *ast.CallExpr:
		// Already processed by the preceding scanExpr walk.
	case *ast.FuncLit:
		e.escapeAllMentioned(x, st, nil)
	default:
		// Selector/index/binary/conversion shapes read out a distinct
		// value: plain uses.
		e.scanExpr(x, st)
	}
}

// escapeAllMentioned is the blanket version for constructs whose
// execution order or lifetime the model cannot see (closures,
// goroutines, unknown statements): every tracked variable mentioned
// anywhere inside stops being tracked.
func (e *ownEngine) escapeAllMentioned(x ast.Node, st *flowState, except map[*types.Var]bool) {
	if x == nil {
		return
	}
	ast.Inspect(x, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, _ := e.pass.Info.Uses[id].(*types.Var)
		if v == nil || !e.tracked[v] || except[v] {
			return true
		}
		e.useIdent(id, st)
		e.escapeVar(v, st)
		return true
	})
}

func (e *ownEngine) escapeVar(v *types.Var, st *flowState) {
	st.vals[v] = stEscaped
}

func (e *ownEngine) escapeMentioned(n ast.Node, st *flowState) {
	e.escapeAllMentioned(n, st, nil)
}

// refineEdge applies err/ok refinement when flowing st across edge: on
// the failure branch the acquire never happened, so the token's state
// reverts; on the success branch the refinement is consumed.
func (e *ownEngine) refineEdge(st *flowState, edge cfgEdge) {
	if edge.cond == nil || len(st.refines) == 0 {
		return
	}
	var condVar *types.Var
	var failure bool
	switch c := ast.Unparen(edge.cond).(type) {
	case *ast.BinaryExpr:
		if c.Op != token.EQL && c.Op != token.NEQ {
			return
		}
		id, other := ast.Unparen(c.X), ast.Unparen(c.Y)
		if !isNilIdent(other) {
			id, other = other, id
			if !isNilIdent(other) {
				return
			}
		}
		condVar = identVar(e.pass.Info, id)
		// err != nil on the true edge, or err == nil on the false edge,
		// is the failure path.
		failure = (c.Op == token.NEQ) == edge.condVal
	case *ast.Ident:
		condVar = identVar(e.pass.Info, c)
		failure = !edge.condVal // `if ok { ... } else { failure }`
	case *ast.UnaryExpr:
		if c.Op != token.NOT {
			return
		}
		condVar = identVar(e.pass.Info, c.X)
		failure = edge.condVal // `if !ok { failure }`
	default:
		return
	}
	if condVar == nil {
		return
	}
	ri, ok := st.refines[condVar]
	if !ok {
		return
	}
	if isBoolVar(condVar) != ri.okForm {
		return
	}
	if failure {
		st.vals[ri.token] = ri.prior
	}
	delete(st.refines, condVar)
}

func readOnlyBuiltin(name string) bool {
	switch name {
	case "len", "cap", "copy", "min", "max":
		return true
	}
	return false
}

func isBoolVar(v *types.Var) bool {
	basic, ok := v.Type().Underlying().(*types.Basic)
	return ok && basic.Kind() == types.Bool
}

// blockExitCheck reports leaks at implicit function exits: a block with
// no successors that does not end in a return (already checked) or a
// panic call.
func (e *ownEngine) blockExitCheck(blk *cfgBlock, st *flowState) {
	if len(blk.succs) > 0 {
		return
	}
	if n := len(blk.nodes); n > 0 {
		switch last := blk.nodes[n-1].(type) {
		case *ast.ReturnStmt:
			return // recorded and reported at the ReturnStmt itself
		case *ast.ExprStmt:
			if call, ok := last.X.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
					return // a panic exit makes every effect claim vacuous
				}
			}
		}
	}
	if e.recording {
		e.inf.recordExit(st)
	}
	if !e.reporting {
		return
	}
	for v, s := range st.vals {
		if s == stHeld && !e.exempt[v] {
			e.pass.Reportf(e.funcEnd, e.rule.leakMsg, v.Name())
		}
	}
}

// acquireContractParams returns the parameters of a declared function
// whose summary effect is effAcquires: the function deliberately hands
// its caller a held token through that slot, so exiting held is its
// contract rather than a leak. The contract needs a counterparty — a
// function no one in the module calls has no caller to inherit the
// obligation, so its held exits stay reportable.
func acquireContractParams(pass *Pass, scope ast.Node, sums map[*types.Func]*ownSummary) map[*types.Var]bool {
	fd, ok := scope.(*ast.FuncDecl)
	if !ok || sums == nil {
		return nil
	}
	fn, _ := pass.Info.Defs[fd.Name].(*types.Func)
	if fn == nil || pass.Prog == nil || !pass.Prog.hasCaller(fn) {
		return nil
	}
	sum := sums[fn]
	if sum == nil {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	var exempt map[*types.Var]bool
	for i, eff := range sum.params {
		if eff == effAcquires && i < sig.Params().Len() {
			if exempt == nil {
				exempt = map[*types.Var]bool{}
			}
			exempt[sig.Params().At(i)] = true
		}
	}
	return exempt
}

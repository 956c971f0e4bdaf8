// Ownership-effect summaries: the inter-procedural half of the
// poolown/pairbalance protocol analyzers (DESIGN §7c). For every
// function in the Program, and per ownership rule, the summary records
// what a call does to each token-typed parameter, to the receiver, and
// to the first result:
//
//	opaque    — not modeled (wrong type, recursion, goto, variadic);
//	            callers escape the argument, exactly as v3 did
//	none      — pure use: the callee never acquires, releases, or
//	            retains the token; the caller's obligation survives the
//	            call (this is the v3 blind spot the layer removes)
//	acquires  — the callee creates an obligation the caller now owes
//	            (result: returns a held token)
//	releases  — the callee discharges the caller's obligation
//	transfers — the callee retains/aliases the token; the caller must
//	            stop tracking (store, send, return, closure capture)
//
// Summaries are inferred bottom-up in SCC order by running the same
// CFG+fixpoint engine as the analyzers with reporting disabled, seeding
// token-typed parameters and recording their joined state at every
// exit. Recursive functions and unsupported CFGs stay opaque.

package analysis

import "go/types"

type ownEffect uint8

const (
	effOpaque ownEffect = iota // zero value: not modeled, caller escapes
	effNone
	effAcquires
	effReleases
	effTransfers
)

func (e ownEffect) String() string {
	switch e {
	case effNone:
		return "none"
	case effAcquires:
		return "acquires"
	case effReleases:
		return "releases"
	case effTransfers:
		return "transfers"
	}
	return "opaque"
}

// ownSummary is one function's per-rule ownership effects.
type ownSummary struct {
	recv   ownEffect
	params []ownEffect
	// result is effAcquires when the function returns a held token as
	// its first result on every non-nil return path; effNone otherwise.
	result ownEffect
	// resultErrPaired marks (T, ..., error) signatures: callers binding
	// `v, err :=` get the same failure-edge refinement as a tabled
	// acquire.
	resultErrPaired bool
}

func (s *ownSummary) paramEffect(i int) ownEffect {
	if s == nil || i < 0 || i >= len(s.params) {
		return effOpaque
	}
	return s.params[i]
}

// interesting reports whether consuming this summary can ever differ
// from the v3 blanket-escape behavior.
func (s *ownSummary) interesting() bool {
	if s == nil {
		return false
	}
	if s.recv != effOpaque && s.recv != effTransfers {
		return true
	}
	if s.result == effAcquires {
		return true
	}
	for _, p := range s.params {
		if p != effOpaque && p != effTransfers {
			return true
		}
	}
	return false
}

// tokenTypesOf resolves the rule's acquire/release patterns against the
// batch's type information and returns the set of types a token can
// have. Patterns whose package is not reachable from the batch resolve
// to nothing (their call sites cannot appear either).
func (prog *Program) tokenTypesOf(rule *ownRule) []types.Type {
	var out []types.Type
	add := func(t types.Type) {
		if t == nil {
			return
		}
		for _, have := range out {
			if types.Identical(have, t) {
				return
			}
		}
		out = append(out, t)
	}
	pats := make([]callPattern, 0, len(rule.acquires)+len(rule.releases))
	pats = append(pats, rule.acquires...)
	pats = append(pats, rule.releases...)
	for _, p := range pats {
		fn := prog.lookupPattern(p)
		if fn == nil {
			continue
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok {
			continue
		}
		switch p.token {
		case tokenResult:
			if sig.Results().Len() > 0 {
				add(sig.Results().At(0).Type())
			}
		case tokenArg:
			if sig.Params().Len() > 0 {
				add(sig.Params().At(0).Type())
			}
		case tokenRecv:
			if sig.Recv() != nil {
				add(sig.Recv().Type())
			}
		}
	}
	return out
}

// lookupPattern finds the *types.Func a callPattern names, searching
// the batch's packages and their transitive imports.
func (prog *Program) lookupPattern(p callPattern) *types.Func {
	for _, pkg := range prog.pkgs {
		if pkg.Pkg == nil {
			continue
		}
		target := pkg.Pkg
		if target.Path() != p.pkgPath {
			target = findImport(pkg.Pkg, p.pkgPath)
		}
		if target == nil {
			continue
		}
		if p.typeName == "" {
			if fn, ok := target.Scope().Lookup(p.funcName).(*types.Func); ok {
				return fn
			}
			continue
		}
		tn, ok := target.Scope().Lookup(p.typeName).(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Name() == p.funcName {
				return m
			}
		}
	}
	return nil
}

func typeMatchesToken(t types.Type, toks []types.Type) bool {
	for _, tt := range toks {
		if types.Identical(t, tt) {
			return true
		}
	}
	return false
}

// ownSummariesFor returns the inferred summaries worth consuming for
// every function in the batch, computing and caching them on first use.
func (prog *Program) ownSummariesFor(rule *ownRule) map[*types.Func]*ownSummary {
	if prog.ownSums == nil {
		prog.ownSums = make(map[*ownRule]map[*types.Func]*ownSummary)
	}
	if sums, ok := prog.ownSums[rule]; ok {
		return sums
	}
	prog.build()
	toks := prog.tokenTypesOf(rule)
	sums := make(map[*types.Func]*ownSummary)
	for _, pf := range prog.order {
		if pf.recursive() {
			continue
		}
		if inferred := inferOwnSummary(pf, rule, toks, sums); inferred.interesting() {
			sums[pf.fn] = inferred
		}
	}
	prog.ownSums[rule] = sums
	return sums
}

// ownInference accumulates per-exit facts while the engine replays a
// function during summary inference.
type ownInference struct {
	// params maps each tracked token-typed parameter (and the receiver,
	// under index -1) to its position.
	params map[*types.Var]int
	// deferReleased marks parameters released by a defer with no prior
	// acquire (the `defer ReleaseBuffer(b)` idiom on a passed-in blob).
	deferReleased map[*types.Var]bool
	exit          map[*types.Var]ownState
	exitSeen      bool
	resultSeen    bool
	resultHeld    bool
	resultOther   bool
}

// recordExit joins the states of all summarized parameters at one
// function exit into the running per-parameter join.
func (inf *ownInference) recordExit(st *flowState) {
	if !inf.exitSeen {
		inf.exitSeen = true
		inf.exit = make(map[*types.Var]ownState, len(inf.params))
		for v := range inf.params {
			inf.exit[v] = st.get(v)
		}
		return
	}
	for v := range inf.params {
		inf.exit[v] = exitJoin(inf.exit[v], st.get(v))
	}
}

// exitJoin merges states across distinct exits. Unlike the intra-CFG
// joinOwn (where none⊔held stays held so leaks keep reporting), a slot
// held on only SOME exits is not an acquire contract — it is either the
// caller's bug to see or a shape too path-dependent to summarize — so
// mixed heldness degrades to stMaybe (consumed as transfers).
func exitJoin(a, b ownState) ownState {
	if (a == stHeld) != (b == stHeld) {
		return stMaybe
	}
	return joinOwn(a, b)
}

// inferOwnSummary runs the ownership engine over pf with reporting
// disabled and derives the per-slot effects from the recorded exits.
func inferOwnSummary(pf *progFunc, rule *ownRule, toks []types.Type, sums map[*types.Func]*ownSummary) *ownSummary {
	sig, ok := pf.fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	sum := &ownSummary{params: make([]ownEffect, sig.Params().Len())}
	if sig.Results().Len() > 0 {
		last := sig.Results().At(sig.Results().Len() - 1).Type()
		sum.resultErrPaired = sig.Results().Len() >= 2 &&
			types.Identical(last, types.Universe.Lookup("error").Type())
	}

	inf := &ownInference{params: map[*types.Var]int{}, deferReleased: map[*types.Var]bool{}}
	addParam := func(v *types.Var, idx int, variadicLast bool) {
		if v == nil || v.Name() == "" || v.Name() == "_" || variadicLast {
			return
		}
		if typeMatchesToken(v.Type(), toks) {
			inf.params[v] = idx
		}
	}
	for i := 0; i < sig.Params().Len(); i++ {
		addParam(sig.Params().At(i), i, sig.Variadic() && i == sig.Params().Len()-1)
	}
	if sig.Recv() != nil {
		addParam(sig.Recv(), -1, false)
	}

	pass := &Pass{
		Fset:       pf.pkg.Fset,
		Files:      pf.pkg.Files,
		Pkg:        pf.pkg.Pkg,
		Info:       pf.pkg.Info,
		ImportPath: pf.pkg.ImportPath,
		report:     func(Diagnostic) {},
	}
	e := &ownEngine{pass: pass, rule: rule, sums: sums, inf: inf, funcEnd: pf.decl.Body.Rbrace}
	e.tracked = e.collectTracked(pf.decl, pf.decl.Body)
	for v := range inf.params {
		e.tracked[v] = true
	}
	if len(e.tracked) == 0 {
		return sum // nothing relevant inside: all slots stay opaque
	}
	if !e.runFlow(pf.decl.Body) {
		return nil // goto / non-converging fixpoint: unknown
	}

	assign := func(v *types.Var, idx int) {
		eff := paramEffect(inf.exit[v], inf.deferReleased[v], inf.exitSeen)
		if idx == -1 {
			sum.recv = eff
		} else {
			sum.params[idx] = eff
		}
	}
	for v, idx := range inf.params {
		assign(v, idx)
	}
	if inf.resultSeen && inf.resultHeld && !inf.resultOther {
		sum.result = effAcquires
	}
	return sum
}

// paramEffect translates a parameter's joined exit state into its
// summary effect.
func paramEffect(exit ownState, deferReleased, exitSeen bool) ownEffect {
	if !exitSeen {
		// Every path panics; a call here never returns, so any effect
		// claim is vacuous. Opaque keeps callers conservative.
		return effOpaque
	}
	if deferReleased {
		if exit == stNone {
			return effReleases
		}
		return effTransfers
	}
	switch exit {
	case stNone:
		return effNone
	case stHeld:
		return effAcquires
	case stHeldDeferred:
		return effNone // acquired and deferred-released inside: balanced
	case stReleased:
		return effReleases
	}
	return effTransfers
}

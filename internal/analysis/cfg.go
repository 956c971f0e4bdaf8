// Intra-procedural control-flow graph construction and the one dataflow
// solver over it, shared by the flow-sensitive analyzers (chanlife's
// close states, lockedsend's and lockorder's held sets). The CFG is
// deliberately small: basic blocks hold statements (and the condition
// expressions evaluated on the way out) in source order, and an edge says
// only that control may pass — no analyzer refines state along a branch
// condition. A select statement is itself a node of the block it starts
// in, ahead of its arms; each comm statement opens its arm's block.
//
// Constructs the builder cannot model soundly (goto) mark the graph
// unsupported; clients must then skip the function entirely rather than
// analyze a wrong graph — viper-vet prefers false negatives over false
// positives throughout.

package analysis

import (
	"go/ast"
)

// cfgBlock is a basic block: nodes execute in order, then control
// follows exactly one successor. Blocks with no successors end the
// function (return, panic, or the tail of the body falling off the end).
type cfgBlock struct {
	index int
	nodes []ast.Node
	succs []*cfgBlock
}

// funcCFG is the graph for one function body.
type funcCFG struct {
	entry  *cfgBlock
	blocks []*cfgBlock
	// unsupported is set when the body uses control flow the builder
	// does not model (goto); clients must not analyze such graphs.
	unsupported bool
}

// loopCtx records the break/continue targets of the innermost (and any
// labeled) enclosing loop or switch.
type loopCtx struct {
	label      string
	breakTo    *cfgBlock
	continueTo *cfgBlock // nil for switch/select contexts
}

type cfgBuilder struct {
	g     *funcCFG
	loops []loopCtx
	// pendingLabel is the label immediately preceding the next
	// loop/switch statement, consumed when that statement is built.
	pendingLabel string
}

// buildCFG constructs the CFG for a function body. The returned graph's
// unsupported flag must be checked before use.
func buildCFG(body *ast.BlockStmt) *funcCFG {
	b := &cfgBuilder{g: &funcCFG{}}
	b.g.entry = b.newBlock()
	end := b.stmts(body.List, b.g.entry)
	_ = end // falling off the end is an implicit return; no edge needed
	return b.g
}

// solveFlow is the suite's one dataflow solver: a forward flow over
// body's CFG from entry to a silent fixpoint, then one replay of every
// reachable block with report set, so each node is judged once against
// the settled state. step applies a node to the state in place; join
// merges src into dst and says whether dst changed. It returns false,
// having replayed nothing, for a body with goto or a flow that does not
// converge.
func solveFlow[S any](body *ast.BlockStmt, entry S, clone func(S) S, join func(dst, src S) (S, bool), step func(n ast.Node, st S, report bool)) bool {
	g := buildCFG(body)
	if g.unsupported {
		return false
	}
	in := make([]S, len(g.blocks))
	reached := make([]bool, len(g.blocks))
	in[g.entry.index], reached[g.entry.index] = entry, true
	work := []*cfgBlock{g.entry}
	for iters := 0; len(work) > 0; iters++ {
		if iters > (len(g.blocks)+4)*32 {
			return false
		}
		blk := work[len(work)-1]
		work = work[:len(work)-1]
		st := clone(in[blk.index])
		for _, n := range blk.nodes {
			step(n, st, false)
		}
		for _, to := range blk.succs {
			if !reached[to.index] {
				in[to.index], reached[to.index] = clone(st), true
			} else if next, changed := join(in[to.index], st); changed {
				in[to.index] = next
			} else {
				continue
			}
			work = append(work, to)
		}
	}
	for _, blk := range g.blocks {
		if !reached[blk.index] {
			continue
		}
		st := clone(in[blk.index])
		for _, n := range blk.nodes {
			step(n, st, true)
		}
	}
	return true
}

func (b *cfgBuilder) newBlock() *cfgBlock {
	blk := &cfgBlock{index: len(b.g.blocks)}
	b.g.blocks = append(b.g.blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *cfgBlock) {
	if from == nil || to == nil {
		return
	}
	from.succs = append(from.succs, to)
}

// stmts threads the statement list through cur and returns the block
// control falls out of, or nil when every path terminated (return,
// panic, break, continue).
func (b *cfgBuilder) stmts(list []ast.Stmt, cur *cfgBlock) *cfgBlock {
	for _, s := range list {
		if cur == nil {
			// Unreachable code after a terminator still needs a home so
			// releases in it don't crash the walker; it gets a fresh,
			// never-entered block.
			cur = b.newBlock()
		}
		cur = b.stmt(s, cur)
	}
	return cur
}

func (b *cfgBuilder) stmt(s ast.Stmt, cur *cfgBlock) *cfgBlock {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return b.stmts(s.List, cur)

	case *ast.IfStmt:
		if s.Init != nil {
			cur.nodes = append(cur.nodes, s.Init)
		}
		cur.nodes = append(cur.nodes, s.Cond)
		thenBlk := b.newBlock()
		b.edge(cur, thenBlk)
		after := b.newBlock()
		thenEnd := b.stmts(s.Body.List, thenBlk)
		b.edge(thenEnd, after)
		if s.Else != nil {
			elseBlk := b.newBlock()
			b.edge(cur, elseBlk)
			elseEnd := b.stmt(s.Else, elseBlk)
			b.edge(elseEnd, after)
		} else {
			b.edge(cur, after)
		}
		return after

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			cur.nodes = append(cur.nodes, s.Init)
		}
		head := b.newBlock()
		b.edge(cur, head)
		if s.Cond != nil {
			head.nodes = append(head.nodes, s.Cond)
		}
		body := b.newBlock()
		after := b.newBlock()
		b.edge(head, body)
		if s.Cond != nil {
			b.edge(head, after)
		}
		// continue re-evaluates Post then the condition.
		post := head
		if s.Post != nil {
			post = b.newBlock()
			post.nodes = append(post.nodes, s.Post)
			b.edge(post, head)
		}
		b.loops = append(b.loops, loopCtx{label: label, breakTo: after, continueTo: post})
		bodyEnd := b.stmts(s.Body.List, body)
		b.loops = b.loops[:len(b.loops)-1]
		b.edge(bodyEnd, post)
		return after

	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.newBlock()
		// The RangeStmt node carries the ranged-over expression and the
		// key/value bindings; the engine scans it like an assignment.
		head.nodes = append(head.nodes, s)
		b.edge(cur, head)
		body := b.newBlock()
		after := b.newBlock()
		b.edge(head, body)
		b.edge(head, after)
		b.loops = append(b.loops, loopCtx{label: label, breakTo: after, continueTo: head})
		bodyEnd := b.stmts(s.Body.List, body)
		b.loops = b.loops[:len(b.loops)-1]
		b.edge(bodyEnd, head)
		return after

	case *ast.SwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			cur.nodes = append(cur.nodes, s.Init)
		}
		if s.Tag != nil {
			cur.nodes = append(cur.nodes, s.Tag)
		}
		return b.switchBody(s.Body, cur, label, func(cc *ast.CaseClause, blk *cfgBlock) {
			for _, e := range cc.List {
				blk.nodes = append(blk.nodes, e)
			}
		})

	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			cur.nodes = append(cur.nodes, s.Init)
		}
		cur.nodes = append(cur.nodes, s.Assign)
		return b.switchBody(s.Body, cur, label, nil)

	case *ast.SelectStmt:
		label := b.takeLabel()
		cur.nodes = append(cur.nodes, s)
		after := b.newBlock()
		b.loops = append(b.loops, loopCtx{label: label, breakTo: after})
		for _, c := range s.Body.List {
			comm, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			blk := b.newBlock()
			b.edge(cur, blk)
			if comm.Comm != nil {
				blk.nodes = append(blk.nodes, comm.Comm)
			}
			end := b.stmts(comm.Body, blk)
			b.edge(end, after)
		}
		b.loops = b.loops[:len(b.loops)-1]
		// A select with no default still can't be proven to block
		// forever by this builder; give it a bail-out edge so state at
		// after stays a join of all arms.
		b.edge(cur, after)
		return after

	case *ast.LabeledStmt:
		switch s.Stmt.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			b.pendingLabel = s.Label.Name
			return b.stmt(s.Stmt, cur)
		}
		// A label on a plain statement only matters as a goto target,
		// and goto is unsupported anyway.
		return b.stmt(s.Stmt, cur)

	case *ast.BranchStmt:
		switch s.Tok.String() {
		case "break":
			if t := b.findLoop(labelName(s.Label)); t != nil && t.breakTo != nil {
				b.edge(cur, t.breakTo)
			}
			return nil
		case "continue":
			if t := b.findContinue(labelName(s.Label)); t != nil && t.continueTo != nil {
				b.edge(cur, t.continueTo)
			}
			return nil
		case "goto":
			b.g.unsupported = true
			return nil
		case "fallthrough":
			// Handled structurally by switchBody.
			return cur
		}
		return cur

	case *ast.ReturnStmt:
		cur.nodes = append(cur.nodes, s)
		return nil

	case *ast.ExprStmt:
		cur.nodes = append(cur.nodes, s)
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return nil
			}
		}
		return cur

	case *ast.EmptyStmt:
		return cur

	default:
		// Assign, Decl, Defer, Go, Send, IncDec, and anything else run
		// straight through the block.
		cur.nodes = append(cur.nodes, s)
		return cur
	}
}

// switchBody lays out the case clauses of a (type) switch: every clause
// gets its own block entered from cur, clause bodies flow to after, and
// fallthrough chains a clause's end into the next clause's body.
func (b *cfgBuilder) switchBody(body *ast.BlockStmt, cur *cfgBlock, label string, caseExprs func(*ast.CaseClause, *cfgBlock)) *cfgBlock {
	after := b.newBlock()
	b.loops = append(b.loops, loopCtx{label: label, breakTo: after})

	type clause struct {
		blk  *cfgBlock
		list []ast.Stmt
	}
	var clauses []clause
	hasDefault := false
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		blk := b.newBlock()
		b.edge(cur, blk)
		if cc.List == nil {
			hasDefault = true
		} else if caseExprs != nil {
			caseExprs(cc, blk)
		}
		clauses = append(clauses, clause{blk: blk, list: cc.Body})
	}
	for i, c := range clauses {
		end := b.stmts(c.list, c.blk)
		if end != nil && fallsThrough(c.list) && i+1 < len(clauses) {
			b.edge(end, clauses[i+1].blk)
		} else {
			b.edge(end, after)
		}
	}
	if !hasDefault {
		// No default: the switch may match nothing and skip every clause.
		b.edge(cur, after)
	}
	b.loops = b.loops[:len(b.loops)-1]
	return after
}

func fallsThrough(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	br, ok := list[len(list)-1].(*ast.BranchStmt)
	return ok && br.Tok.String() == "fallthrough"
}

func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func labelName(id *ast.Ident) string {
	if id == nil {
		return ""
	}
	return id.Name
}

// findLoop resolves a break target: the innermost context, or the one
// with the matching label.
func (b *cfgBuilder) findLoop(label string) *loopCtx {
	for i := len(b.loops) - 1; i >= 0; i-- {
		if label == "" || b.loops[i].label == label {
			return &b.loops[i]
		}
	}
	return nil
}

// findContinue resolves a continue target: only loop contexts qualify.
func (b *cfgBuilder) findContinue(label string) *loopCtx {
	for i := len(b.loops) - 1; i >= 0; i-- {
		if b.loops[i].continueTo == nil {
			continue // switch/select context: continue passes through it
		}
		if label == "" || b.loops[i].label == label {
			return &b.loops[i]
		}
	}
	return nil
}

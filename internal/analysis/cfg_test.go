// Unit tests for the CFG builder: block/edge structure for the
// supported control constructs, termination handling, and the
// unsupported-construct bail-out that keeps the flow-sensitive
// analyzers from walking graphs the builder cannot model.

package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// buildFromSource parses one function body and builds its CFG.
func buildFromSource(t *testing.T, body string) *funcCFG {
	t.Helper()
	src := "package p\n\nfunc f() {\n" + body + "\n}\n"
	f, err := parser.ParseFile(token.NewFileSet(), "f.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	fn := f.Decls[len(f.Decls)-1].(*ast.FuncDecl)
	return buildCFG(fn.Body)
}

// reachable walks the graph from entry.
func reachable(g *funcCFG) map[*cfgBlock]bool {
	seen := make(map[*cfgBlock]bool)
	var walk func(b *cfgBlock)
	walk = func(b *cfgBlock) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, e := range b.succs {
			walk(e)
		}
	}
	walk(g.entry)
	return seen
}

func TestCFGStraightLine(t *testing.T) {
	g := buildFromSource(t, "x := 1\n_ = x\nreturn")
	if g.unsupported {
		t.Fatal("straight-line body marked unsupported")
	}
	if len(g.blocks) != 1 {
		t.Fatalf("straight-line body built %d blocks, want 1", len(g.blocks))
	}
	if len(g.entry.nodes) != 3 {
		t.Fatalf("entry holds %d nodes, want 3 (assign, use, return)", len(g.entry.nodes))
	}
	if len(g.entry.succs) != 0 {
		t.Fatal("a returning block must have no successors")
	}
}

func TestCFGIfWithoutElseHasSkipEdge(t *testing.T) {
	g := buildFromSource(t, "x := 1\nif x > 0 {\n\tx = 2\n}\n_ = x")
	// entry --> then --> after; entry --> after.
	if len(g.entry.succs) != 2 {
		t.Fatalf("if head has %d successors, want 2", len(g.entry.succs))
	}
	then, after := g.entry.succs[0], g.entry.succs[1]
	if len(then.succs) != 1 || then.succs[0] != after {
		t.Fatal("the then block must flow into the block the if head skips to")
	}
}

func TestCFGIfElseJoins(t *testing.T) {
	g := buildFromSource(t, "x := 1\nif x > 0 {\n\tx = 2\n} else {\n\tx = 3\n}\n_ = x")
	seen := reachable(g)
	// entry, then, else, after: all live.
	if len(seen) != 4 {
		t.Fatalf("if/else reaches %d blocks, want 4", len(seen))
	}
}

func TestCFGForLoopBackEdge(t *testing.T) {
	g := buildFromSource(t, "for i := 0; i < 3; i++ {\n\t_ = i\n}")
	if g.unsupported {
		t.Fatal("for loop marked unsupported")
	}
	// Some block must point back at an earlier block (the loop edge).
	hasBack := false
	for _, blk := range g.blocks {
		for _, e := range blk.succs {
			if e.index <= blk.index && blk != g.entry {
				hasBack = true
			}
		}
	}
	if !hasBack {
		t.Fatal("for loop produced no back edge")
	}
}

func TestCFGBreakExitsLoop(t *testing.T) {
	g := buildFromSource(t, "for {\n\tbreak\n}\nreturn")
	// The return after the loop must be reachable: break targets the
	// after-block even when the loop has no exit condition.
	found := false
	for blk := range reachable(g) {
		for _, n := range blk.nodes {
			if _, ok := n.(*ast.ReturnStmt); ok {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("return after `for { break }` is unreachable in the CFG")
	}
}

func TestCFGSwitchWithoutDefaultHasSkipEdge(t *testing.T) {
	g := buildFromSource(t, "x := 1\nswitch x {\ncase 1:\n\tx = 2\n}\n_ = x")
	// The head must have one edge per clause plus the implicit
	// no-match edge.
	if len(g.entry.succs) != 2 {
		t.Fatalf("switch head has %d successors, want 2 (clause + no-match)", len(g.entry.succs))
	}
}

func TestCFGFallthroughChainsClauses(t *testing.T) {
	g := buildFromSource(t, "x := 1\nswitch x {\ncase 1:\n\tfallthrough\ncase 2:\n\tx = 9\ndefault:\n}\n_ = x")
	if g.unsupported {
		t.Fatal("fallthrough marked unsupported")
	}
	// Find the case-1 clause block (holds the literal 1) and check it
	// flows into the case-2 clause body rather than the join.
	var clause1 *cfgBlock
	for _, blk := range g.blocks {
		for _, n := range blk.nodes {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Value == "1" {
				clause1 = blk
			}
		}
	}
	if clause1 == nil {
		t.Fatal("case-1 clause block not found")
	}
	if len(clause1.succs) != 1 {
		t.Fatalf("case-1 clause has %d successors, want 1", len(clause1.succs))
	}
	next := clause1.succs[0]
	hasAssign := false
	for _, n := range next.nodes {
		if _, ok := n.(*ast.AssignStmt); ok {
			hasAssign = true
		}
	}
	if !hasAssign {
		t.Fatal("fallthrough does not chain into the next clause's body")
	}
}

func TestCFGSelectJoinsAllArms(t *testing.T) {
	g := buildFromSource(t, "ch := make(chan int)\nselect {\ncase <-ch:\ndefault:\n}\nreturn")
	seen := reachable(g)
	// Two arm blocks, the after block, and the entry must all be live.
	if len(seen) < 4 {
		t.Fatalf("select reaches %d blocks, want at least 4", len(seen))
	}
}

func TestCFGGotoMarksUnsupported(t *testing.T) {
	g := buildFromSource(t, "goto done\ndone:\nreturn")
	if !g.unsupported {
		t.Fatal("goto must mark the graph unsupported")
	}
}

func TestCFGPanicTerminates(t *testing.T) {
	g := buildFromSource(t, "x := 1\nif x > 0 {\n\tpanic(\"boom\")\n}\n_ = x")
	for _, blk := range g.blocks {
		for _, n := range blk.nodes {
			es, ok := n.(*ast.ExprStmt)
			if !ok {
				continue
			}
			call, ok := es.X.(*ast.CallExpr)
			if !ok {
				continue
			}
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" && len(blk.succs) != 0 {
				t.Fatal("panic block must have no successors")
			}
		}
	}
}

func TestCFGUnreachableCodeGetsOwnBlock(t *testing.T) {
	g := buildFromSource(t, "return\n_ = 1")
	// The dead statement must live somewhere (so the engine's walker
	// does not crash) but must not be reachable from entry.
	seen := reachable(g)
	dead := 0
	for _, blk := range g.blocks {
		if !seen[blk] && len(blk.nodes) > 0 {
			dead++
		}
	}
	if dead != 1 {
		t.Fatalf("unreachable statement landed in %d dead blocks, want 1", dead)
	}
}

func TestCFGLabeledBreak(t *testing.T) {
	g := buildFromSource(t, "outer:\nfor {\n\tfor {\n\t\tbreak outer\n\t}\n}\nreturn")
	if g.unsupported {
		t.Fatal("labeled break marked unsupported")
	}
	found := false
	for blk := range reachable(g) {
		for _, n := range blk.nodes {
			if _, ok := n.(*ast.ReturnStmt); ok {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("return after labeled break is unreachable in the CFG")
	}
}

func TestCFGContinueTargetsPost(t *testing.T) {
	g := buildFromSource(t, "for i := 0; i < 3; i++ {\n\tif i == 1 {\n\t\tcontinue\n\t}\n\t_ = i\n}")
	if g.unsupported {
		t.Fatal("continue marked unsupported")
	}
	// The post block (holding i++) must have at least two predecessors:
	// the body's fall-out and the continue.
	var post *cfgBlock
	for _, blk := range g.blocks {
		for _, n := range blk.nodes {
			if _, ok := n.(*ast.IncDecStmt); ok {
				post = blk
			}
		}
	}
	if post == nil {
		t.Fatal("post block not found")
	}
	preds := 0
	for _, blk := range g.blocks {
		for _, e := range blk.succs {
			if e == post {
				preds++
			}
		}
	}
	if preds < 2 {
		t.Fatalf("post block has %d predecessors, want >= 2 (fall-out + continue)", preds)
	}
}

func TestCFGGotoIntoLoopMarksUnsupported(t *testing.T) {
	// A goto that jumps into a loop body would create an edge the builder
	// has no context for; the whole graph must be skipped, not patched.
	g := buildFromSource(t, "goto inner\nfor {\ninner:\n\t_ = 1\n\tbreak\n}\nreturn")
	if !g.unsupported {
		t.Fatal("goto into a loop body must mark the graph unsupported")
	}
}

func TestCFGLabeledBreakOutOfNestedSelect(t *testing.T) {
	g := buildFromSource(t, "ch := make(chan int)\nouter:\nfor {\n\tselect {\n\tcase <-ch:\n\t\tbreak outer\n\tdefault:\n\t}\n}\nreturn")
	if g.unsupported {
		t.Fatal("labeled break out of a select marked unsupported")
	}
	// `break outer` must escape both the select and the loop: the return
	// after the loop is reachable only through it.
	found := false
	for blk := range reachable(g) {
		for _, n := range blk.nodes {
			if _, ok := n.(*ast.ReturnStmt); ok {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("return after `break outer` from a nested select is unreachable in the CFG")
	}
}

func TestCFGEmptyForLoopHasNoExit(t *testing.T) {
	g := buildFromSource(t, "for {\n}\n_ = 1")
	if g.unsupported {
		t.Fatal("empty for {} marked unsupported")
	}
	// With no condition and no break, the after block (holding the dead
	// assignment) must not be reachable from entry — the loop spins
	// forever and the engine must not merge post-loop state back in.
	seen := reachable(g)
	for blk := range seen {
		for _, n := range blk.nodes {
			if _, ok := n.(*ast.AssignStmt); ok {
				t.Fatal("statement after an empty for {} is reachable; the loop has no exit")
			}
		}
	}
	// The loop itself must still have its back edge.
	hasBack := false
	for blk := range seen {
		for _, e := range blk.succs {
			if e.index <= blk.index && blk != g.entry {
				hasBack = true
			}
		}
	}
	if !hasBack {
		t.Fatal("empty for {} produced no back edge")
	}
}

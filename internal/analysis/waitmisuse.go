// waitmisuse flags the two sync.WaitGroup placement disciplines this
// codebase's goroutine-join idiom (wg.Add(1); go ...; defer wg.Done();
// owner Close→Wait) depends on:
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
//
// Wait while holding a mutex is one of lockedsend's blocking operations.

package analysis

import "go/ast"

// WaitMisuse reports WaitGroup Add/Done placement bugs.
var WaitMisuse = &Analyzer{
	Name: "waitmisuse",
	Doc:  "sync.WaitGroup misuse: Add inside the spawned goroutine, or non-deferred Done",
	Run:  runWaitMisuse,
}

func runWaitMisuse(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if es, ok := n.(*ast.ExprStmt); ok {
				if call, ok := es.X.(*ast.CallExpr); ok && wgMethodCall(pass, call) == "Done" {
					pass.Reportf(call.Pos(), "WaitGroup.Done as a plain statement: a panic or early return before it leaves Wait blocked forever; use `defer %s.Done()` at the top of the goroutine", wgRecv(call))
				}
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

// Shared type- and AST-inspection helpers for the analyzers.

package analysis

import (
	"go/ast"
	"go/types"
)

// findImport locates a (transitive) dependency of pkg by import path.
func findImport(pkg *types.Package, path string) *types.Package {
	if pkg == nil {
		return nil
	}
	seen := make(map[*types.Package]bool)
	var walk func(p *types.Package) *types.Package
	walk = func(p *types.Package) *types.Package {
		if seen[p] {
			return nil
		}
		seen[p] = true
		for _, imp := range p.Imports() {
			if imp.Path() == path {
				return imp
			}
			if found := walk(imp); found != nil {
				return found
			}
		}
		return nil
	}
	return walk(pkg)
}

// exprString renders a restricted expression (identifier / selector /
// dereference chains) for use in diagnostics and as a mutex key.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.StarExpr:
		return exprString(e.X)
	case *ast.ParenExpr:
		return exprString(e.X)
	case *ast.CallExpr:
		return exprString(e.Fun) + "()"
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	default:
		return "<expr>"
	}
}

// methodOnType reports whether obj is a method whose receiver (after
// dereferencing) is the named type pkgPath.typeName.
func methodOnType(obj types.Object, pkgPath, typeName string) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj2 := named.Obj()
	return obj2.Name() == typeName && obj2.Pkg() != nil && obj2.Pkg().Path() == pkgPath
}

// isFloat reports whether t is (or has underlying) float32/float64.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	basic, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return basic.Info()&types.IsFloat != 0
}

// pkgFunc reports whether the call's callee resolves to pkgPath.name
// (a package-level function, e.g. time.Now).
func pkgFunc(info *types.Info, call *ast.CallExpr, pkgPath string, names map[string]bool) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	obj := info.Uses[sel.Sel]
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return "", false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return "", false
	}
	if !names[fn.Name()] {
		return "", false
	}
	return fn.Name(), true
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

// identVar resolves a plain (possibly parenthesised) identifier to the
// variable it names, or nil for any other expression.
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

// terminates reports whether a statement list cannot fall through to the
// statement after it (last statement is a return/branch/panic; blocks
// recurse).
func terminates(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	switch s := stmts[len(stmts)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.BlockStmt:
		return terminates(s.List)
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.IfStmt:
		if s.Else == nil {
			return false
		}
		var elseTerm bool
		switch e := s.Else.(type) {
		case *ast.BlockStmt:
			elseTerm = terminates(e.List)
		case *ast.IfStmt:
			elseTerm = terminates([]ast.Stmt{e})
		}
		return terminates(s.Body.List) && elseTerm
	}
	return false
}

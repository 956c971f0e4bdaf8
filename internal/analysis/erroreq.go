// erroreq guards the wrapped-error taxonomy (transport.ErrCorruptFrame,
// chunkstore.ErrFailed and friends are wrapped with %w and matched with
// errors.Is): direct ==/!= comparison against a sentinel error variable
// silently stops matching the moment anyone wraps the error, and
// fmt.Errorf passing an error through a non-%w verb severs the chain
// errors.Is walks. Nil comparisons stay legal — they test presence, not
// identity.

package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// ErrorEq flags sentinel-error comparisons and unwrapped Errorf chains.
var ErrorEq = &Analyzer{
	Name: "erroreq",
	Doc:  "sentinel errors must be matched with errors.Is and wrapped with %w",
	Run:  runErrorEq,
}

func runErrorEq(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				checkSentinelCompare(pass, n)
			case *ast.CallExpr:
				checkErrorfWrap(pass, n)
			}
			return true
		})
	}
}

// checkSentinelCompare flags err ==/!= ErrSentinel where ErrSentinel is
// a package-level error variable.
func checkSentinelCompare(pass *Pass, bin *ast.BinaryExpr) {
	if bin.Op != token.EQL && bin.Op != token.NEQ {
		return
	}
	x, y := ast.Unparen(bin.X), ast.Unparen(bin.Y)
	if isNilIdent(x) || isNilIdent(y) {
		return
	}
	for _, side := range []ast.Expr{x, y} {
		if name, ok := sentinelErrorVar(pass.Info, side); ok {
			pass.Reportf(bin.Pos(), "%s compared with %s: use errors.Is — wrapped taxonomy errors never compare equal", name, bin.Op)
			return
		}
	}
}

// sentinelErrorVar reports whether e resolves to a package-level
// variable of type error (the sentinel shape: var ErrX = errors.New).
func sentinelErrorVar(info *types.Info, e ast.Expr) (string, bool) {
	var id *ast.Ident
	switch e := e.(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return "", false
	}
	v, ok := info.Uses[id].(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return "", false
	}
	if !isErrorType(v.Type()) {
		return "", false
	}
	return v.Name(), true
}

func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	errIface, _ := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	return errIface != nil && types.Implements(t, errIface)
}

// checkErrorfWrap flags fmt.Errorf calls that format an error-typed
// argument through a verb other than %w.
func checkErrorfWrap(pass *Pass, call *ast.CallExpr) {
	if _, ok := pkgFunc(pass.Info, call, "fmt", map[string]bool{"Errorf": true}); !ok {
		return
	}
	if len(call.Args) < 2 || call.Ellipsis.IsValid() {
		return
	}
	tv, ok := pass.Info.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return
	}
	verbs, ok := formatVerbs(constant.StringVal(tv.Value))
	if !ok || len(verbs) != len(call.Args)-1 {
		return // indexed or mismatched format: not ours to judge
	}
	for i, verb := range verbs {
		if verb == 'w' || verb == 'T' {
			continue // %T prints the type, deliberately not the chain
		}
		arg := call.Args[i+1]
		if isErrorType(pass.Info.TypeOf(arg)) {
			pass.Reportf(arg.Pos(), "error %s formatted with %%%c: use %%w so the taxonomy stays matchable with errors.Is", exprString(arg), verb)
		}
	}
}

// formatVerbs returns one verb letter per consumed argument, in order.
// A '*' width/precision consumes an argument and contributes a '*'
// entry. Explicit argument indexes (%[1]d) abort the parse.
func formatVerbs(format string) ([]byte, bool) {
	var verbs []byte
	for i := 0; i < len(format); {
		if format[i] != '%' {
			i++
			continue
		}
		i++
		if i < len(format) && format[i] == '%' {
			i++
			continue
		}
		for i < len(format) && isFmtFlag(format[i]) {
			i++
		}
		if i < len(format) && format[i] == '*' {
			verbs = append(verbs, '*')
			i++
		} else {
			for i < len(format) && format[i] >= '0' && format[i] <= '9' {
				i++
			}
		}
		if i < len(format) && format[i] == '.' {
			i++
			if i < len(format) && format[i] == '*' {
				verbs = append(verbs, '*')
				i++
			} else {
				for i < len(format) && format[i] >= '0' && format[i] <= '9' {
					i++
				}
			}
		}
		if i < len(format) && format[i] == '[' {
			return nil, false
		}
		if i >= len(format) {
			break
		}
		verbs = append(verbs, format[i])
		i++
	}
	return verbs, true
}

func isFmtFlag(c byte) bool {
	switch c {
	case '+', '-', '#', ' ', '0':
		return true
	}
	return false
}

// metricreg enforces the DESIGN §10 metrics conventions: instrument
// names are lower_snake constants, and instruments are resolved once —
// at package or struct init — not re-resolved (a registry lock plus a
// map lookup) or, worse, dynamically named inside hot loops, which
// grows the registry without bound. A name declared as a `metric:"…"`
// struct tag (metrics.Bind resolves those, once per instance) is held to
// the same rule where it is declared; the metrics package itself, whose
// binder is the one caller that resolves names it was handed, is exempt.

package analysis

import (
	"go/ast"
	"go/constant"
	"reflect"
	"regexp"
	"strconv"
)

var metricNameRx = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

var metricResolvers = map[string]bool{
	"Counter":   true,
	"Gauge":     true,
	"Histogram": true,
}

// MetricReg flags metric-name and register-once violations.
var MetricReg = &Analyzer{
	Name: "metricreg",
	Doc:  "metric names are lower_snake constants resolved once, never built in hot loops (DESIGN §10)",
	Run:  runMetricReg,
}

func runMetricReg(pass *Pass) {
	if pass.ImportPath == "viper/internal/metrics" {
		return
	}
	for _, file := range pass.Files {
		var loopDepth int
		var stack []ast.Node
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				top := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				switch top.(type) {
				case *ast.ForStmt, *ast.RangeStmt:
					loopDepth--
				}
				return false
			}
			stack = append(stack, n)
			switch n := n.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				loopDepth++
			case *ast.CallExpr:
				checkMetricCall(pass, n, loopDepth > 0)
			case *ast.Field:
				if n.Tag == nil {
					break
				}
				tag, _ := strconv.Unquote(n.Tag.Value)
				if name, ok := reflect.StructTag(tag).Lookup("metric"); ok && !metricNameRx.MatchString(name) {
					pass.Reportf(n.Tag.Pos(), "metric name %q violates the lower_snake convention (DESIGN §10)", name)
				}
			}
			return true
		})
	}
}

func checkMetricCall(pass *Pass, call *ast.CallExpr, inLoop bool) {
	kind, ok := metricCallKind(pass, call)
	if !ok || len(call.Args) == 0 {
		return
	}
	nameArg := call.Args[0]
	tv, hasType := pass.Info.Types[nameArg]
	if !hasType || tv.Value == nil || tv.Value.Kind() != constant.String {
		if inLoop {
			pass.Reportf(nameArg.Pos(), "dynamic metric name built in a loop: each distinct name registers a new instrument forever (DESIGN §10)")
		} else {
			pass.Reportf(nameArg.Pos(), "metric name is not a constant: use a lower_snake string literal so the instrument set is static (DESIGN §10)")
		}
		return
	}
	name := constant.StringVal(tv.Value)
	if !metricNameRx.MatchString(name) {
		pass.Reportf(nameArg.Pos(), "metric name %q violates the lower_snake convention (DESIGN §10)", name)
	}
	if inLoop {
		pass.Reportf(call.Pos(), "%s resolved inside a loop: resolve the instrument once and reuse it (register-once, DESIGN §10)", kind)
	}
}

// metricCallKind matches metrics.NewRegistry and the Registry
// instrument resolvers, returning a label for diagnostics.
func metricCallKind(pass *Pass, call *ast.CallExpr) (string, bool) {
	if _, ok := pkgFunc(pass.Info, call, "viper/internal/metrics", map[string]bool{"NewRegistry": true}); ok {
		return "metrics.NewRegistry", true
	}
	fn := calleeFunc(pass.Info, call)
	if fn == nil || !metricResolvers[fn.Name()] {
		return "", false
	}
	if !methodOnType(fn, "viper/internal/metrics", "Registry") {
		return "", false
	}
	return "Registry." + fn.Name(), true
}

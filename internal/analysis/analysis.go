// Package analysis is viper-vet's driver framework: a small, stdlib-only
// static-analysis harness over go/ast + go/types that mechanically
// enforces the concurrency, virtual-time, layering, and numeric
// invariants this codebase has already paid for in bugs (see DESIGN.md
// §7). Each analyzer lives in its own file and registers itself in All.
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis at a
// much smaller scale — Analyzer, Pass, Diagnostic — so analyzers stay
// portable if the repo ever adopts the real thing, without taking the
// dependency today.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Position
	// Analyzer is the reporting analyzer's name (or "typecheck"/"lint"
	// for driver-level findings).
	Analyzer string
	// Message describes the violation.
	Message string
}

// String renders the canonical "file:line: [analyzer] message" form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Analyzer, d.Message)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	// Fset maps token.Pos values to file positions.
	Fset *token.FileSet
	// Files are the package's parsed non-test files.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info holds the type-checker's expression annotations.
	Info *types.Info
	// ImportPath is the package's import path (fixtures may override it
	// to probe path-scoped analyzers).
	ImportPath string
	// Prog is the batch-wide inter-procedural index (call graph and
	// lock summaries, DESIGN §7).
	Prog *Program

	analyzer string
	report   func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Dep returns the (possibly transitive) dependency with the given import
// path, or nil if the package does not depend on it.
func (p *Pass) Dep(path string) *types.Package {
	return findImport(p.Pkg, path)
}

// Analyzer is one named check.
type Analyzer struct {
	// Name is the identifier used in diagnostics and lint:ignore
	// directives.
	Name string
	// Doc is a one-line description of the guarded invariant.
	Doc string
	// Run inspects one package and reports findings via pass.Reportf.
	Run func(*Pass)
}

// All returns every registered analyzer, in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		ChanLife,
		CloseLeak,
		CtxFlow,
		ErrorEq,
		FloatEq,
		Layering,
		LockedSend,
		LockOrder,
		MetricReg,
		SimclockPurity,
		SpinLoop,
		WaitMisuse,
	}
}

// ByName resolves an analyzer name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Run applies analyzers to pkgs, drops the findings lint:ignore
// directives waive, and returns the rest sorted by position. Packages
// that failed to type-check contribute "typecheck" diagnostics (analyzers
// still run on them with whatever partial information survived, and are
// written to tolerate incomplete type info).
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	prog := newProgram(pkgs)
	for _, pkg := range pkgs {
		for _, err := range pkg.TypeErrors {
			diags = append(diags, typeErrorDiagnostic(err))
		}
		for _, a := range analyzers {
			a.Run(&Pass{
				Fset:       pkg.Fset,
				Files:      pkg.Files,
				Pkg:        pkg.Pkg,
				Info:       pkg.Info,
				ImportPath: pkg.ImportPath,
				Prog:       prog,
				analyzer:   a.Name,
				report:     func(d Diagnostic) { diags = append(diags, d) },
			})
		}
	}
	diags = applySuppressions(diags, pkgs)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags
}

func typeErrorDiagnostic(err error) Diagnostic {
	if terr, ok := err.(types.Error); ok {
		return Diagnostic{
			Pos:      terr.Fset.Position(terr.Pos),
			Analyzer: "typecheck",
			Message:  terr.Msg,
		}
	}
	return Diagnostic{Analyzer: "typecheck", Message: err.Error()}
}

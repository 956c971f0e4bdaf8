// Benchmark for the analysis suite itself. ci.sh smoke-runs it so the
// wall-time of a full pass over the repository stays visible: lockorder
// and chanlife iterate a per-function fixpoint, and a pathological
// regression there would otherwise only show up as a mysteriously slow
// CI gate.

package analysis

import (
	"path/filepath"
	"testing"
)

// loadRepo loads every package of the enclosing module once.
func loadRepo(b *testing.B) []*Package {
	b.Helper()
	l, err := NewLoader(".")
	if err != nil {
		b.Fatal(err)
	}
	pkgs, err := l.Load(filepath.Join(l.ModuleRoot(), "..."))
	if err != nil {
		b.Fatal(err)
	}
	return pkgs
}

// BenchmarkSuiteFull runs all registered analyzers over the whole
// repository (load cost excluded — parsing and type-checking happen
// once outside the timer, matching how the CLI amortizes them across
// analyzers).
func BenchmarkSuiteFull(b *testing.B) {
	pkgs := loadRepo(b)
	analyzers := All()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RunAll(pkgs, analyzers)
	}
}

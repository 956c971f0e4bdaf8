// The wall-time gate for the analysis suite itself: chanlife, lockedsend
// and lockorder iterate a per-function fixpoint and lockorder a bottom-up
// pass over the module call graph, and a pathological regression there
// would otherwise only show up as a mysteriously slow viper-vet step.

package analysis

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"viper/internal/leakcheck"
)

// suiteBudget is the wall time one full pass may take. A pass measures
// about 50 ms (median of 5, 2-core Xeon), so 250 ms is ~5x the measured
// cost: it rejects an accidental quadratic blowup without flaking on a
// loaded runner.
func suiteBudget(pass time.Duration) error {
	if pass > 250*time.Millisecond {
		return fmt.Errorf("full analysis suite pass took %v, budget 250ms", pass)
	}
	return nil
}

// TestGateSuiteBudget times one pass of every analyzer over the repository
// against suiteBudget. Load cost is excluded: parsing and type-checking
// happen once, as the CLI amortizes them across analyzers.
func TestGateSuiteBudget(t *testing.T) {
	leakcheck.OnlyWhenNamed(t, "TestGate")
	l := sharedLoader(t)
	pkgs, err := l.Load(filepath.Join(l.ModuleRoot(), "..."))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	Run(pkgs, All())
	pass := time.Since(start)
	t.Logf("full pass: %v", pass)
	if err := suiteBudget(pass); err != nil {
		t.Fatal(err)
	}
}

func TestSuiteBudgetGoesRed(t *testing.T) {
	if err := suiteBudget(250 * time.Millisecond); err != nil {
		t.Errorf("on the budget: %v", err)
	}
	if err := suiteBudget(250*time.Millisecond + 1); err == nil {
		t.Error("1ns over the budget passed")
	}
}

package analysis

import (
	"path/filepath"
	"testing"
)

// TestInferredSummariesOverRepo pins the inter-procedural layer to real
// in-tree functions under the storewriter rule. The relay's commit hands
// the finished build's store write handle to persistVersion, which
// discharges it through w.Commit. An escape-on-any-call heuristic goes
// blind at the `r.persistVersion(v, w)` call site — the Begin/Commit
// pairing crosses a function boundary it cannot see — while the summary
// proves param1=releases and carries the obligation through the call.
func TestInferredSummariesOverRepo(t *testing.T) {
	l := sharedLoader(t)
	pkgs, err := l.Load(filepath.Join(l.ModuleRoot(), "..."))
	if err != nil {
		t.Fatal(err)
	}
	prog := newProgram(pkgs)
	rule := pairbalanceRules[0]
	if rule.key != "storewriter" {
		t.Fatalf("pairbalance's rule is %q, want storewriter", rule.key)
	}
	found := false
	for fn, sum := range prog.ownSummariesFor(rule) {
		if fn.Pkg() == nil || fn.Pkg().Path() != "viper/internal/relay" || fn.Name() != "persistVersion" {
			continue
		}
		found = true
		if got := sum.paramEffect(1); got != effReleases {
			t.Errorf("relay Relay.persistVersion param1 inferred %v, want releases (w.Commit)", got)
		}
		if !prog.hasCaller(fn) {
			t.Errorf("Relay.persistVersion has no recorded module-local caller; commit calls it")
		}
	}
	if !found {
		t.Fatal("no inferred storewriter summary for the relay's persistVersion")
	}
}

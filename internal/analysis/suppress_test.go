// Edge cases for the lint:ignore suppression machinery: directives at
// file boundaries, directives in comment forms that are not directives,
// and directives mixing valid and unknown analyzer names.

package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// loadSnippet writes src to a temp package and loads it under a
// throwaway import path.
func loadSnippet(t *testing.T, src string) *Package {
	return loadSnippetAs(t, src, "fixture/suppressedge")
}

// loadSnippetAs is loadSnippet under an explicit (possibly synthetic
// module-internal) import path, for path-scoped analyzers.
func loadSnippetAs(t *testing.T, src, importPath string) *Package {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "fix.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := sharedLoader(t).LoadDir(dir, importPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.TypeErrors) > 0 {
		t.Fatalf("fixture does not type-check: %v", pkg.TypeErrors)
	}
	return pkg
}

// TestSuppressWaiverOnLastLineOfFile covers a trailing waiver on the
// file's final line, with no newline after it: the position math
// (directive line == finding line) must still suppress, and nothing may
// read past the end of the file.
func TestSuppressWaiverOnLastLineOfFile(t *testing.T) {
	src := "package fix\n\n" +
		"import \"sync\"\n\n" +
		"type box struct{ mu sync.Mutex }\n\n" +
		"func send(b *box, ch chan int) { b.mu.Lock(); ch <- 1 } //lint:ignore lockedsend waiver on the unterminated last line"
	diags := Run([]*Package{loadSnippet(t, src)}, []*Analyzer{LockedSend})
	if len(diags) != 0 {
		t.Fatalf("last-line waiver did not suppress: %v", diags)
	}
}

// TestSuppressStandaloneWaiverAsFinalLine covers a well-formed
// standalone directive as the file's last line: it covers the
// (nonexistent) line below, so it suppresses nothing, but it must not
// be reported as malformed either.
func TestSuppressStandaloneWaiverAsFinalLine(t *testing.T) {
	src := "package fix\n\n" +
		"import \"sync\"\n\n" +
		"type box struct{ mu sync.Mutex }\n\n" +
		"func send(b *box, ch chan int) { b.mu.Lock(); ch <- 1 }\n" +
		"//lint:ignore lockedsend dangling directive with nothing underneath"
	diags := Run([]*Package{loadSnippet(t, src)}, []*Analyzer{LockedSend})
	if len(diags) != 1 || diags[0].Analyzer != "lockedsend" {
		t.Fatalf("want the lockedsend finding to survive a dangling final-line directive, got %v", diags)
	}
}

// TestSuppressBlockCommentIsNotADirective covers /*lint:ignore ...*/:
// only line comments are directives, so the finding survives — and the
// block comment is not reported as malformed, because it never parses
// as a directive at all.
func TestSuppressBlockCommentIsNotADirective(t *testing.T) {
	src := `package fix

import "sync"

type box struct{ mu sync.Mutex }

func send(b *box, ch chan int) {
	b.mu.Lock()
	/*lint:ignore lockedsend block comments are not directives*/
	ch <- 1
	b.mu.Unlock()
}
`
	diags := Run([]*Package{loadSnippet(t, src)}, []*Analyzer{LockedSend})
	if len(diags) != 1 || diags[0].Analyzer != "lockedsend" {
		t.Fatalf("want exactly the surviving lockedsend finding, got %v", diags)
	}
}

// TestSuppressMixedKnownAndUnknownAnalyzers covers a directive naming a
// real analyzer alongside a typo: the whole directive is rejected (so
// the finding survives) and the typo is reported, keeping the gate
// un-disableable by near-miss waivers.
func TestSuppressMixedKnownAndUnknownAnalyzers(t *testing.T) {
	src := `package fix

import "sync"

type box struct{ mu sync.Mutex }

func send(b *box, ch chan int) {
	b.mu.Lock()
	//lint:ignore lockedsend,lockedsned one real name and one typo
	ch <- 1
	b.mu.Unlock()
}
`
	diags := Run([]*Package{loadSnippet(t, src)}, []*Analyzer{LockedSend})
	count := make(map[string]int)
	var lintMsg string
	for _, d := range diags {
		count[d.Analyzer]++
		if d.Analyzer == "lint" {
			lintMsg = d.Message
		}
	}
	if count["lockedsend"] != 1 || count["lint"] != 1 || len(diags) != 2 {
		t.Fatalf("diagnostic counts = %v (want lockedsend:1 lint:1), diags: %v", count, diags)
	}
	if !strings.Contains(lintMsg, "lockedsned") {
		t.Fatalf("lint diagnostic does not name the typo: %q", lintMsg)
	}
}

// TestSuppressAndRunAllDataflowAnalyzers covers the waiver contract for
// each of ctxflow, erroreq and metricreg: each snippet contains the same
// finding twice, one under a lint:ignore directive, and Run must return
// exactly the live one.
func TestSuppressAndRunAllDataflowAnalyzers(t *testing.T) {
	cases := []struct {
		analyzer   *Analyzer
		importPath string
		src        string
	}{
		{CtxFlow, "viper/internal/ctxfix", `package fix

import "context"

func waived() {
	//lint:ignore ctxflow reviewed: root context is deliberate here
	_ = context.Background()
}

func live() {
	_ = context.Background()
}
`},
		{ErrorEq, "viper/internal/errfix", `package fix

import "errors"

var ErrOverloaded = errors.New("overloaded")

func waived(err error) bool {
	//lint:ignore erroreq reviewed: identity compare is intentional
	return err == ErrOverloaded
}

func live(err error) bool {
	return err == ErrOverloaded
}
`},
		{MetricReg, "viper/internal/metfix", `package fix

import "viper/internal/metrics"

var reg = metrics.NewRegistry("fix")

func waived() {
	//lint:ignore metricreg reviewed: legacy dashboard name
	reg.Counter("BadName")
}

func live() {
	reg.Counter("BadName")
}
`},
	}
	for _, c := range cases {
		t.Run(c.analyzer.Name, func(t *testing.T) {
			pkg := loadSnippetAs(t, c.src, c.importPath)
			// The live finding sits on the line after `func live`.
			liveLine := strings.Count(c.src[:strings.Index(c.src, "func live")], "\n") + 2
			live := Run([]*Package{pkg}, []*Analyzer{c.analyzer})
			if len(live) != 1 || live[0].Analyzer != c.analyzer.Name || live[0].Pos.Line != liveLine {
				t.Fatalf("Run = %v, want exactly the one live %s finding, on line %d", live, c.analyzer.Name, liveLine)
			}
		})
	}
}

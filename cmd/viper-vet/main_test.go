package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"viper/internal/analysis"
)

// writeTestModule lays out a throwaway module with one clean package,
// one package carrying a lockedsend violation (mutex held across a
// channel send) and one whose violation carries a waiver, then makes it
// the working directory. A package beside the module lies outside it.
func writeTestModule(t *testing.T) {
	t.Helper()
	root := t.TempDir()
	files := map[string]string{
		"outside/outside.go": "package outside\n",
		"mod/go.mod":         "module tmpmod\n\ngo 1.24\n",
		"mod/clean/clean.go": `package clean

func Add(a, b int) int { return a + b }
`,
		"mod/dirty/dirty.go": `package dirty

import "sync"

type box struct{ mu sync.Mutex }

func send(b *box, ch chan int) {
	b.mu.Lock()
	ch <- 1
	b.mu.Unlock()
}
`,
		"mod/waived/waived.go": `package waived

import "sync"

type box struct{ mu sync.Mutex }

func send(b *box, ch chan int) {
	b.mu.Lock()
	//lint:ignore lockedsend reviewed: fixture for the waiver exit-code test
	ch <- 1
	b.mu.Unlock()
}
`,
	}
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Chdir(filepath.Join(root, "mod"))
}

// runVet invokes the CLI in-process and returns its exit code and
// captured streams.
func runVet(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestPkgsScopesToListedPackages: the packages named on the command line
// are exactly the ones analyzed. Exit 0 when they are clean (a waived
// finding included), 1 with the finding printed when one is not.
func TestPkgsScopesToListedPackages(t *testing.T) {
	writeTestModule(t)
	for _, args := range [][]string{{"./clean"}, {"./waived"}, {"./clean", "./waived"}} {
		if code, stdout, stderr := runVet(t, args...); code != 0 || stdout != "" {
			t.Fatalf("%v: exit %d, stdout %q, stderr %q; want 0 and no output", args, code, stdout, stderr)
		}
	}
	for _, args := range [][]string{{"./dirty"}, {"./clean", "./dirty"}, {}} {
		code, stdout, _ := runVet(t, args...)
		if code != 1 || !strings.HasPrefix(stdout, filepath.Join("dirty", "dirty.go")+":9: [lockedsend] ") {
			t.Fatalf("%v: exit %d, stdout %q; want 1 and the dirty/dirty.go:9 finding", args, code, stdout)
		}
	}
}

// TestPkgsRejectsBadInput: a pattern that matches no package, one outside
// the module, and an unknown flag are usage errors (exit 2), not silent
// no-ops a CI wrapper could misread as clean.
func TestPkgsRejectsBadInput(t *testing.T) {
	writeTestModule(t)
	for _, args := range [][]string{{"./nosuch"}, {"../outside"}, {"./clean", "./nosuch"}, {"-json", "./clean"}} {
		if code, _, _ := runVet(t, args...); code != 2 {
			t.Fatalf("args %v: exit %d, want 2", args, code)
		}
	}
	code, _, stderr := runVet(t, "-h")
	if code != 2 || !strings.Contains(stderr, "lockedsend") {
		t.Fatalf("-h: exit %d, stderr %q; want 2 and the analyzer catalog", code, stderr)
	}
}

// TestListIsAnalyzersTxt: the registered analyzers are exactly the
// checked-in list. A refactor that silently drops one from All() would
// otherwise pass viper-vet forever; retiring one on purpose is a reviewed
// one-line diff to analyzers.txt.
func TestListIsAnalyzersTxt(t *testing.T) {
	want, err := os.ReadFile("analyzers.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, a := range analysis.All() {
		got.WriteString(a.Name + "\n")
	}
	if got.String() != string(want) {
		t.Fatalf("analysis.All() names\n%swant analyzers.txt\n%s", got.String(), want)
	}
}

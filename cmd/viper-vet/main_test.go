package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTestModule lays out a throwaway module with one clean package
// and one package carrying a lockedsend violation (mutex held across a
// channel send), then makes it the working directory.
func writeTestModule(t *testing.T) {
	t.Helper()
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.24\n",
		"clean/clean.go": `package clean

func Add(a, b int) int { return a + b }
`,
		"dirty/dirty.go": `package dirty

import "sync"

type box struct{ mu sync.Mutex }

func send(b *box, ch chan int) {
	b.mu.Lock()
	ch <- 1
	b.mu.Unlock()
}
`,
		"testonly/only_test.go": `package testonly

import "testing"

func TestNothing(t *testing.T) {}
`,
		"waived/waived.go": `package waived

import "sync"

type box struct{ mu sync.Mutex }

func send(b *box, ch chan int) {
	b.mu.Lock()
	//lint:ignore lockedsend reviewed: fixture for the -json artifact test
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
	t.Chdir(root)
}

// runVet invokes the CLI in-process and returns its exit code and
// captured streams.
func runVet(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestPkgsScopesToListedPackages: -pkgs restricts the run to exactly
// the listed packages, accepting both full import paths and
// module-relative names.
func TestPkgsScopesToListedPackages(t *testing.T) {
	writeTestModule(t)
	if code, _, stderr := runVet(t, "-pkgs", "tmpmod/clean"); code != 0 {
		t.Fatalf("clean package: exit %d, stderr %q", code, stderr)
	}
	code, stdout, _ := runVet(t, "-pkgs", "dirty")
	if code != 1 {
		t.Fatalf("dirty package: exit %d, want 1", code)
	}
	if !strings.Contains(stdout, "[lockedsend]") {
		t.Fatalf("dirty package output missing the finding: %q", stdout)
	}
	// Both at once still finds the dirty package's violation.
	if code, stdout, _ = runVet(t, "-pkgs", "clean,dirty"); code != 1 || !strings.Contains(stdout, "[lockedsend]") {
		t.Fatalf("clean,dirty: exit %d output %q", code, stdout)
	}
}

// TestPkgsRejectsBadInput: unknown packages, escapes from the module,
// empty lists, and mixing -pkgs with positional patterns are all usage
// errors (exit 2), not silent no-ops a CI wrapper could misread as
// clean.
func TestPkgsRejectsBadInput(t *testing.T) {
	writeTestModule(t)
	for _, args := range [][]string{
		{"-pkgs", "nosuch"},
		{"-pkgs", "../outside"},
		{"-pkgs", " , "},
		{"-pkgs", "clean", "./..."},
	} {
		if code, _, _ := runVet(t, args...); code != 2 {
			t.Fatalf("args %v: exit %d, want 2", args, code)
		}
	}
}

// TestJSONOutputWithPkgs: -json emits one object per finding with the
// documented fields, and a waived finding appears with suppressed=true
// while the exit code stays 0.
func TestJSONOutputWithPkgs(t *testing.T) {
	writeTestModule(t)
	code, stdout, _ := runVet(t, "-json", "-pkgs", "dirty")
	if code != 1 {
		t.Fatalf("dirty -json: exit %d, want 1", code)
	}
	findings := parseJSONFindings(t, stdout)
	if len(findings) != 1 || findings[0].Analyzer != "lockedsend" || findings[0].Suppressed {
		t.Fatalf("dirty -json findings = %+v", findings)
	}
	if findings[0].File == "" || findings[0].Line == 0 || findings[0].Message == "" {
		t.Fatalf("dirty -json finding has empty fields: %+v", findings[0])
	}

	code, stdout, _ = runVet(t, "-json", "-pkgs", "waived")
	if code != 0 {
		t.Fatalf("waived -json: exit %d, want 0", code)
	}
	findings = parseJSONFindings(t, stdout)
	if len(findings) != 1 || !findings[0].Suppressed {
		t.Fatalf("waived -json must still record the suppressed finding, got %+v", findings)
	}
}

func parseJSONFindings(t *testing.T, stdout string) []jsonFinding {
	t.Helper()
	var findings []jsonFinding
	sc := bufio.NewScanner(strings.NewReader(stdout))
	for sc.Scan() {
		var f jsonFinding
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		findings = append(findings, f)
	}
	return findings
}

// TestListAndAnalyzerSelection: -list names all registered analyzers,
// and -only/-skip reject unknown names.
func TestListAndAnalyzerSelection(t *testing.T) {
	writeTestModule(t)
	code, stdout, _ := runVet(t, "-list")
	if code != 0 {
		t.Fatalf("-list: exit %d", code)
	}
	for _, name := range []string{"chanlife", "lockorder", "ctxflow", "erroreq", "metricreg", "lockedsend"} {
		if !strings.Contains(stdout, name) {
			t.Fatalf("-list output missing %q:\n%s", name, stdout)
		}
	}
	if code, _, _ := runVet(t, "-only", "nosuchanalyzer", "-pkgs", "clean"); code != 2 {
		t.Fatal("-only with an unknown analyzer must exit 2")
	}
	if code, _, _ := runVet(t, "-skip", "nosuchanalyzer", "-pkgs", "clean"); code != 2 {
		t.Fatal("-skip with an unknown analyzer must exit 2")
	}
	// Skipping the only violated analyzer turns the dirty package clean.
	if code, _, _ := runVet(t, "-skip", "lockedsend", "-pkgs", "dirty"); code != 0 {
		t.Fatal("-skip lockedsend must silence the dirty package")
	}
}

// listedNames checks that the first column of -list output is exactly the
// names in want, one a line.
func listedNames(list, want string) error {
	var got strings.Builder
	for _, line := range strings.Split(strings.TrimSpace(list), "\n") {
		name, _, _ := strings.Cut(line, " ")
		got.WriteString(name + "\n")
	}
	if got.String() != want {
		return fmt.Errorf("viper-vet -list names\n%swant analyzers.txt\n%s", got.String(), want)
	}
	return nil
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
	code, stdout, _ := runVet(t, "-list")
	if code != 0 {
		t.Fatalf("-list: exit %d", code)
	}
	if err := listedNames(stdout, string(want)); err != nil {
		t.Fatal(err)
	}
	for _, red := range []string{"chanlife\n", string(want) + "poolown\n"} {
		if listedNames(stdout, red) == nil {
			t.Errorf("-list passed against %q", red)
		}
	}
}

// TestPkgsLoadsTestOnlyPackage: a -pkgs entry whose directory holds
// only test files used to fail the whole run; now it warns on stderr
// and analyzes the in-package tests.
func TestPkgsLoadsTestOnlyPackage(t *testing.T) {
	writeTestModule(t)
	code, _, stderr := runVet(t, "-pkgs", "testonly")
	if code != 0 {
		t.Fatalf("test-only package: exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(stderr, "only test files") {
		t.Fatalf("expected a test-only warning on stderr, got %q", stderr)
	}
	// Listed alongside a normal package it still contributes, and the
	// normal package's findings are unaffected.
	code, stdout, stderr := runVet(t, "-pkgs", "testonly,dirty")
	if code != 1 || !strings.Contains(stdout, "[lockedsend]") {
		t.Fatalf("testonly,dirty: exit %d stdout %q stderr %q", code, stdout, stderr)
	}
}

// TestTimingBreakdown: -timing appends one wall-time line per analyzer
// (text), or one {timing, analyzer, ms} object per analyzer with -json.
func TestTimingBreakdown(t *testing.T) {
	writeTestModule(t)
	code, stdout, stderr := runVet(t, "-timing", "-only", "lockedsend,spinloop", "-pkgs", "clean")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	for _, name := range []string{"lockedsend", "spinloop"} {
		if !strings.Contains(stdout, name) {
			t.Fatalf("timing table missing %s: %q", name, stdout)
		}
	}
	if !strings.Contains(stdout, "ms") {
		t.Fatalf("timing table missing a ms column: %q", stdout)
	}

	code, stdout, _ = runVet(t, "-timing", "-json", "-only", "lockedsend", "-pkgs", "dirty")
	if code != 1 {
		t.Fatalf("dirty -json -timing: exit %d, want 1", code)
	}
	var sawFinding, sawTiming bool
	sc := bufio.NewScanner(strings.NewReader(stdout))
	for sc.Scan() {
		var rec struct {
			Timing   bool    `json:"timing"`
			Analyzer string  `json:"analyzer"`
			Millis   float64 `json:"ms"`
			Message  string  `json:"message"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad JSON line %q: %v", sc.Text(), err)
		}
		if rec.Timing {
			sawTiming = true
			if rec.Analyzer != "lockedsend" || rec.Millis < 0 {
				t.Fatalf("bad timing record: %q", sc.Text())
			}
		} else if rec.Message != "" {
			sawFinding = true
		}
	}
	if !sawFinding || !sawTiming {
		t.Fatalf("want both finding and timing records, got finding=%v timing=%v in %q", sawFinding, sawTiming, stdout)
	}
}

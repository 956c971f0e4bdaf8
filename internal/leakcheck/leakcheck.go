// Package leakcheck is the goroutine-lifecycle gate: a goleak-style
// verifier that fails a test binary whose goroutines outlive its tests.
//
// Usage, from a package's TestMain:
//
//	func TestMain(m *testing.M) {
//		os.Exit(leakcheck.Main(m))
//	}
//
// After m.Run succeeds, Main snapshots every goroutine stack via
// runtime.Stack, filters the known-stable ones (the test runner itself,
// runtime internals, this package), and — because goroutines wind down
// asynchronously — retries with exponential backoff on the real clock
// for a bounded window before declaring the survivors leaked. On
// failure it prints each offending stack and returns a non-zero exit
// code, so the leak fails CI with the evidence attached.
//
// The backoff deliberately uses time.Sleep, not simclock: leakcheck
// polls the actual runtime scheduler, which only advances in real time.
// (The package imports neither simclock nor anything else from the
// repo, so the simclockpurity analyzer's scope never includes it.)
//
// Only test files import this package, so it also holds the one rule by
// which a test runs only when named (OnlyWhenNamed).
package leakcheck

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Option adjusts a single Main run.
type Option func(*config)

type config struct {
	deadline time.Duration
	ignores  []string
}

// IgnoreFunc skips goroutines whose stack contains substr — for a
// package with a known-benign background goroutine it cannot join
// (document why at the call site).
func IgnoreFunc(substr string) Option {
	return func(c *config) { c.ignores = append(c.ignores, substr) }
}

// Deadline bounds how long Main waits for goroutines to wind down
// (default 5s).
func Deadline(d time.Duration) Option {
	return func(c *config) { c.deadline = d }
}

// OnlyWhenNamed skips t unless the -run pattern contains word: the
// interleaving reruns (word "TestInterleavings") and the runtime gates
// (word "TestGate") cost seconds and repeat or time what the plain pass
// already ran, so `go test ./...` skips them and ci.sh names them.
func OnlyWhenNamed(t testing.TB, word string) {
	t.Helper()
	if f := flag.Lookup("test.run"); f == nil || !strings.Contains(f.Value.String(), word) {
		t.Skipf("runs when named: go test -run %s", word)
	}
}

// Main runs m and then verifies no test-spawned goroutine survived.
// It returns the process exit code: m's own code when tests fail, 1
// when tests pass but goroutines leaked, 0 otherwise.
func Main(m *testing.M, opts ...Option) int {
	code := m.Run()
	if code != 0 {
		return code
	}
	cfg := config{deadline: 5 * time.Second}
	for _, opt := range opts {
		opt(&cfg)
	}
	leaked := check(cfg)
	if len(leaked) == 0 {
		return 0
	}
	fmt.Fprintf(os.Stderr, "leakcheck: %d goroutine(s) outlived the tests:\n\n", len(leaked))
	for _, stack := range leaked {
		fmt.Fprintf(os.Stderr, "%s\n\n", stack)
	}
	return 1
}

// check snapshots the goroutines still running and returns the stacks
// that survive filtering and the retry window.
func check(cfg config) []string {
	// Goroutines exit asynchronously: a test's Close() may have returned
	// while its server goroutine is still between its last select and
	// goexit. Retry with growing pauses until the survivors are stable
	// or the deadline passes; only then are they leaks.
	deadline := time.Now().Add(cfg.deadline)
	pause := time.Millisecond
	for {
		leaked := interestingStacks(cfg)
		if len(leaked) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return leaked
		}
		time.Sleep(pause)
		if pause < 100*time.Millisecond {
			pause *= 2
		}
	}
}

// interestingStacks returns the current goroutine stacks that are not
// known-stable.
func interestingStacks(cfg config) []string {
	var leaked []string
	for _, stack := range allStacks() {
		if stableStack(stack) || ignoredStack(stack, cfg.ignores) {
			continue
		}
		leaked = append(leaked, stack)
	}
	return leaked
}

// allStacks captures every goroutine's stack, one string per goroutine.
func allStacks() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, len(buf)*2)
	}
	return strings.Split(strings.TrimSpace(string(buf)), "\n\n")
}

// stableFrames are substrings of stacks that belong to the test binary's
// own machinery rather than code under test. A goroutine whose stack
// contains any of them is never reported.
var stableFrames = []string{
	// The goroutine calling runtime.Stack — leakcheck itself, which at
	// snapshot time is the main goroutine inside TestMain. Matched by the
	// specific snapshot frame, not the package prefix, so leakcheck's own
	// test goroutines stay visible to its tests.
	"viper/internal/leakcheck.allStacks(",
	// The testing framework's runner and the main goroutine waiting in
	// testing.(*M).Run.
	"testing.Main(",
	"testing.(*M).Run",
	"testing.tRunner",
	"testing.runTests",
	"testing.(*T).Run",
	// Benchmark machinery, when -bench runs under the same TestMain.
	"testing.(*B).run1",
	"testing.(*B).doBench",
	// Runtime-owned background workers.
	"runtime.goexit",
	"runtime.gc",
	"runtime.bgsweep",
	"runtime.bgscavenge",
	"runtime.forcegchelper",
	"runtime.MHeap_Scavenger",
	"runtime/trace.Start",
	"signal.signal_recv",
	"os/signal.loop",
	"runtime.ensureSigM",
	"runtime.ReadTrace",
	// go test -cover's counter flusher.
	"runtime/coverage.",
	"internal/coverage.",
}

// stableStack reports whether stack belongs to test/runtime machinery.
// The first line of a goroutine stack is "goroutine N [state]:"; a
// goroutine parked in any stable frame is not a leak.
func stableStack(stack string) bool {
	if stack == "" {
		return true
	}
	for _, frame := range stableFrames {
		if strings.Contains(stack, frame) {
			return true
		}
	}
	return false
}

func ignoredStack(stack string, ignores []string) bool {
	for _, substr := range ignores {
		if strings.Contains(stack, substr) {
			return true
		}
	}
	return false
}

// Golden-fixture harness: each fixture directory under testdata/src is
// loaded (optionally under a synthetic import path, so path-scoped
// analyzers can be probed) and run through exactly one analyzer. Every
// expected finding is marked in the fixture with a trailing
//
//	// want "regexp"
//
// comment on the offending line; the harness fails on any unmatched
// want and on any diagnostic without a want.

package analysis

import (
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

var (
	loaderOnce sync.Once
	sharedL    *Loader
	loaderErr  error
)

// sharedLoader hands every test the same Loader so the stdlib and the
// repo's own packages are type-checked once per test binary.
func sharedLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() { sharedL, loaderErr = NewLoader(".") })
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	return sharedL
}

func TestGoldenLockedSend(t *testing.T) {
	runGolden(t, LockedSend, "testdata/src/lockedsend", "fixture/lockedsend")
}

func TestGoldenSpinLoop(t *testing.T) {
	runGolden(t, SpinLoop, "testdata/src/spinloop", "fixture/spinloop")
}

func TestGoldenSimclockPurity(t *testing.T) {
	// inscope depends on simclock and is inside viper/internal/, so its
	// wall-clock calls are flagged; outscope has no simclock dependency.
	runGolden(t, SimclockPurity, "testdata/src/simclockpurity/inscope", "viper/internal/simfix")
	runGolden(t, SimclockPurity, "testdata/src/simclockpurity/outscope", "viper/internal/plainfix")
}

func TestGoldenLayering(t *testing.T) {
	runGolden(t, Layering, "testdata/src/layering/mathbad", "viper/internal/tensor")
	runGolden(t, Layering, "testdata/src/layering/simclockbad", "viper/internal/simclock")
	runGolden(t, Layering, "testdata/src/layering/metricsbad", "viper/internal/metrics")
	runGolden(t, Layering, "testdata/src/layering/bufpoolbad", "viper/internal/bufpool")
	runGolden(t, Layering, "testdata/src/layering/corebad", "viper/internal/vformat")
	runGolden(t, Layering, "testdata/src/layering/storebad", "viper/internal/chunkstore")
	// The same clean fixture is legal both as a whitelisted core importer
	// and as a cmd/ package outside the internal layering rules.
	runGolden(t, Layering, "testdata/src/layering/clean", "viper/internal/remote")
	runGolden(t, Layering, "testdata/src/layering/clean", "viper/cmd/demo")
}

func TestGoldenCloseLeak(t *testing.T) {
	runGolden(t, CloseLeak, "testdata/src/closeleak", "fixture/closeleak")
}

func TestGoldenWaitMisuse(t *testing.T) {
	runGolden(t, WaitMisuse, "testdata/src/waitmisuse", "fixture/waitmisuse")
}

func TestGoldenFloatEq(t *testing.T) {
	runGolden(t, FloatEq, "testdata/src/floateq/scoped", "viper/internal/tensor")
	// curvefit entered the scope in PR 7; the same fixture flags there.
	runGolden(t, FloatEq, "testdata/src/floateq/scoped", "viper/internal/curvefit")
	runGolden(t, FloatEq, "testdata/src/floateq/unscoped", "viper/internal/trace")
}

func TestGoldenCtxFlow(t *testing.T) {
	runGolden(t, CtxFlow, "testdata/src/ctxflow/inscope", "viper/internal/ctxfix")
	// package main is exempt under both a cmd/ path and an internal path.
	runGolden(t, CtxFlow, "testdata/src/ctxflow/outscope", "viper/cmd/ctxtool")
	runGolden(t, CtxFlow, "testdata/src/ctxflow/outscope", "viper/internal/ctxout")
}

func TestGoldenErrorEq(t *testing.T) {
	runGolden(t, ErrorEq, "testdata/src/erroreq", "viper/internal/errfix")
}

func TestGoldenMetricReg(t *testing.T) {
	runGolden(t, MetricReg, "testdata/src/metricreg", "viper/internal/metfix")
}

// runGolden loads dir under importPath, runs exactly one analyzer, and
// matches the resulting diagnostics against the fixture's want comments.
func runGolden(t *testing.T, a *Analyzer, dir, importPath string) {
	t.Helper()
	l := sharedLoader(t)
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatalf("abs %s: %v", dir, err)
	}
	pkg, err := l.LoadDir(abs, importPath)
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}
	if len(pkg.TypeErrors) > 0 {
		t.Fatalf("fixture %s does not type-check: %v", dir, pkg.TypeErrors)
	}
	diags := Run([]*Package{pkg}, []*Analyzer{a})
	wants := parseWants(t, pkg)

	matched := make([]bool, len(diags))
	for _, w := range wants {
		found := false
		for i, d := range diags {
			if matched[i] || d.Pos.Filename != w.file || d.Pos.Line != w.line {
				continue
			}
			if w.rx.MatchString(d.Message) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s:%d: no %s diagnostic matching %q (as %s)", w.file, w.line, a.Name, w.rx, importPath)
		}
	}
	for i, d := range diags {
		if !matched[i] {
			t.Errorf("unexpected diagnostic (as %s): %s", importPath, d)
		}
	}
}

type wantExpectation struct {
	file string
	line int
	rx   *regexp.Regexp
}

var wantQuoted = regexp.MustCompile(`"([^"]*)"`)

// parseWants extracts `// want "rx" ["rx" ...]` expectations from the
// fixture's comments; the expectation applies to the comment's own line.
func parseWants(t *testing.T, pkg *Package) []wantExpectation {
	t.Helper()
	var wants []wantExpectation
	for _, file := range pkg.Files {
		for _, group := range file.Comments {
			for _, c := range group.List {
				payload, ok := strings.CutPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), "want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				quoted := wantQuoted.FindAllStringSubmatch(payload, -1)
				if len(quoted) == 0 {
					t.Fatalf("%s:%d: want comment without a quoted regexp", pos.Filename, pos.Line)
				}
				for _, q := range quoted {
					rx, err := regexp.Compile(q[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, q[1], err)
					}
					wants = append(wants, wantExpectation{file: pos.Filename, line: pos.Line, rx: rx})
				}
			}
		}
	}
	return wants
}

func TestGoldenLockOrder(t *testing.T) {
	runGolden(t, LockOrder, "testdata/src/lockorder", "viper/internal/transport")
}

func TestGoldenChanLife(t *testing.T) {
	runGolden(t, ChanLife, "testdata/src/chanlife", "viper/internal/pubsub")
}

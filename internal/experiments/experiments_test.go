package experiments

import (
	"os"
	"strings"
	"testing"
	"time"

	"viper/internal/core"
)

func TestTrainWorkloadAllApps(t *testing.T) {
	for _, w := range []Workload{WorkloadNT3, WorkloadTC1, WorkloadPtychoNN} {
		run, err := TrainWorkload(w, 2, 5)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if len(run.Losses) != 2*run.ItersPerEpoch {
			t.Fatalf("%s: %d losses, want %d", w, len(run.Losses), 2*run.ItersPerEpoch)
		}
		for _, l := range run.Losses {
			if l < 0 {
				t.Fatalf("%s: negative loss %v", w, l)
			}
		}
	}
	if _, err := TrainWorkload("bogus", 1, 1); err == nil {
		t.Fatal("unknown workload must error")
	}
}

func TestTrainWorkloadTC1EpochLength(t *testing.T) {
	run, err := TrainWorkload(WorkloadTC1, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if run.ItersPerEpoch != 216 {
		t.Fatalf("TC1 iterations per epoch = %d, want the paper's 216", run.ItersPerEpoch)
	}
}

func TestSmoothedLosses(t *testing.T) {
	in := []float64{1, 0, 0, 0}
	out := SmoothedLosses(in, 0.5)
	if len(out) != 4 || out[0] != 1 {
		t.Fatalf("smoothed = %v", out)
	}
	for i := 1; i < len(out); i++ {
		if out[i] >= out[i-1] {
			t.Fatalf("smoothing of decaying series must decay: %v", out)
		}
	}
	if got := SmoothedLosses(nil, 0.5); len(got) != 0 {
		t.Fatalf("empty input gives %v", got)
	}
}

func TestFitWarmupRejectsBadWindow(t *testing.T) {
	if _, _, _, err := FitWarmup([]float64{1, 2}, 10); err == nil {
		t.Fatal("warm-up beyond history must error")
	}
	if _, _, _, err := FitWarmup(make([]float64, 10), 2); err == nil {
		t.Fatal("tiny warm-up must error")
	}
}

func TestFig5SelectsWellExtrapolatingFamily(t *testing.T) {
	res, err := RunFig5(DefaultFig5Config())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fits) != 4 {
		t.Fatalf("fitted %d families, want 4", len(res.Fits))
	}
	bestExtrap := res.ExtrapolationMSE[res.Best]
	for name, mse := range res.ExtrapolationMSE {
		if name == res.Best {
			continue
		}
		if mse < bestExtrap/2 {
			t.Fatalf("family %s extrapolates (%.3g) far better than the selected %s (%.3g)",
				name, mse, res.Best, bestExtrap)
		}
	}
	if !strings.Contains(res.Format(), "selected") {
		t.Fatal("Format must mark the selected family")
	}
}

func TestFig6TimesPositiveAndBulkStable(t *testing.T) {
	cfg := DefaultFig6Config()
	cfg.Iterations = 60
	cfg.Inferences = 60
	res, err := RunFig6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TrainMean <= 0 || res.InferMean <= 0 {
		t.Fatalf("means = %v / %v", res.TrainMean, res.InferMean)
	}
	if len(res.TrainTimes) != 60 || len(res.InferTimes) != 60 {
		t.Fatalf("series lengths %d/%d", len(res.TrainTimes), len(res.InferTimes))
	}
	// The paper's claim is approximate constancy; allow generous CI
	// noise but require the interquartile bulk within 150% of median.
	if !MedianStable(res.TrainTimes, 1.5) {
		t.Error("training times wildly unstable")
	}
	if !MedianStable(res.InferTimes, 1.5) {
		t.Error("inference times wildly unstable")
	}
	if !strings.Contains(res.Format(), "Figure 6") {
		t.Fatal("Format output malformed")
	}
}

func TestFig6RejectsBadConfig(t *testing.T) {
	if _, err := RunFig6(Fig6Config{Iterations: 1, Inferences: 10}); err == nil {
		t.Fatal("must reject too-few iterations")
	}
}

// TestFig8Golden pins Figure 8 to the byte: the table `viper-bench -exp
// fig8` prints, minus its "[… completed in …]" footer. Every number in it
// is charged on the virtual clock, so any change to the modelled link, the
// tiers or the encoders that moves a latency shows up here.
func TestFig8Golden(t *testing.T) {
	res, err := RunFig8()
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/fig8.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Format() + "\n"; got != string(want) {
		t.Fatalf("Figure 8 drifted from testdata/fig8.golden:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestFig8PaperShape(t *testing.T) {
	res, err := RunFig8()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Models) != 3 {
		t.Fatalf("models = %d, want 3", len(res.Models))
	}
	for _, m := range res.Models {
		baseline := m.Find(core.Strategy{Route: core.RoutePFS, Baseline: true})
		pfs := m.Find(core.Strategy{Route: core.RoutePFS})
		hostSync := m.Find(core.Strategy{Route: core.RouteHost, Mode: core.ModeSync})
		hostAsync := m.Find(core.Strategy{Route: core.RouteHost, Mode: core.ModeAsync})
		gpuSync := m.Find(core.Strategy{Route: core.RouteGPU, Mode: core.ModeSync})
		gpuAsync := m.Find(core.Strategy{Route: core.RouteGPU, Mode: core.ModeAsync})
		for _, r := range []*Fig8Row{baseline, pfs, hostSync, hostAsync, gpuSync, gpuAsync} {
			if r == nil {
				t.Fatalf("%s: missing strategy row", m.Name)
			}
		}
		// Core ordering of Figure 8.
		if !(gpuSync.Latency < hostSync.Latency && hostSync.Latency < pfs.Latency && pfs.Latency < baseline.Latency) {
			t.Fatalf("%s: latency ordering broken: gpu=%v host=%v pfs=%v base=%v",
				m.Name, gpuSync.Latency, hostSync.Latency, pfs.Latency, baseline.Latency)
		}
		// Async: lower stall, slightly higher end-to-end latency.
		if !(gpuAsync.Stall < gpuSync.Stall && gpuAsync.Latency > gpuSync.Latency) {
			t.Fatalf("%s: async gpu shape broken", m.Name)
		}
		if !(hostAsync.Stall < hostSync.Stall && hostAsync.Latency > hostSync.Latency) {
			t.Fatalf("%s: async host shape broken", m.Name)
		}
		// Paper magnitudes: GPU ≈9–15x, host ≈3–4x, Viper-PFS ≈1.1–1.4x.
		if gpuSync.SpeedupVsBaseline < 6 || gpuSync.SpeedupVsBaseline > 20 {
			t.Fatalf("%s: gpu speedup %.1fx outside the paper band", m.Name, gpuSync.SpeedupVsBaseline)
		}
		if hostSync.SpeedupVsBaseline < 2 || hostSync.SpeedupVsBaseline > 6 {
			t.Fatalf("%s: host speedup %.1fx outside the paper band", m.Name, hostSync.SpeedupVsBaseline)
		}
		if pfs.SpeedupVsBaseline < 1.05 || pfs.SpeedupVsBaseline > 1.6 {
			t.Fatalf("%s: viper-pfs speedup %.2fx outside the paper band", m.Name, pfs.SpeedupVsBaseline)
		}
	}
	// Larger models benefit more in absolute terms (paper's observation).
	small := res.Models[0] // NT3.A
	large := res.Models[1] // TC1
	savedSmall := small.Find(core.Strategy{Route: core.RoutePFS, Baseline: true}).Latency -
		small.Find(core.Strategy{Route: core.RouteGPU, Mode: core.ModeSync}).Latency
	savedLarge := large.Find(core.Strategy{Route: core.RoutePFS, Baseline: true}).Latency -
		large.Find(core.Strategy{Route: core.RouteGPU, Mode: core.ModeSync}).Latency
	if savedLarge <= savedSmall {
		t.Fatalf("larger model must save more absolute latency: %v vs %v", savedLarge, savedSmall)
	}
}

func quickFig9() Fig9Config {
	cfg := DefaultFig9Config()
	cfg.TotalInfers = 15000
	cfg.TotalEpochs = 10
	return cfg
}

func TestFig9PaperShape(t *testing.T) {
	res, err := RunFig9(quickFig9())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	gpu, host, pfs := res.Rows[0], res.Rows[1], res.Rows[2]
	if !(gpu.CIL <= host.CIL && host.CIL <= pfs.CIL) {
		t.Fatalf("CIL ordering: gpu=%.1f host=%.1f pfs=%.1f", gpu.CIL, host.CIL, pfs.CIL)
	}
	if !(gpu.TrainingOverhead < host.TrainingOverhead && host.TrainingOverhead < pfs.TrainingOverhead) {
		t.Fatalf("overhead ordering: %v %v %v", gpu.TrainingOverhead, host.TrainingOverhead, pfs.TrainingOverhead)
	}
	// The paper's overhead ratios (1s vs 22s vs 60s): host ≫ gpu, pfs > host.
	if float64(host.TrainingOverhead)/float64(gpu.TrainingOverhead) < 5 {
		t.Fatalf("host/gpu overhead ratio %.1f too small", float64(host.TrainingOverhead)/float64(gpu.TrainingOverhead))
	}
	if gpu.Checkpoints == 0 {
		t.Fatal("no checkpoints triggered")
	}
}

func quickFig10() Fig10Config {
	cfg := DefaultFig10Config()
	for i := range cfg.Apps {
		cfg.Apps[i].TotalInfers /= 3
		cfg.Apps[i].TotalEpochs = cfg.Apps[i].TotalEpochs/3 + cfg.Apps[i].WarmupEpochs + 2
	}
	return cfg
}

func TestFig10AndTable1PaperShape(t *testing.T) {
	res, err := RunFig10(quickFig10())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Apps) != 3 {
		t.Fatalf("apps = %d, want 3", len(res.Apps))
	}
	for _, app := range res.Apps {
		b, f, a := app.Row(ScheduleBaseline), app.Row(ScheduleFixed), app.Row(ScheduleAdaptive)
		if b == nil || f == nil || a == nil {
			t.Fatalf("%s: missing schedule row", app.Variant)
		}
		// Figure 10: both IPP schedules beat the baseline; adaptive is at
		// least competitive with fixed.
		if !(f.CIL < b.CIL) {
			t.Errorf("%s: fixed CIL %.1f must beat baseline %.1f", app.Variant, f.CIL, b.CIL)
		}
		if !(a.CIL < b.CIL) {
			t.Errorf("%s: adaptive CIL %.1f must beat baseline %.1f", app.Variant, a.CIL, b.CIL)
		}
		if a.CIL > f.CIL*1.10 {
			t.Errorf("%s: adaptive CIL %.1f should be within 10%% of fixed %.1f", app.Variant, a.CIL, f.CIL)
		}
		// Table 1: adaptive achieves it with fewer checkpoints than fixed.
		if !(a.Checkpoints < f.Checkpoints) {
			t.Errorf("%s: adaptive checkpoints %d must be below fixed %d", app.Variant, a.Checkpoints, f.Checkpoints)
		}
		if !(a.TrainingOverhead < f.TrainingOverhead) {
			t.Errorf("%s: adaptive overhead %v must be below fixed %v", app.Variant, a.TrainingOverhead, f.TrainingOverhead)
		}
		if f.Interval <= 0 {
			t.Errorf("%s: fixed interval %d must be positive", app.Variant, f.Interval)
		}
	}
	if !strings.Contains(res.Format(), "Figure 10") || !strings.Contains(res.FormatTable1(), "Table 1") {
		t.Fatal("format output malformed")
	}
}

func TestPaperSizes(t *testing.T) {
	if PaperSize(WorkloadNT3, false) >= PaperSize(WorkloadNT3, true) {
		t.Fatal("NT3.B must exceed NT3.A")
	}
	if PaperSize(WorkloadTC1, false) <= PaperSize(WorkloadPtychoNN, false) {
		t.Fatal("TC1 must exceed PtychoNN")
	}
}

func TestTableRendering(t *testing.T) {
	out := Table([]string{"a", "b"}, [][]string{{"1", "2"}, {"333", "4"}})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("table lines = %d, want 3", len(lines))
	}
}

func TestMeasureTimeBudget(t *testing.T) {
	// Guard: the quick experiment suite must stay fast enough for CI.
	start := time.Now()
	if _, err := RunFig8(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("fig8 took %v, too slow", d)
	}
}

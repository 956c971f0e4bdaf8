package viper

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§5). Each benchmark regenerates the corresponding result
// through the experiment drivers and reports the paper's headline numbers
// as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the full evaluation. Reduced-scale configurations keep a
// full sweep tractable; run cmd/viper-bench (without -quick) for the
// paper-scale variants.

import (
	"testing"

	"viper/internal/core"
	"viper/internal/experiments"
)

// BenchmarkFig5 regenerates Figure 5: fitting the TC1 warm-up loss with
// the four learning-curve families. Reports the selected family's warm-up
// and extrapolation MSE.
func BenchmarkFig5(b *testing.B) {
	cfg := experiments.DefaultFig5Config()
	var res *experiments.Fig5Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunFig5(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, f := range res.Fits {
		if f.Model.Name() == res.Best {
			b.ReportMetric(f.MSE, "warmup_mse")
		}
	}
	b.ReportMetric(res.ExtrapolationMSE[res.Best], "extrap_mse")
}

// BenchmarkFig6 regenerates Figure 6: per-iteration training time and
// per-request inference time stability (real wall-clock measurements).
func BenchmarkFig6(b *testing.B) {
	cfg := experiments.DefaultFig6Config()
	var res *experiments.Fig6Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunFig6(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.TrainMean.Seconds()*1000, "train_ms/iter")
	b.ReportMetric(res.InferMean.Seconds()*1000, "infer_ms/req")
	b.ReportMetric(res.TrainCV, "train_cv")
	b.ReportMetric(res.InferCV, "infer_cv")
}

// benchFig8 runs the Figure 8 latency matrix and reports one subfigure's
// headline latencies and the GPU speedup.
func benchFig8(b *testing.B, model int) {
	var res *experiments.Fig8Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunFig8()
		if err != nil {
			b.Fatal(err)
		}
	}
	m := res.Models[model]
	base := m.Find(core.Strategy{Route: core.RoutePFS, Baseline: true})
	gpu := m.Find(core.Strategy{Route: core.RouteGPU, Mode: core.ModeSync})
	host := m.Find(core.Strategy{Route: core.RouteHost, Mode: core.ModeSync})
	b.ReportMetric(base.Latency.Seconds(), "baseline_s")
	b.ReportMetric(host.Latency.Seconds(), "host_s")
	b.ReportMetric(gpu.Latency.Seconds(), "gpu_s")
	b.ReportMetric(gpu.SpeedupVsBaseline, "gpu_speedup_x")
}

// BenchmarkFig8aNT3A regenerates Figure 8a (NT3.A, 600 MB).
func BenchmarkFig8aNT3A(b *testing.B) { benchFig8(b, 0) }

// BenchmarkFig8bTC1 regenerates Figure 8b (TC1, 4.7 GB).
func BenchmarkFig8bTC1(b *testing.B) { benchFig8(b, 1) }

// BenchmarkFig8cPtychoNN regenerates Figure 8c (PtychoNN, 4.5 GB).
func BenchmarkFig8cPtychoNN(b *testing.B) { benchFig8(b, 2) }

func fig9Quick() experiments.Fig9Config {
	cfg := experiments.DefaultFig9Config()
	cfg.TotalInfers = 15000
	cfg.TotalEpochs = 10
	return cfg
}

// BenchmarkFig9 regenerates Figure 9: CIL + training overhead across
// transfer strategies at the epoch-boundary interval.
func BenchmarkFig9(b *testing.B) {
	cfg := fig9Quick()
	var res *experiments.Fig9Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunFig9(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range res.Rows {
		b.ReportMetric(row.CIL, "cil_"+string(row.Strategy.Route))
		b.ReportMetric(row.TrainingOverhead.Seconds(), "ovh_s_"+string(row.Strategy.Route))
	}
}

func fig10Quick() experiments.Fig10Config {
	cfg := experiments.DefaultFig10Config()
	for i := range cfg.Apps {
		cfg.Apps[i].TotalInfers /= 3
		cfg.Apps[i].TotalEpochs = cfg.Apps[i].TotalEpochs/3 + cfg.Apps[i].WarmupEpochs + 2
	}
	return cfg
}

// benchFig10 runs one Figure 10 subfigure and reports the three
// schedules' CILs.
func benchFig10(b *testing.B, app int) {
	cfg := experiments.Fig10Config{Apps: []experiments.Fig10AppConfig{fig10Quick().Apps[app]}}
	var res *experiments.Fig10Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunFig10(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	a := res.Apps[0]
	b.ReportMetric(a.Row(experiments.ScheduleBaseline).CIL, "cil_baseline")
	b.ReportMetric(a.Row(experiments.ScheduleFixed).CIL, "cil_fixed")
	b.ReportMetric(a.Row(experiments.ScheduleAdaptive).CIL, "cil_adaptive")
}

// BenchmarkFig10aNT3B regenerates Figure 10a (NT3.B over 25k inferences).
func BenchmarkFig10aNT3B(b *testing.B) { benchFig10(b, 0) }

// BenchmarkFig10bTC1 regenerates Figure 10b (TC1 over 50k inferences).
func BenchmarkFig10bTC1(b *testing.B) { benchFig10(b, 1) }

// BenchmarkFig10cPtychoNN regenerates Figure 10c (PtychoNN over 40k
// inferences).
func BenchmarkFig10cPtychoNN(b *testing.B) { benchFig10(b, 2) }

// BenchmarkTable1 regenerates Table 1: checkpoint counts and training
// overhead per application per schedule.
func BenchmarkTable1(b *testing.B) {
	cfg := fig10Quick()
	var res *experiments.Fig10Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunFig10(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, app := range res.Apps {
		prefix := string(app.Workload)
		b.ReportMetric(float64(app.Row(experiments.ScheduleBaseline).Checkpoints), prefix+"_ckpt_base")
		b.ReportMetric(float64(app.Row(experiments.ScheduleFixed).Checkpoints), prefix+"_ckpt_fixed")
		b.ReportMetric(float64(app.Row(experiments.ScheduleAdaptive).Checkpoints), prefix+"_ckpt_adapt")
	}
}

// ---------------------------------------------------------------------
// Ablation benchmarks: design-choice studies beyond the paper's figures.
// ---------------------------------------------------------------------

// BenchmarkAblationNotify compares push-notification vs polling
// discovery latency (the §4.4 design choice).
func BenchmarkAblationNotify(b *testing.B) {
	var res *experiments.NotifyAblationResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunNotifyAblation(2000, nil, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range res.Rows[1:] {
		b.ReportMetric(row.MeanDelay.Seconds()*1000, "poll_ms_"+row.Mechanism[len("poll every "):])
	}
}

// BenchmarkAblationQuant measures update latency and serving accuracy
// across wire precisions.
func BenchmarkAblationQuant(b *testing.B) {
	var res *experiments.QuantAblationResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunQuantAblation(3)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range res.Rows {
		b.ReportMetric(row.Latency.Seconds(), "latency_s_"+row.Precision.String())
		b.ReportMetric(row.Accuracy, "acc_"+row.Precision.String())
	}
}

// BenchmarkAblationFanout measures broadcast save cost vs consumer count.
func BenchmarkAblationFanout(b *testing.B) {
	var res *experiments.FanoutAblationResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunFanoutAblation(8)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Rows[0].SaveTotal.Seconds(), "save_s_1consumer")
	b.ReportMetric(res.Rows[len(res.Rows)-1].SaveTotal.Seconds(), "save_s_8consumers")
}

// Command viper-bench regenerates the Viper paper's evaluation tables and
// figures (§5) from the reproduction's experiment drivers.
//
// Usage:
//
//	viper-bench -exp all          # every figure and table (paper scale)
//	viper-bench -exp fig8         # one experiment
//	viper-bench -exp fig10 -quick # reduced inference counts / epochs
//
// Experiments: fig5, fig6, fig8, fig9, fig10, table1, ablations,
// deltadedup, storerecovery, all.
//
// The deltadedup experiment measures content-addressed delta
// distribution: a steady-state training run is replayed through the
// remote producer → consumer pair over real TCP with reconciliation
// off and on, and the two phases' wire bytes give the dedup ratio.
//
// The storerecovery experiment measures the durable chunk store: a
// 64-version warm-restart recovery, a cache-served vs. disk-served
// late-joiner install through a store-backed relay, and a fault-injected
// chaos loop with post-crash verification. The floors both must hold are
// TestGateDeltaDedup and TestGateStoreRecovery in internal/experiments.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"viper/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: fig5|fig6|fig8|fig9|fig10|table1|ablations|deltadedup|storerecovery|all")
	quick := flag.Bool("quick", false, "run reduced-scale configurations")
	flag.Parse()

	runners := map[string]func(bool) error{
		"fig5":          runFig5,
		"fig6":          runFig6,
		"fig8":          runFig8,
		"fig9":          runFig9,
		"fig10":         runFig10,
		"table1":        runTable1,
		"ablations":     runAblations,
		"deltadedup":    runDeltaDedup,
		"storerecovery": runStoreRecovery,
	}
	order := []string{"fig5", "fig6", "fig8", "fig9", "fig10", "table1", "ablations", "deltadedup", "storerecovery"}

	run := func(name string) {
		start := time.Now()
		if err := runners[name](*quick); err != nil {
			fmt.Fprintf(os.Stderr, "viper-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	if *exp == "all" {
		for _, name := range order {
			run(name)
		}
		return
	}
	if _, ok := runners[*exp]; !ok {
		fmt.Fprintf(os.Stderr, "viper-bench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	run(*exp)
}

func runFig5(quick bool) error {
	cfg := experiments.DefaultFig5Config()
	if quick {
		cfg.TotalEpochs = 4
	}
	res, err := experiments.RunFig5(cfg)
	if err != nil {
		return err
	}
	fmt.Println(res.Format())
	return nil
}

func runFig6(quick bool) error {
	cfg := experiments.DefaultFig6Config()
	if quick {
		cfg.Iterations = 60
		cfg.Inferences = 60
	}
	res, err := experiments.RunFig6(cfg)
	if err != nil {
		return err
	}
	fmt.Println(res.Format())
	return nil
}

func runFig8(bool) error {
	res, err := experiments.RunFig8()
	if err != nil {
		return err
	}
	fmt.Println(res.Format())
	return nil
}

func fig9Config(quick bool) experiments.Fig9Config {
	cfg := experiments.DefaultFig9Config()
	if quick {
		cfg.TotalInfers = 15000
		cfg.TotalEpochs = 10
	}
	return cfg
}

func runFig9(quick bool) error {
	res, err := experiments.RunFig9(fig9Config(quick))
	if err != nil {
		return err
	}
	fmt.Println(res.Format())
	return nil
}

func fig10Config(quick bool) experiments.Fig10Config {
	cfg := experiments.DefaultFig10Config()
	if quick {
		for i := range cfg.Apps {
			cfg.Apps[i].TotalInfers /= 3
			cfg.Apps[i].TotalEpochs = cfg.Apps[i].TotalEpochs/3 + cfg.Apps[i].WarmupEpochs + 2
		}
	}
	return cfg
}

func runFig10(quick bool) error {
	res, err := experiments.RunFig10(fig10Config(quick))
	if err != nil {
		return err
	}
	fmt.Println(res.Format())
	return nil
}

func runTable1(quick bool) error {
	res, err := experiments.RunFig10(fig10Config(quick))
	if err != nil {
		return err
	}
	fmt.Println(res.FormatTable1())
	return nil
}

func runAblations(quick bool) error {
	updates := 2000
	if quick {
		updates = 200
	}
	notify, err := experiments.RunNotifyAblation(updates, nil, 1)
	if err != nil {
		return err
	}
	fmt.Println(notify.Format())
	quant, err := experiments.RunQuantAblation(3)
	if err != nil {
		return err
	}
	fmt.Println(quant.Format())
	fanout, err := experiments.RunFanoutAblation(8)
	if err != nil {
		return err
	}
	fmt.Println(fanout.Format())
	return nil
}

func runDeltaDedup(quick bool) error {
	cfg := experiments.DefaultDeltaDedupConfig()
	if quick {
		cfg.Versions = 4
		cfg.InputLen = 1024
	}
	res, err := experiments.RunDeltaDedup(context.Background(), cfg)
	if err != nil {
		return err
	}
	fmt.Printf("delta dedup: %d steady-state versions of a %.1f MiB / %d-chunk model (eps %g)\n",
		res.Versions, float64(res.ModelBytes)/(1<<20), res.Chunks, cfg.DeltaEps)
	fmt.Printf("  full snapshots : %10d wire bytes\n", res.FullWireBytes)
	fmt.Printf("  delta streams  : %10d wire bytes  (%.1fx reduction)\n", res.DeltaWireBytes, res.Reduction)
	fmt.Printf("  chunks sent=%d deduped=%d bytes_saved=%d delta_sends=%d\n",
		res.ChunksSent, res.ChunksDeduped, res.BytesSaved, res.DeltaSends)
	fmt.Printf("  torn=%d identical=%v max_suppression_err=%.3g\n",
		res.TornStreams, res.Identical, res.MaxSuppressionErr)
	return nil
}

func runStoreRecovery(quick bool) error {
	dir, err := os.MkdirTemp("", "viper-bench8-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := experiments.DefaultStoreRecoveryConfig(dir)
	if quick {
		cfg.Versions = 8
		cfg.RelayElems = 1 << 17
		cfg.ChaosRounds = 10
		cfg.Trials = 2
	}
	res, err := experiments.RunStoreRecovery(context.Background(), cfg)
	if err != nil {
		return err
	}
	fmt.Printf("store recovery: %d versions / %d unique chunks / %d bytes recovered in %v\n",
		res.Versions, res.Chunks, res.StoreBytes, time.Duration(res.RecoveryNS))
	fmt.Printf("  late joiner  : cache %v, disk %v  (%.2fx, identical=%v)\n",
		time.Duration(res.CacheNS), time.Duration(res.DiskNS), res.DiskOverCache, res.Identical)
	fmt.Printf("  chaos        : %d/%d ops failed, %d crashes, %d versions survived, %d loads verified, corrupt=%d\n",
		res.FaultsInjected, res.FaultOps, res.Crashes, res.ChaosVersions, res.VerifiedLoads, res.CorruptChunks)
	return nil
}

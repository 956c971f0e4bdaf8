// Command viper-consumer runs the inference side of a real two-process
// Viper deployment: it subscribes to model-update notifications, pulls
// each pushed checkpoint over the direct link, restores it into a local
// serving model, and reports per-update latency. Start viper-metasrv and
// viper-producer first.
//
// Usage:
//
//	viper-consumer -meta 127.0.0.1:7461 -notify 127.0.0.1:7462 \
//	    -producer 127.0.0.1:7463 -updates 8
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"viper/internal/dataset"
	"viper/internal/debugsrv"
	"viper/internal/models"
	"viper/internal/nn"
	"viper/internal/remote"
)

func main() {
	metaAddr := flag.String("meta", "127.0.0.1:7461", "metadata store address")
	notifyAddr := flag.String("notify", "127.0.0.1:7462", "notification broker address")
	producerAddr := flag.String("producer", "127.0.0.1:7463", "producer link address")
	updates := flag.Int("updates", 8, "number of model updates to apply before exiting (0 = until timeout)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-update wait timeout")
	seed := flag.Int64("seed", 1, "inference-data seed")
	noDelta := flag.Bool("no-delta", false, "disable chunk-delta reconciliation (always pull full streams)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof and a /metrics JSON dump of every registry on this address (empty = off)")
	flag.Parse()

	dbg, err := debugsrv.Start(*debugAddr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "viper-consumer: %v\n", err)
		os.Exit(1)
	}
	if dbg != nil {
		fmt.Printf("viper-consumer: debug endpoint on http://%s/debug/pprof/\n", dbg.Addr())
	}
	err = run(*metaAddr, *notifyAddr, *producerAddr, *updates, *timeout, *seed, *noDelta)
	dbg.Close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "viper-consumer: %v\n", err)
		os.Exit(1)
	}
}

func run(metaAddr, notifyAddr, producerAddr string, updates int, timeout time.Duration, seed int64, noDelta bool) error {
	rng := rand.New(rand.NewSource(seed + 100))
	serving := models.TC1(rng, 32)
	data, err := dataset.SynthesizeClassification(dataset.ClassificationConfig{
		Samples: 64, Length: 32, Classes: models.TC1Classes, Noise: 0.3, Seed: seed,
	})
	if err != nil {
		return err
	}
	cons, err := remote.NewConsumer(remote.ConsumerConfig{
		Model:                 "tc1",
		MetaAddr:              metaAddr,
		NotifyAddr:            notifyAddr,
		ProducerAddr:          producerAddr,
		Serving:               serving,
		DisableDeltaReconcile: noDelta,
	})
	if err != nil {
		return err
	}
	defer cons.Close()
	fmt.Println("viper-consumer: connected, awaiting model updates")

	loss := nn.CrossEntropyWithLogits{}
	applied := 0
	for updates == 0 || applied < updates {
		start := time.Now()
		ckpt, err := cons.Next(timeout)
		if errors.Is(err, remote.ErrTimeout) {
			fmt.Println("viper-consumer: no more updates, exiting")
			break
		}
		if err != nil {
			return err
		}
		applied++
		pred := serving.Predict(data.X)
		lv, _ := loss.Compute(pred, data.Y)
		fmt.Printf("viper-consumer: applied v%d (iter %d, train loss %.4f) in %v; serving loss %.4f, accuracy %.2f\n",
			ckpt.Version, ckpt.Iteration, ckpt.TrainLoss, time.Since(start).Round(time.Microsecond),
			lv, nn.Accuracy(pred, data.Y))
	}
	s := cons.Stats()
	fmt.Printf("viper-consumer: applied %d updates (%d via link, %d delta-reconciled, %d staged)\n",
		applied, s.LinkLoads, s.DeltaLoads, s.StagedLoads)
	return nil
}

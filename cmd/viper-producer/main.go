// Command viper-producer runs the training side of a real two-process
// Viper deployment: it trains the scaled-down TC1 model on synthetic
// data, checkpoints per the adaptive (greedy) schedule, and pushes each
// checkpoint to the consumer through the direct link + notification
// broker. Start viper-metasrv first, then this producer, then
// viper-consumer.
//
// With -relay, instead of awaiting one consumer's direct link the
// producer pushes each checkpoint once to a viper-relay node's ingest
// address; the relay caches and fans the stream out to any number of
// consumers (start viper-metasrv, then viper-relay, then this producer,
// then consumers pointed at the relay's serve address).
//
// Usage:
//
//	viper-producer -meta 127.0.0.1:7461 -notify 127.0.0.1:7462 \
//	    -listen 127.0.0.1:7463 -epochs 6 -warmup 2
//	viper-producer -relay 127.0.0.1:7464   # fan out via viper-relay
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"viper/internal/dataset"
	"viper/internal/debugsrv"
	"viper/internal/ipp"
	"viper/internal/models"
	"viper/internal/nn"
	"viper/internal/remote"
	"viper/internal/train"
	"viper/internal/vformat"
)

func main() {
	metaAddr := flag.String("meta", "127.0.0.1:7461", "metadata store address")
	notifyAddr := flag.String("notify", "127.0.0.1:7462", "notification broker address")
	listenAddr := flag.String("listen", "127.0.0.1:7463", "address to await the consumer link on")
	relayAddr := flag.String("relay", "", "viper-relay ingest address; when set, push checkpoints to the relay instead of awaiting a consumer link")
	epochs := flag.Int("epochs", 6, "total training epochs")
	warmup := flag.Int("warmup", 2, "warm-up epochs before adaptive checkpointing")
	seed := flag.Int64("seed", 1, "training seed")
	chunk := flag.Int("chunk", vformat.DefaultChunkBytes,
		"chunk size in bytes for the streamed wire format (0 = the default)")
	deltaEps := flag.Float64("delta-eps", 1e-6,
		"base-suppression threshold for chunk-level delta publishing: elements that move less re-encode their previous wire value so unchanged chunks dedup (0 = exact-match dedup only)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof and a /metrics JSON dump of every registry on this address (empty = off)")
	flag.Parse()

	dbg, err := debugsrv.Start(*debugAddr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "viper-producer: %v\n", err)
		os.Exit(1)
	}
	if dbg != nil {
		fmt.Printf("viper-producer: debug endpoint on http://%s/debug/pprof/\n", dbg.Addr())
	}
	err = run(*metaAddr, *notifyAddr, *listenAddr, *relayAddr, *epochs, *warmup, *seed, *chunk, *deltaEps)
	dbg.Close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "viper-producer: %v\n", err)
		os.Exit(1)
	}
}

func run(metaAddr, notifyAddr, listenAddr, relayAddr string, epochs, warmup int, seed int64, chunk int, deltaEps float64) error {
	if epochs <= warmup {
		return fmt.Errorf("epochs (%d) must exceed warmup (%d)", epochs, warmup)
	}
	data, err := dataset.SynthesizeClassification(dataset.ClassificationConfig{
		Samples: 216, Length: 32, Classes: models.TC1Classes, Noise: 0.3, Seed: seed,
	})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	net := models.TC1(rng, 32)
	task := &train.ClassificationTask{Net: net, Data: data, Eval: data, Opt: nn.NewSGD(0.01, 0.5)}

	if relayAddr != "" {
		fmt.Printf("viper-producer: pushing checkpoints to relay %s\n", relayAddr)
	} else {
		fmt.Printf("viper-producer: awaiting consumer on %s ...\n", listenAddr)
	}
	prod, err := remote.NewProducer(remote.ProducerConfig{
		Model:      "tc1",
		MetaAddr:   metaAddr,
		NotifyAddr: notifyAddr,
		ListenAddr: listenAddr,
		RelayAddr:  relayAddr,
		OnListen:   func(a string) { fmt.Printf("viper-producer: link bound to %s\n", a) },
		ChunkSize:  chunk,
		DeltaEps:   deltaEps,
	})
	if err != nil {
		return err
	}
	defer prod.Close()
	if relayAddr == "" {
		fmt.Println("viper-producer: consumer connected")
	}

	// Warm-up: train and record losses, then derive the greedy threshold.
	recorder := &train.LossRecorder{}
	tr := &train.Trainer{Task: task, BatchSize: 4, Seed: seed + 1, Callbacks: []train.Callback{recorder}}
	if _, err := tr.Run(warmup); err != nil {
		return err
	}
	threshold := ipp.GreedyThreshold(recorder.Iter)
	warmupEnd := recorder.Iter[len(recorder.Iter)-1]
	fmt.Printf("viper-producer: warm-up done (%d iters, loss %.4f, threshold %.4f)\n",
		tr.Iterations(), warmupEnd, threshold)

	// Publish the warm-up checkpoint so the consumer can start serving.
	if _, err := prod.Publish(nn.TakeSnapshot(net), uint64(tr.Iterations()), warmupEnd); err != nil {
		return err
	}

	// Fine-tuning: adaptive checkpointing driven by observed losses.
	schedule := ipp.NewAdaptiveOnline(threshold, tr.Iterations(), warmupEnd)
	publisher := &publishCallback{prod: prod, net: net, schedule: schedule}
	tr.Callbacks = []train.Callback{publisher}
	if _, err := tr.Run(epochs - warmup); err != nil {
		return err
	}
	fmt.Printf("viper-producer: training finished after %d iterations, %d checkpoints published, final accuracy %.2f\n",
		tr.Iterations(), prod.Version(), task.EvalAccuracy())
	return nil
}

// publishCallback bridges the Trainer callback to the remote producer.
type publishCallback struct {
	prod     *remote.Producer
	net      *nn.Sequential
	schedule *ipp.AdaptiveOnline
}

func (p *publishCallback) OnIterationEnd(iter int, loss float64) {
	if !p.schedule.ShouldCheckpoint(iter, loss) {
		return
	}
	if meta, err := p.prod.Publish(nn.TakeSnapshot(p.net), uint64(iter), loss); err == nil {
		fmt.Printf("viper-producer: checkpoint v%d at iteration %d (loss %.4f)\n",
			meta.Version, iter, loss)
	} else {
		fmt.Fprintf(os.Stderr, "viper-producer: publish failed: %v\n", err)
	}
}

func (p *publishCallback) OnEpochEnd(epoch int, meanLoss float64) {
	fmt.Printf("viper-producer: epoch %d mean loss %.4f\n", epoch, meanLoss)
}

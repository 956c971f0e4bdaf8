// deltadedup measures the content-addressed delta distribution path
// end to end: a real training run from internal/train
// publishes adjacent checkpoints through a remote producer → consumer
// pair over real TCP, once with delta reconciliation off (every
// version ships whole) and once on (manifest + only the chunks whose
// content hashes the receiver does not already hold). The steady-state
// wire bytes of the two phases give the dedup ratio, and every reconciled
// install is checked byte-identical against a full decode of the
// producer's staged blob. TestGateDeltaDedup holds the floors.

package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"viper/internal/core"
	"viper/internal/kvstore"
	"viper/internal/models"
	"viper/internal/nn"
	"viper/internal/pubsub"
	"viper/internal/remote"
	"viper/internal/train"
	"viper/internal/transport"
	"viper/internal/vformat"

	ds "viper/internal/dataset"
)

// DeltaDedupConfig parameterizes the measurement.
type DeltaDedupConfig struct {
	// WarmupEpochs trains the model into its steady state before any
	// measured publish: early training moves every weight hard, the
	// regime delta distribution targets is the long converged tail.
	WarmupEpochs int
	// Versions is the number of steady-state checkpoints measured
	// (published at adjacent training iterations).
	Versions int
	// ChunkBytes is the wire chunk size (0 = vformat.DefaultChunkBytes,
	// the configuration TestGateDeltaDedup runs).
	ChunkBytes int
	// DeltaEps is the producer's base-suppression threshold; elements
	// that move less between adjacent iterations re-encode their
	// previous wire value so untouched chunks dedup.
	DeltaEps float64
	// InputLen scales the TC1 model (the dense1 layer holds
	// InputLen/4*32 × 64 weights, the bulk of the checkpoint).
	InputLen int
	// Seed makes the training run reproducible.
	Seed int64
}

// DefaultDeltaDedupConfig is the configuration TestGateDeltaDedup runs: the
// default chunk size over a multi-chunk TC1 at steady state.
func DefaultDeltaDedupConfig() DeltaDedupConfig {
	return DeltaDedupConfig{
		WarmupEpochs: 6,
		Versions:     8,
		ChunkBytes:   vformat.DefaultChunkBytes,
		DeltaEps:     1e-3,
		InputLen:     2048,
		Seed:         7,
	}
}

// DeltaDedupResult reports both phases of the measurement.
type DeltaDedupResult struct {
	// ModelBytes is the full checkpoint payload size; Chunks how many
	// records it splits into at the configured chunk size.
	ModelBytes int64
	Chunks     int
	// Versions counts the measured steady-state publishes (the seeding
	// first version is excluded from both phases' byte counts).
	Versions int
	// FullWireBytes / DeltaWireBytes are the steady-state bytes on the
	// producer↔consumer TCP link with reconciliation off / on,
	// including the delta phase's have-list and manifest overhead.
	FullWireBytes  int64
	DeltaWireBytes int64
	// Reduction is FullWireBytes / DeltaWireBytes.
	Reduction float64
	// ChunksSent / ChunksDeduped / BytesSaved are the transport dedup
	// counters' movement across the delta phase's steady state.
	ChunksSent    int64
	ChunksDeduped int64
	BytesSaved    int64
	// DeltaSends counts producer publishes that left as manifest
	// streams (must equal Versions in the delta phase).
	DeltaSends int64
	// TornStreams counts installs that did not complete cleanly off
	// the link (staged backfills + skipped versions, both phases).
	TornStreams int64
	// Identical reports whether every reconciled install decoded
	// byte-identical to a full DecodeAuto of the producer's staged
	// blob.
	Identical bool
	// MaxSuppressionErr is the largest deviation between an installed
	// weight and the raw training snapshot — bounded by DeltaEps.
	MaxSuppressionErr float64
}

// RunDeltaDedup trains TC1 to steady state, snapshots Versions+1
// adjacent iterations, and replays the same checkpoint sequence through
// the remote pipeline with delta reconciliation off and on.
func RunDeltaDedup(ctx context.Context, cfg DeltaDedupConfig) (*DeltaDedupResult, error) {
	if cfg.Versions <= 0 || cfg.WarmupEpochs <= 0 || cfg.InputLen <= 0 {
		return nil, fmt.Errorf("experiments: deltadedup config %+v incomplete", cfg)
	}
	snaps, err := steadyStateSnapshots(cfg)
	if err != nil {
		return nil, err
	}
	res := &DeltaDedupResult{Versions: cfg.Versions, Identical: true}
	full, err := runDedupPhase(ctx, cfg, snaps, false, res)
	if err != nil {
		return nil, fmt.Errorf("experiments: full phase: %w", err)
	}
	delta, err := runDedupPhase(ctx, cfg, snaps, true, res)
	if err != nil {
		return nil, fmt.Errorf("experiments: delta phase: %w", err)
	}
	res.FullWireBytes, res.DeltaWireBytes = full, delta
	if delta > 0 {
		res.Reduction = float64(full) / float64(delta)
	}
	return res, nil
}

// steadyStateSnapshots trains TC1 through the warm-up epochs, then
// captures one snapshot per adjacent training iteration.
func steadyStateSnapshots(cfg DeltaDedupConfig) ([]nn.Snapshot, error) {
	data, err := ds.SynthesizeClassification(ds.ClassificationConfig{
		Samples: 64, Length: cfg.InputLen, Classes: models.TC1Classes, Noise: 0.3, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	net := models.TC1(rng, cfg.InputLen)
	task := &train.ClassificationTask{Net: net, Data: data, Eval: data, Opt: nn.NewSGD(0.002, 0.5)}
	tr := &train.Trainer{Task: task, BatchSize: 8, Seed: cfg.Seed + 1}
	if _, err := tr.Run(cfg.WarmupEpochs); err != nil {
		return nil, err
	}
	snaps := []nn.Snapshot{nn.TakeSnapshot(net)}
	rec := &snapshotRecorder{net: net}
	tr.Callbacks = []train.Callback{rec}
	for len(rec.snaps) < cfg.Versions {
		if _, err := tr.Run(1); err != nil {
			return nil, err
		}
	}
	return append(snaps, rec.snaps[:cfg.Versions]...), nil
}

// snapshotRecorder snapshots the model after every optimizer step.
type snapshotRecorder struct {
	net   nn.Model
	snaps []nn.Snapshot
}

func (r *snapshotRecorder) OnIterationEnd(int, float64) {
	r.snaps = append(r.snaps, nn.TakeSnapshot(r.net))
}
func (r *snapshotRecorder) OnEpochEnd(int, float64) {}

// runDedupPhase replays snaps through a fresh producer/consumer pair
// and returns the steady-state bytes that crossed the TCP link (the
// seeding first version excluded). The dedup counters, identity
// checks, and torn-stream accounting are folded into res.
func runDedupPhase(ctx context.Context, cfg DeltaDedupConfig, snaps []nn.Snapshot, deltaOn bool, res *DeltaDedupResult) (int64, error) {
	kvSrv := kvstore.NewServer(kvstore.NewStore())
	metaAddr, err := kvSrv.Listen("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer kvSrv.Close()
	psSrv := pubsub.NewServer(pubsub.NewBroker(64))
	notifyAddr, err := psSrv.Listen("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer psSrv.Close()

	const model = "tc1"
	linkAddr := make(chan string, 1)
	prodErr := make(chan error, 1)
	var prod *remote.Producer
	go func() {
		var err error
		prod, err = remote.NewProducer(remote.ProducerConfig{
			Model: model, MetaAddr: metaAddr, NotifyAddr: notifyAddr,
			ListenAddr: "127.0.0.1:0", OnListen: func(a string) { linkAddr <- a },
			ChunkSize:             cfg.ChunkBytes,
			DisableDeltaReconcile: !deltaOn,
			DeltaEps:              cfg.DeltaEps,
		})
		prodErr <- err
	}()
	cons, err := remote.NewConsumer(remote.ConsumerConfig{
		Model: model, MetaAddr: metaAddr, NotifyAddr: notifyAddr,
		ProducerAddr:          <-linkAddr,
		DisableDeltaReconcile: !deltaOn,
	})
	if err != nil {
		<-prodErr
		return 0, err
	}
	defer cons.Close()
	if err := <-prodErr; err != nil {
		return 0, err
	}
	defer prod.Close()

	kv, err := kvstore.Dial(metaAddr)
	if err != nil {
		return 0, err
	}
	defer kv.Close()

	wire := transport.Metrics().Counter("tcp_bytes_sent")
	sent := transport.Metrics().Counter("chunks_sent_total")
	deduped := transport.Metrics().Counter("chunks_deduped_total")
	saved := transport.Metrics().Counter("bytes_saved_total")

	var wireBefore, sentBefore, dedupBefore, savedBefore int64
	for i, snap := range snaps {
		version := uint64(i + 1)
		if deltaOn {
			// The consumer advertises its chunk store after every
			// install; the producer must absorb advertisement i before
			// publish i+1 or it ships a full stream. Real deployments
			// publish on a training-iteration cadence that dwarfs this
			// turnaround; the replay loop has to wait explicitly.
			if err := waitHaveLists(prod, int64(i)); err != nil {
				return 0, err
			}
		}
		if i == 1 {
			// Steady state starts at the second version: the first
			// publish seeds the receiver's chunk store and ships whole
			// in both phases.
			wireBefore = wire.Value()
			sentBefore, dedupBefore, savedBefore = sent.Value(), deduped.Value(), saved.Value()
		}
		// Receive concurrently with the publish, as a serving consumer
		// would.
		type nextResult struct {
			ckpt *vformat.Checkpoint
			err  error
		}
		got := make(chan nextResult, 1)
		go func() {
			c, err := cons.Next(10 * time.Second)
			got <- nextResult{c, err}
		}()
		if _, err := prod.Publish(snap, version, 0); err != nil {
			return 0, err
		}
		next := <-got
		if next.err != nil {
			return 0, fmt.Errorf("version %d: %w", version, next.err)
		}
		ckpt := next.ckpt
		if ckpt.Version != version {
			return 0, fmt.Errorf("installed v%d, want v%d", ckpt.Version, version)
		}
		if deltaOn {
			// The staging copy is flushed behind the notification; the
			// ground truth below reads it, so wait for this version's.
			if err := waitStaged(prod, int64(version)); err != nil {
				return 0, err
			}
			if err := checkInstall(ctx, kv, model, version, ckpt, snap, res); err != nil {
				return 0, err
			}
		}
	}
	wireBytes := wire.Value() - wireBefore
	if deltaOn {
		res.ChunksSent = sent.Value() - sentBefore
		res.ChunksDeduped = deduped.Value() - dedupBefore
		res.BytesSaved = saved.Value() - savedBefore
		res.DeltaSends = prod.Stats().DeltaSends
	}
	cs := cons.Stats()
	res.TornStreams += cs.StagedLoads + cs.SkippedVersions
	return wireBytes, nil
}

// waitHaveLists blocks until the producer has absorbed at least n chunk
// advertisements from the receiver.
func waitHaveLists(prod *remote.Producer, n int64) error {
	return waitProducer(prod, "have-lists absorbed", n, func(s remote.ProducerStats) int64 { return s.HaveLists })
}

// waitStaged blocks until the producer's stage flusher has written at
// least n staging copies (one per version in this closed loop, where no
// flush is ever superseded).
func waitStaged(prod *remote.Producer, n int64) error {
	return waitProducer(prod, "versions staged", n, func(s remote.ProducerStats) int64 { return s.Staged })
}

// waitProducer polls the live producer until counter reaches n.
func waitProducer(prod *remote.Producer, what string, n int64, counter func(remote.ProducerStats) int64) error {
	//lint:ignore simclockpurity the replay loop paces a real TCP deployment; the turnaround being waited out is wall-clock time
	deadline := time.Now().Add(10 * time.Second)
	for counter(prod.Stats()) < n {
		//lint:ignore simclockpurity same: real wall-clock polling of a live producer
		if time.Now().After(deadline) {
			return fmt.Errorf("producer: %d %s, want %d", counter(prod.Stats()), what, n)
		}
		//lint:ignore simclockpurity same: real wall-clock polling of a live producer
		time.Sleep(time.Millisecond)
	}
	return nil
}

// checkInstall verifies a reconciled install against ground truth: it
// must decode byte-identical to a full DecodeAuto of the producer's
// staged blob (the delta elided chunks, never changed them), and may
// deviate from the raw training snapshot by at most DeltaEps.
func checkInstall(ctx context.Context, kv *kvstore.Client, model string, version uint64, ckpt *vformat.Checkpoint, raw nn.Snapshot, res *DeltaDedupResult) error {
	staged, err := kv.GetBytes(core.StagingKey(model, version))
	if err != nil {
		return fmt.Errorf("staged blob v%d: %w", version, err)
	}
	if res.ModelBytes == 0 {
		res.ModelBytes = int64(len(staged))
		if layout, _, _, err := vformat.ParseChunkHeader(staged); err == nil {
			res.Chunks = layout.NumChunks
		}
	}
	full, err := vformat.DecodeAuto(ctx, staged, 0)
	if err != nil {
		return fmt.Errorf("staged decode v%d: %w", version, err)
	}
	for ti := range full.Weights {
		fd, rd := full.Weights[ti].Data, ckpt.Weights[ti].Data
		if len(fd) != len(rd) {
			res.Identical = false
			return nil
		}
		for i := range fd {
			if math.Float64bits(fd[i]) != math.Float64bits(rd[i]) {
				res.Identical = false
			}
			if d := math.Abs(rd[i] - raw[ti].Data[i]); d > res.MaxSuppressionErr {
				res.MaxSuppressionErr = d
			}
		}
	}
	return nil
}

// Package viper is the public API of the Viper reproduction: a
// high-performance I/O framework for transparently updating, storing, and
// transferring deep neural network models between a training producer and
// an inference-serving consumer (Ye et al., ICPP 2024).
//
// The API mirrors the paper's Figure 4 — save_weights on the producer,
// load_weights on the consumer — on top of:
//
//   - an Inference Performance Predictor (IPP) that fits a learning curve
//     to the warm-up training loss and computes a near-optimal checkpoint
//     schedule (fixed-interval or greedy adaptive, §4.3);
//   - a memory-first model transfer engine with GPU-to-GPU, host-to-host
//     and PFS strategies in sync/async modes (§4.4);
//   - a push-based notification module replacing consumer polling.
//
// Quick start (see examples/quickstart for a runnable version):
//
//	clock := viper.NewVirtualClock()
//	env := viper.NewEnv(clock)
//	prod, _ := viper.NewProducer(env, "tc1",
//		viper.WithStrategy(viper.Strategy{Route: viper.RouteGPU, Mode: viper.ModeAsync}),
//	)
//	cons, _ := viper.NewConsumer(env, "tc1")
//	sub := cons.Subscribe()
//	prod.SaveWeights(nn.TakeSnapshot(model), iter, loss)
//	report, _ := cons.HandleNotification(<-sub.C)
//
// Producers ship checkpoints in Viper's one encoding, the chunked v2
// format (fixed-size chunks, per-chunk CRC and content hash, pooled
// buffers); precision conversion (WithPrecision) and the durable store
// (WithTimeTravel) live inside it. WithChunkSize(0) selects the lean v1
// format instead, which survives only as the simulator's Figure-8
// reference baseline and supports neither. Every checkpoint ships whole
// and delivery is latest-wins: a consumer that lags skips to the newest
// version. Chunk-level deltas are the TCP stack's (internal/remote: a
// consumer's have-list and the producer's DeltaEps), not this in-process
// API's.
package viper

import (
	"context"
	"time"

	"viper/internal/chunkstore"
	"viper/internal/core"
	"viper/internal/ipp"
	"viper/internal/nn"
	"viper/internal/simclock"
	"viper/internal/trace"
	"viper/internal/vformat"
)

// Re-exported core types: the transfer configuration and reports.
type (
	// Env is the deployment environment (cluster, links, metadata store,
	// notification broker) shared by a producer/consumer pair.
	Env = core.Env
	// Strategy selects the transfer route, mode, and baseline flag.
	Strategy = core.Strategy
	// Route is a transfer data path (RouteGPU, RouteHost, RoutePFS).
	Route = core.Route
	// Mode is a producer blocking mode (ModeSync, ModeAsync).
	Mode = core.Mode
	// ModelMeta is checkpoint metadata stored in the metadata DB.
	ModelMeta = core.ModelMeta
	// SaveReport describes one completed producer-side save.
	SaveReport = core.SaveReport
	// LoadReport describes one completed consumer-side update.
	LoadReport = core.LoadReport
	// Consumer is the inference-side runtime.
	Consumer = core.Consumer
	// DoubleBuffer is the consumer's atomic model switch.
	DoubleBuffer = core.DoubleBuffer
	// Checkpoint is a decoded model checkpoint.
	Checkpoint = vformat.Checkpoint
	// Snapshot is a deep copy of model weights.
	Snapshot = nn.Snapshot
	// Schedule decides online when to checkpoint.
	Schedule = ipp.Schedule
	// CostModel carries the §4.3 timing constants.
	CostModel = ipp.CostModel
	// Clock abstracts time (virtual for simulation, wall for deployment).
	Clock = simclock.Clock
)

// Transfer routes and modes (paper §4.4 / Figure 8).
const (
	RouteGPU  = core.RouteGPU
	RouteHost = core.RouteHost
	RoutePFS  = core.RoutePFS
	ModeSync  = core.ModeSync
	ModeAsync = core.ModeAsync
)

// NewEnv builds a default two-node environment on the given clock.
func NewEnv(clock Clock) *Env { return core.NewEnv(clock) }

// NewVirtualClock returns a deterministic virtual clock for simulations.
func NewVirtualClock() *simclock.Virtual { return simclock.NewVirtual() }

// NewWallClock returns the real system clock.
func NewWallClock() Clock { return simclock.NewWall() }

// Precision selects the wire precision for checkpoint transfers.
type Precision = vformat.Precision

// Wire precisions (PrecFloat64 is lossless).
const (
	PrecFloat64 = vformat.PrecFloat64
	PrecFloat32 = vformat.PrecFloat32
	PrecFloat16 = vformat.PrecFloat16
)

// DefaultChunkSize is the chunk granularity NewProducer selects when
// WithChunkSize is not given (vformat.DefaultChunkBytes).
const DefaultChunkSize = vformat.DefaultChunkBytes

// ProducerConfig is the option set NewProducer assembles; callers set it
// through the With… options.
type ProducerConfig struct {
	// Model names the model (keys, channels).
	Model string
	// Strategy selects the transfer path.
	Strategy Strategy
	// VirtualSize is the accounted checkpoint size in bytes (0 = real
	// payload size). Use the paper sizes for paper-scale accounting.
	VirtualSize int64
	// FlushHistory enables background PFS flushes for fault tolerance
	// (and Consumer.RecoverFromPFS after crashes).
	FlushHistory bool
	// Precision selects the wire precision (default lossless float64).
	Precision Precision
	// ChunkSize is the chunk granularity in bytes (NewProducer defaults
	// it to DefaultChunkSize). Zero selects the lean v1 reference
	// baseline, which carries neither Precision nor TimeTravelDir.
	ChunkSize int
	// Parallelism bounds the chunk-encode/decode worker pool
	// (0 = GOMAXPROCS).
	Parallelism int
	// TimeTravelDir, when non-empty, attaches a durable content-addressed
	// store at that directory: every self-contained checkpoint is written
	// through at save time, older versions stay reloadable with
	// Producer.LoadVersion, and Producer.Rollback rewinds the lineage.
	TimeTravelDir string
	// TimeTravelKeep bounds how many versions the time-travel store
	// retains (0 = unbounded).
	TimeTravelKeep int
}

// Option configures a Producer built by NewProducer.
type Option func(*ProducerConfig)

// WithStrategy selects the transfer route and mode (default GPU/async,
// the paper's headline memory-first path).
func WithStrategy(s Strategy) Option {
	return func(c *ProducerConfig) { c.Strategy = s }
}

// WithPrecision selects the wire precision (default lossless float64).
// The conversion is folded into the chunk encoding, so a reduced
// precision cannot be combined with WithChunkSize(0).
func WithPrecision(p Precision) Option {
	return func(c *ProducerConfig) { c.Precision = p }
}

// WithVirtualSize makes transfer-time accounting charge for a
// checkpoint of the given size in bytes instead of the real payload
// (paper-scale simulations on small stand-in models).
func WithVirtualSize(bytes int64) Option {
	return func(c *ProducerConfig) { c.VirtualSize = bytes }
}

// WithFlushHistory enables background PFS flushes for fault tolerance
// (and Consumer.RecoverFromPFS after crashes).
func WithFlushHistory() Option {
	return func(c *ProducerConfig) { c.FlushHistory = true }
}

// WithChunkSize sets the chunk granularity in bytes; unset, NewProducer
// uses DefaultChunkSize. Zero selects the lean v1 format — the
// simulator's reference baseline only: NewProducer rejects it together
// with WithPrecision or WithTimeTravel.
func WithChunkSize(bytes int) Option {
	return func(c *ProducerConfig) { c.ChunkSize = bytes }
}

// WithParallelism bounds the chunk encode worker pool (default
// GOMAXPROCS).
func WithParallelism(n int) Option {
	return func(c *ProducerConfig) { c.Parallelism = n }
}

// WithTimeTravel attaches a durable time-travel store rooted at dir:
// each self-contained checkpoint is persisted as content-addressed
// chunks (shared bytes dedup across versions), the newest keep versions
// are retained (0 = unbounded), and Producer.LoadVersion/Rollback
// travel the retained history. The store recovers its full inventory
// across producer restarts, resuming the version lineage. Cannot be
// combined with WithChunkSize(0): the store holds chunk records only.
func WithTimeTravel(dir string, keep int) Option {
	return func(c *ProducerConfig) {
		c.TimeTravelDir = dir
		c.TimeTravelKeep = keep
	}
}

// Producer is the training-side runtime: it owns the weights handler and
// exposes the paper's save_weights API.
type Producer struct {
	handler *core.WeightsHandler
	store   *chunkstore.Store // nil without WithTimeTravel
}

// NewProducer constructs a producer for model in the given environment.
// Without options it checkpoints over the GPU route in async mode,
// lossless, through the chunked pipeline at DefaultChunkSize.
func NewProducer(env *Env, model string, opts ...Option) (*Producer, error) {
	cfg := ProducerConfig{
		Model:     model,
		Strategy:  Strategy{Route: RouteGPU, Mode: ModeAsync},
		ChunkSize: DefaultChunkSize,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	var store *chunkstore.Store
	if cfg.TimeTravelDir != "" {
		var err error
		store, err = chunkstore.Open(cfg.TimeTravelDir, chunkstore.Options{
			Retention: chunkstore.Retention{MaxVersions: cfg.TimeTravelKeep},
			Clock:     env.Clock,
		})
		if err != nil {
			return nil, err
		}
	}
	h, err := core.NewWeightsHandler(env, core.HandlerConfig{
		Model:        cfg.Model,
		Strategy:     cfg.Strategy,
		VirtualSize:  cfg.VirtualSize,
		FlushHistory: cfg.FlushHistory,
		Precision:    cfg.Precision,
		ChunkSize:    cfg.ChunkSize,
		Parallelism:  cfg.Parallelism,
		Store:        store,
	})
	if err != nil {
		if store != nil {
			store.Close()
		}
		return nil, err
	}
	if store != nil {
		// Continue the version lineage across restarts: the store's
		// newest retained version seeds the counter, so a reopened
		// producer never reuses a version number.
		if m, ok := store.Latest(cfg.Model); ok {
			h.ResumeFrom(m.Version)
		}
	}
	return &Producer{handler: h, store: store}, nil
}

// SaveWeights checkpoints the snapshot taken at the given iteration with
// its training loss — the paper's save_weights(model_name, weights).
func (p *Producer) SaveWeights(snapshot Snapshot, iteration uint64, loss float64) (*SaveReport, error) {
	return p.handler.Save(snapshot, iteration, loss)
}

// SaveWeightsContext is SaveWeights bounded by a context: cancellation
// aborts before publication and drains the chunk-encode workers, so a
// cancelled save never announces a checkpoint.
func (p *Producer) SaveWeightsContext(ctx context.Context, snapshot Snapshot, iteration uint64, loss float64) (*SaveReport, error) {
	return p.handler.SaveContext(ctx, snapshot, iteration, loss)
}

// Handler exposes the underlying weights handler (stats, version).
func (p *Producer) Handler() *core.WeightsHandler { return p.handler }

// LoadVersion reloads an older checkpoint from the time-travel store
// attached with WithTimeTravel.
func (p *Producer) LoadVersion(version uint64) (*Checkpoint, error) {
	return p.handler.LoadVersion(context.Background(), version)
}

// Versions lists the checkpoint versions the time-travel store retains,
// oldest first (nil without WithTimeTravel).
func (p *Producer) Versions() []uint64 { return p.handler.StoredVersions() }

// Rollback rewinds the producer to an older stored version: the
// checkpoint is reloaded (so the trainer can restore its weights),
// newer versions are retired from the store, and the next SaveWeights
// continues the lineage from version+1.
func (p *Producer) Rollback(version uint64) (*Checkpoint, error) {
	return p.handler.Rollback(context.Background(), version)
}

// Close releases the producer's durable resources (the time-travel
// store, when attached). Safe to call on a store-less producer.
func (p *Producer) Close() error {
	if p.store == nil {
		return nil
	}
	return p.store.Close()
}

// NewCheckpointCallback attaches a producer to a training loop: add the
// returned callback to the trainer's callback list and it will checkpoint
// per the schedule.
func (p *Producer) NewCheckpointCallback(model nn.Model, schedule Schedule) (*core.CheckpointCallback, error) {
	return core.NewCheckpointCallback(model, p.handler, schedule)
}

// ConsumerOption configures a Consumer built by NewConsumer.
type ConsumerOption func(*core.ConsumerOptions)

// WithServing keeps a live model instance in sync with the consumer's
// double buffer so real forward passes always run on the latest
// weights.
func WithServing(m nn.Model) ConsumerOption {
	return func(o *core.ConsumerOptions) { o.Serving = m }
}

// WithExtra provisions the consumer with its own dedicated broadcast
// link pair instead of sharing the environment's primary pair — the
// multi-consumer pattern.
func WithExtra() ConsumerOption {
	return func(o *core.ConsumerOptions) { o.ExtraLinks = true }
}

// WithBaseContext bounds the context-free consumer APIs (Poll, Load,
// HandleNotification) to ctx instead of context.Background(), so an
// application can cancel every implicit fetch/decode at shutdown
// without switching to the Context call forms.
func WithBaseContext(ctx context.Context) ConsumerOption {
	return func(o *core.ConsumerOptions) { o.BaseContext = ctx }
}

// NewConsumer constructs the inference-side runtime — the paper's
// load_weights(model). Without options it shares the environment's
// primary links and serves no live model instance.
func NewConsumer(env *Env, model string, opts ...ConsumerOption) (*Consumer, error) {
	var o core.ConsumerOptions
	for _, opt := range opts {
		opt(&o)
	}
	return core.NewConsumerOpts(env, model, o)
}

// Schedules (paper §4.3).

// NewFixedSchedule checkpoints every interval iterations after start.
func NewFixedSchedule(interval, start int) Schedule { return ipp.NewFixedEvery(interval, start) }

// NewExplicitSchedule checkpoints at exactly the given iterations (the
// output shape of the greedy IPP search).
func NewExplicitSchedule(name string, iters []int) Schedule {
	return ipp.NewAtIterations(name, iters)
}

// NewAdaptiveSchedule checkpoints online whenever the observed loss
// improves by more than threshold since the last checkpoint.
func NewAdaptiveSchedule(threshold float64, start int, warmupEndLoss float64) Schedule {
	return ipp.NewAdaptiveOnline(threshold, start, warmupEndLoss)
}

// FitPredictor fits the warm-up loss history and returns a training-loss
// predictor (the TLP backing the IPP).
func FitPredictor(iters, losses []float64) (ipp.LossPredictor, error) {
	tlp, _, err := ipp.FitTLP(iters, losses)
	return tlp, err
}

// PlanFixedInterval runs Algorithm 2: the near-optimal regular interval.
func PlanFixedInterval(pred ipp.LossPredictor, cost CostModel, startIter, endIter, totalInfers int) (int, error) {
	res, err := ipp.FixedIntervalSchedule(pred, cost, startIter, endIter, totalInfers)
	if err != nil {
		return 0, err
	}
	return res.BestInterval, nil
}

// PlanGreedy runs Algorithm 3: the near-optimal irregular schedule.
func PlanGreedy(pred ipp.LossPredictor, cost CostModel, startIter, endIter, totalInfers int, threshold float64) ([]int, error) {
	res, err := ipp.GreedySchedule(pred, cost, startIter, endIter, totalInfers, threshold)
	if err != nil {
		return nil, err
	}
	return res.Schedule, nil
}

// GreedyThreshold derives Algorithm 3's trigger threshold from warm-up
// losses (mean + std of consecutive differences).
func GreedyThreshold(warmupLosses []float64) float64 { return ipp.GreedyThreshold(warmupLosses) }

// Elapsed returns the duration between two clock readings (convenience
// for latency measurements around Save/Load calls).
func Elapsed(clock Clock, since time.Time) time.Duration { return clock.Now().Sub(since) }

// TraceRecorder records a deployment's timeline (saves, stalls, loads,
// swaps); attach one to Env.Trace before creating producers/consumers.
type TraceRecorder = trace.Recorder

// NewTraceRecorder returns a timeline recorder retaining up to cap
// events (0 = unbounded).
func NewTraceRecorder(cap int) *TraceRecorder { return trace.NewRecorder(cap) }

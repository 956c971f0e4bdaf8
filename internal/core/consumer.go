package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"viper/internal/h5lite"
	"viper/internal/kvstore"
	"viper/internal/memsim"
	"viper/internal/nn"
	"viper/internal/pubsub"
	"viper/internal/trace"
	"viper/internal/vformat"
)

// DoubleBuffer holds two model snapshot slots: the active one serves
// inferences while an update is written into the inactive one; Swap then
// publishes the new model atomically (the paper's "imperceptible
// downtime" switch on the consumer).
type DoubleBuffer struct {
	active  atomic.Pointer[vformat.Checkpoint]
	staging atomic.Pointer[vformat.Checkpoint]
	swaps   atomic.Int64
}

// NewDoubleBuffer returns an empty buffer (Active is nil until the first
// Swap).
func NewDoubleBuffer() *DoubleBuffer { return &DoubleBuffer{} }

// Active returns the checkpoint currently serving inferences (nil before
// the first swap).
func (b *DoubleBuffer) Active() *vformat.Checkpoint { return b.active.Load() }

// Stage installs a new checkpoint into the inactive slot.
func (b *DoubleBuffer) Stage(c *vformat.Checkpoint) { b.staging.Store(c) }

// Swap atomically promotes the staged checkpoint to active, returning the
// previously active one. It is a no-op returning nil when nothing is
// staged.
func (b *DoubleBuffer) Swap() *vformat.Checkpoint {
	staged := b.staging.Swap(nil)
	if staged == nil {
		return nil
	}
	prev := b.active.Swap(staged)
	b.swaps.Add(1)
	return prev
}

// Swaps returns the number of completed swaps.
func (b *DoubleBuffer) Swaps() int64 { return b.swaps.Load() }

// LoadReport describes one completed consumer-side model update.
type LoadReport struct {
	// Meta is the loaded checkpoint's metadata.
	Meta ModelMeta
	// LoadTime is the consumer-side time to fetch + install the model
	// (t_c in §4.3).
	LoadTime time.Duration
}

// Consumer is Viper's inference-side runtime: it resolves checkpoint
// locations from the metadata store, pulls payloads from the right tier
// or link, and installs them into a double buffer. Serving threads call
// ActiveModel; the update path never blocks them.
type Consumer struct {
	env   *Env
	model string
	buf   *DoubleBuffer
	// gpuLink and hostLink are this consumer's receive links (the
	// environment's primary pair by default; dedicated links for extra
	// consumers in the multi-consumer pattern).
	gpuLink, hostLink *Link

	// serving is an optional live model instance kept in sync with the
	// buffer so inference can run real forward passes.
	serving   nn.Model
	servingMu sync.Mutex

	// base backs the context-free API forms (Poll, Load,
	// HandleNotification); never nil.
	base context.Context

	mu      sync.Mutex
	loads   int64
	lastVer uint64
}

// ConsumerOptions configures a consumer built by NewConsumerOpts — the
// expanded constructor behind the public functional-options API.
type ConsumerOptions struct {
	// Serving is an optional live model kept in sync with the buffer so
	// inference can run real forward passes.
	Serving nn.Model
	// ExtraLinks provisions a dedicated link pair (env.AddConsumerLinks)
	// instead of sharing the environment's primary pair — the
	// multi-consumer broadcast pattern.
	ExtraLinks bool
	// BaseContext backs the context-free API forms (Poll, Load,
	// HandleNotification); nil selects context.Background(). Use it to
	// bound every implicit fetch/decode to an application lifetime
	// without threading a context through each call site.
	BaseContext context.Context
}

// NewConsumerOpts constructs a consumer for the named model with the
// full option set.
func NewConsumerOpts(env *Env, model string, o ConsumerOptions) (*Consumer, error) {
	if env == nil {
		return nil, errors.New("core: nil environment")
	}
	if model == "" {
		return nil, errors.New("core: empty model name")
	}
	if o.BaseContext == nil {
		o.BaseContext = context.Background()
	}
	c := &Consumer{
		env: env, model: model, buf: NewDoubleBuffer(), serving: o.Serving,
		gpuLink: env.GPULink, hostLink: env.HostLink,
		base: o.BaseContext,
	}
	if o.ExtraLinks {
		c.gpuLink, c.hostLink = env.AddConsumerLinks()
	}
	return c, nil
}

// Buffer exposes the double buffer (for inspection and serving).
func (c *Consumer) Buffer() *DoubleBuffer { return c.buf }

// ActiveModel returns the checkpoint currently serving (nil before the
// first update).
func (c *Consumer) ActiveModel() *vformat.Checkpoint { return c.buf.Active() }

// ActiveVersion returns the active checkpoint's version (0 if none).
func (c *Consumer) ActiveVersion() uint64 {
	if m := c.buf.Active(); m != nil {
		return m.Version
	}
	return 0
}

// Loads returns the number of completed model updates.
func (c *Consumer) Loads() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.loads
}

// Subscribe registers for the model's update notifications on the
// environment's broker.
func (c *Consumer) Subscribe() *pubsub.Subscription {
	return c.env.Notify.Subscribe(UpdateChannel(c.model))
}

// SubscribeContext is Subscribe bound to ctx: when ctx is cancelled the
// subscription closes itself (C is closed), unblocking any receiver.
// The relay goroutine exits as soon as either the context is cancelled
// or the subscription is closed by the caller, so it never outlives the
// subscription.
func (c *Consumer) SubscribeContext(ctx context.Context) *pubsub.Subscription {
	sub := c.Subscribe()
	go func() {
		select {
		case <-ctx.Done():
			sub.Close()
		case <-sub.Done():
		}
	}()
	return sub
}

// LatestMeta reads the model's newest metadata from the KV store.
func (c *Consumer) LatestMeta() (*ModelMeta, error) {
	raw, err := c.env.Meta.Get(MetaKey(c.model))
	if err != nil {
		if errors.Is(err, kvstore.ErrNotFound) {
			return nil, fmt.Errorf("core: no checkpoint published for %q yet: %w", c.model, err)
		}
		return nil, err
	}
	return DecodeMeta(raw)
}

// Poll checks the metadata store for a version newer than the active one
// and loads it if present — the baseline pull-based path the paper
// criticizes. It returns (nil, false, nil) when nothing new exists.
func (c *Consumer) Poll() (*LoadReport, bool, error) {
	return c.PollContext(c.base)
}

// PollContext is Poll with cancellation.
func (c *Consumer) PollContext(ctx context.Context) (*LoadReport, bool, error) {
	meta, err := c.LatestMeta()
	if err != nil {
		if errors.Is(err, kvstore.ErrNotFound) {
			return nil, false, nil
		}
		return nil, false, err
	}
	c.mu.Lock()
	last := c.lastVer
	c.mu.Unlock()
	if meta.Version <= last {
		return nil, false, nil
	}
	rep, err := c.LoadContext(ctx, meta)
	if err != nil {
		return nil, false, err
	}
	return rep, true, nil
}

// HandleNotification decodes a pushed update event and loads the model.
// It returns (nil, nil) when the notified version is already superseded
// by the active one (a newer frame was applied earlier).
func (c *Consumer) HandleNotification(msg pubsub.Message) (*LoadReport, error) {
	return c.HandleNotificationContext(c.base, msg)
}

// HandleNotificationContext is HandleNotification with cancellation: a
// cancelled context aborts the fetch/decode without installing anything.
func (c *Consumer) HandleNotificationContext(ctx context.Context, msg pubsub.Message) (*LoadReport, error) {
	meta, err := DecodeMeta(msg.Payload)
	if err != nil {
		return nil, err
	}
	return c.LoadContext(ctx, meta)
}

// Load pulls the checkpoint described by meta from its location,
// installs it into the inactive buffer slot and swaps. The returned
// report's LoadTime is t_c.
//
// Memory-route updates are superseding: if newer frames are already
// queued on the link, the newest one is applied (the paper's consumers
// always want the latest model). A notification for a version at or
// below the active one is skipped, returning (nil, nil).
func (c *Consumer) Load(meta *ModelMeta) (*LoadReport, error) {
	return c.LoadContext(c.base, meta)
}

// LoadContext is Load with cancellation: the context is checked before
// the fetch and threaded through the chunked decode, whose worker pool
// drains before an abort returns.
func (c *Consumer) LoadContext(ctx context.Context, meta *ModelMeta) (*LoadReport, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	stale := meta.Version <= c.lastVer
	c.mu.Unlock()
	if stale {
		return nil, nil
	}
	clock := c.env.Clock
	start := clock.Now()
	var payload []byte
	var err error
	switch meta.Location {
	case RoutePFS:
		payload, err = c.env.Cluster.PFS.Read(meta.Path)
		if err != nil {
			return nil, fmt.Errorf("core: PFS read: %w", err)
		}
	case RouteHost:
		payload, err = c.recvVia(c.hostLink, c.env.Cluster.Consumer.Host, meta)
		if err != nil {
			return nil, err
		}
	case RouteGPU:
		payload, err = c.recvVia(c.gpuLink, c.env.Cluster.Consumer.GPU, meta)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("core: unknown checkpoint location %q", meta.Location)
	}

	ckpt, err := c.decodePayload(ctx, meta, payload)
	if err != nil {
		return nil, err
	}
	c.buf.Stage(ckpt)
	c.buf.Swap()
	if c.serving != nil {
		c.servingMu.Lock()
		err = nn.RestoreSnapshot(c.serving, ckpt.Weights)
		c.servingMu.Unlock()
		if err != nil {
			return nil, fmt.Errorf("core: restoring serving model: %w", err)
		}
	}
	// The applied checkpoint may be newer than the notified one (frames
	// drained to the newest); report what was actually installed.
	applied := *meta
	if ckpt.Version != meta.Version {
		applied.Version = ckpt.Version
		applied.Iteration = ckpt.Iteration
		applied.TrainLoss = ckpt.TrainLoss
		applied.Path = CheckpointKey(c.model, ckpt.Version)
	}
	c.mu.Lock()
	c.loads++
	if applied.Version > c.lastVer {
		c.lastVer = applied.Version
	}
	c.mu.Unlock()
	loadTime := clock.Now().Sub(start)
	c.env.Trace.Record(trace.Event{
		At: start, Kind: trace.KindLoad, Model: c.model, Version: applied.Version,
		Duration: loadTime, Detail: string(applied.Location),
	})
	c.env.Trace.Record(trace.Event{
		At: clock.Now(), Kind: trace.KindSwap, Model: c.model, Version: applied.Version,
	})
	return &LoadReport{Meta: applied, LoadTime: loadTime}, nil
}

// ErrNoRecoverableCheckpoint is returned by RecoverFromPFS when the PFS
// flush history holds no checkpoint for the model.
var ErrNoRecoverableCheckpoint = errors.New("core: no recoverable checkpoint on the PFS")

// RecoverFromPFS installs the newest checkpoint from the PFS flush
// history, bypassing the memory links entirely — the
// fault-tolerance path enabled by the producer's FlushHistory option.
// Use it when a consumer (re)starts after the memory-resident copies and
// queued frames are gone.
func (c *Consumer) RecoverFromPFS() (*LoadReport, error) {
	// Walk the per-version metadata records newest-first and pick the
	// first whose payload is present on the PFS.
	keys := c.env.Meta.Keys(MetaKey(c.model) + "/v")
	for i := len(keys) - 1; i >= 0; i-- {
		raw, err := c.env.Meta.Get(keys[i])
		if err != nil {
			continue
		}
		meta, err := DecodeMeta(raw)
		if err != nil {
			continue
		}
		if !c.env.Cluster.PFS.Has(meta.Path) {
			continue
		}
		recovered := *meta
		recovered.Location = RoutePFS
		// Force the install even if lastVer believes it has seen this
		// version (the in-memory state is gone after a crash).
		c.mu.Lock()
		if c.lastVer >= recovered.Version {
			c.lastVer = recovered.Version - 1
		}
		c.mu.Unlock()
		return c.Load(&recovered)
	}
	return nil, ErrNoRecoverableCheckpoint
}

// recvVia receives the checkpoint frame from the link (the wire time was
// charged by the sender), drains any additionally queued frames down to
// the newest (every frame is a whole checkpoint and keys sort by
// version), lands it in the local tier at no extra charge (RDMA
// semantics), then charges the tier read that moves it into the serving
// buffer.
func (c *Consumer) recvVia(link *Link, local *memsim.Device, meta *ModelMeta) ([]byte, error) {
	frame, err := link.Recv()
	if err != nil {
		return nil, fmt.Errorf("core: link recv: %w", err)
	}
	for {
		next, ok := link.TryRecv()
		if !ok {
			break
		}
		if next.Key > frame.Key {
			frame = next
		}
	}
	if frame.Key < meta.Path {
		return nil, fmt.Errorf("core: received stale frame %q, expected at least %q", frame.Key, meta.Path)
	}
	local.EvictOldest(meta.Size)
	if err := local.Put(frame.Key, frame.Payload, meta.Size); err != nil {
		return nil, fmt.Errorf("core: landing frame: %w", err)
	}
	payload, err := local.Read(frame.Key)
	if err != nil {
		return nil, fmt.Errorf("core: local read: %w", err)
	}
	return payload, nil
}

// decodePayload parses a checkpoint in the format its metadata names:
// chunked v2 ("vchunk"), or one of the whole-file reference baselines
// ("vformat", "h5").
func (c *Consumer) decodePayload(ctx context.Context, meta *ModelMeta, payload []byte) (*vformat.Checkpoint, error) {
	switch meta.Format {
	case "vformat":
		return vformat.Decode(payload)
	case "vchunk":
		// Chunked v2 blob: per-chunk CRC verification and decode fan out
		// over the worker pool, writing straight into the preallocated
		// snapshot.
		return vformat.DecodeChunked(ctx, payload, 0)
	case "h5":
		return decodeH5(meta, payload)
	default:
		return nil, fmt.Errorf("core: unknown checkpoint format %q", meta.Format)
	}
}

// decodeH5 parses the h5py-style baseline layout back into a checkpoint.
func decodeH5(meta *ModelMeta, payload []byte) (*vformat.Checkpoint, error) {
	f, err := h5lite.Decode(payload)
	if err != nil {
		return nil, fmt.Errorf("core: h5 decode: %w", err)
	}
	g, ok := f.Root().Group("model_weights")
	if !ok {
		return nil, errors.New("core: h5 checkpoint missing model_weights group")
	}
	ckpt := &vformat.Checkpoint{
		ModelName: meta.Name,
		Version:   meta.Version,
		Iteration: meta.Iteration,
		TrainLoss: meta.TrainLoss,
	}
	for _, name := range g.Datasets() {
		ds, _ := g.Dataset(name)
		orig := ds.Attrs["original_name"]
		if orig == "" {
			orig = name
		}
		ckpt.Weights = append(ckpt.Weights, nn.NamedTensor{Name: orig, Shape: ds.Shape, Data: ds.Data})
	}
	return ckpt, nil
}

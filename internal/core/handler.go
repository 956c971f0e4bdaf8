package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"viper/internal/chunkstore"
	"viper/internal/h5lite"
	"viper/internal/kvstore"
	"viper/internal/memsim"
	"viper/internal/nn"
	"viper/internal/pubsub"
	"viper/internal/simclock"
	"viper/internal/trace"
	"viper/internal/vformat"
)

// H5FragmentationFactor models the extra I/O the h5py baseline pays on the
// PFS beyond its raw byte count: HDF5 writes object headers, B-tree nodes
// and heap blocks as many small uncoordinated accesses, which Lustre-like
// file systems serve far below streaming bandwidth. The factor is
// calibrated to the paper's measured baseline-vs-Viper-PFS gap (Figure 8:
// 1.14–1.32×).
const H5FragmentationFactor = 1.15

// StagingCopyModel is the bandwidth model of the extra staging copy paid
// by asynchronous saves (the paper's "extra copy" that makes Viper-Async
// slightly slower end-to-end than Viper-Sync while freeing the trainer).
var StagingCopyModel = memsim.BandwidthModel{Latency: 20 * time.Microsecond, BytesPerSec: 20 * float64(1<<30)}

// Env bundles the simulated environment a Viper deployment runs in.
type Env struct {
	// Clock drives all timing (virtual in experiments, wall in demos).
	Clock simclock.Clock
	// Cluster is the two-node + shared-PFS topology.
	Cluster *memsim.Cluster
	// GPULink is the producer→consumer GPUDirect-style link.
	GPULink *Link
	// HostLink is the producer→consumer host-RDMA-style link.
	HostLink *Link
	// Meta is the shared metadata store (the paper's Redis).
	Meta *kvstore.Store
	// Notify is the notification module (the paper's pub/sub).
	Notify *pubsub.Broker
	// Trace optionally records the run's timeline (nil disables).
	Trace *trace.Recorder

	// ExtraGPULinks and ExtraHostLinks carry additional consumers beyond
	// the primary pair — the paper's future-work multi-consumer pattern.
	// Saves broadcast to the primary link plus all extras; each extra
	// consumer reads its own links (see AddConsumerLinks).
	ExtraGPULinks  []*Link
	ExtraHostLinks []*Link
}

// NewEnv builds a default environment on the given clock.
func NewEnv(clock simclock.Clock) *Env {
	return &Env{
		Clock:    clock,
		Cluster:  memsim.NewCluster(clock),
		GPULink:  NewLink(gpuDirectModel, clock, 64),
		HostLink: NewLink(hostIBModel, clock, 64),
		Meta:     kvstore.NewStore(),
		Notify:   pubsub.NewBroker(128),
	}
}

// AddConsumerLinks provisions a dedicated link pair for one additional
// consumer and registers it for broadcast.
func (e *Env) AddConsumerLinks() (gpu, host *Link) {
	gpu = NewLink(gpuDirectModel, e.Clock, 64)
	host = NewLink(hostIBModel, e.Clock, 64)
	e.ExtraGPULinks = append(e.ExtraGPULinks, gpu)
	e.ExtraHostLinks = append(e.ExtraHostLinks, host)
	return gpu, host
}

// Close releases the environment's links.
func (e *Env) Close() {
	e.GPULink.Close()
	e.HostLink.Close()
	for _, l := range e.ExtraGPULinks {
		l.Close()
	}
	for _, l := range e.ExtraHostLinks {
		l.Close()
	}
}

// SaveReport describes one completed checkpoint save.
type SaveReport struct {
	// Meta is the stored checkpoint metadata.
	Meta ModelMeta
	// Stall is the time training was blocked (t_p in §4.3).
	Stall time.Duration
	// Total is the producer-side end-to-end time including the wire
	// transfer (for memory routes) or the PFS write.
	Total time.Duration
	// FlushTime is the modelled background time spent flushing the
	// checkpoint to the PFS for fault tolerance (memory routes only; it
	// does not stall training).
	FlushTime time.Duration
}

// HandlerStats aggregates a handler's activity.
type HandlerStats struct {
	// Saves counts completed checkpoints.
	Saves int64
	// TotalStall accumulates training stall time.
	TotalStall time.Duration
	// FlushedBytes counts fault-tolerance PFS flush traffic.
	FlushedBytes int64
	// Fallbacks counts saves that had to downgrade their route because a
	// memory tier was full.
	Fallbacks int64
	// StoredVersions counts checkpoints written through to the attached
	// time-travel store.
	StoredVersions int64
	// StoreErrors counts failed time-travel store writes. The store's
	// failure mode is sticky until reopen, so a non-zero count with
	// StoredVersions flat means history has silently stopped accruing.
	StoreErrors int64
}

// WeightsHandler is Viper's memory-first model transfer engine on the
// producer side. It serializes the snapshot, selects the transfer path,
// charges the producer's stall, records metadata, and notifies consumers.
type WeightsHandler struct {
	env      *Env
	strategy Strategy
	model    string
	// virtualSize is the accounted checkpoint size (paper-scale); 0 means
	// "use the physical payload size".
	virtualSize int64
	// flushHistory mirrors the paper's fault-tolerance flush of every
	// checkpoint to the PFS via a background thread.
	flushHistory bool
	precision    vformat.Precision
	chunkSize    int
	parallelism  int
	// store is the optional time-travel store: every save is written
	// through, so older versions remain reloadable (LoadVersion) and the
	// lineage can be rewound (Rollback). The store is caller-owned; the
	// handler never closes it.
	store *chunkstore.Store

	mu      sync.Mutex
	version uint64
	stats   HandlerStats
}

// HandlerConfig configures a WeightsHandler.
type HandlerConfig struct {
	// Model is the model name used in keys and channels.
	Model string
	// Strategy selects route/mode/baseline.
	Strategy Strategy
	// VirtualSize is the accounted checkpoint size in bytes (e.g.
	// models.SizeTC1); 0 accounts the real payload size. Quantized
	// transfers scale it by their wire stride.
	VirtualSize int64
	// FlushHistory enables background PFS flushes of every checkpoint.
	FlushHistory bool
	// Precision selects the wire precision (PrecFloat64 = lossless
	// default); the conversion is folded into the chunk encoding, so
	// anything else requires ChunkSize.
	Precision vformat.Precision
	// ChunkSize selects Viper's one encoding, chunked v2: checkpoints
	// are split into ChunkSize-byte chunks encoded by a worker pool into
	// one pooled blob. 0 is the simulator's reference baseline — the lean
	// v1 format Figure 8 compares against h5 — and carries neither
	// Precision nor Store; the functional-options public API defaults to
	// vformat.DefaultChunkBytes. Ignored for the baseline strategy.
	ChunkSize int
	// Parallelism bounds the encode worker pool (0 = GOMAXPROCS).
	Parallelism int
	// Store, when non-nil, attaches a durable time-travel store: every
	// checkpoint is written through at save time. The store holds chunk
	// records only, so it requires ChunkSize. The caller owns the store's
	// lifecycle.
	Store *chunkstore.Store
}

// NewWeightsHandler constructs a producer-side handler.
func NewWeightsHandler(env *Env, cfg HandlerConfig) (*WeightsHandler, error) {
	if env == nil {
		return nil, errors.New("core: nil environment")
	}
	if cfg.Model == "" {
		return nil, errors.New("core: empty model name")
	}
	if err := cfg.Strategy.Validate(); err != nil {
		return nil, err
	}
	if cfg.VirtualSize < 0 {
		return nil, fmt.Errorf("core: negative virtual size %d", cfg.VirtualSize)
	}
	switch cfg.Precision {
	case vformat.PrecFloat64, vformat.PrecFloat32, vformat.PrecFloat16:
	default:
		return nil, fmt.Errorf("core: unknown precision %d", cfg.Precision)
	}
	if (cfg.ChunkSize == 0 || cfg.Strategy.Baseline) &&
		(cfg.Precision != vformat.PrecFloat64 || cfg.Store != nil) {
		// The v1 and h5 baselines are whole-file references: precision
		// and the chunk store live in the chunked encoding only.
		return nil, errors.New("core: Precision and Store need the chunked encoding: set ChunkSize > 0 on a non-baseline strategy")
	}
	if cfg.ChunkSize < 0 {
		return nil, fmt.Errorf("core: negative chunk size %d", cfg.ChunkSize)
	}
	if cfg.Parallelism < 0 {
		return nil, fmt.Errorf("core: negative parallelism %d", cfg.Parallelism)
	}
	return &WeightsHandler{
		env:          env,
		strategy:     cfg.Strategy,
		model:        cfg.Model,
		virtualSize:  cfg.VirtualSize,
		flushHistory: cfg.FlushHistory,
		precision:    cfg.Precision,
		chunkSize:    cfg.ChunkSize,
		parallelism:  cfg.Parallelism,
		store:        cfg.Store,
	}, nil
}

// Strategy returns the active transfer strategy.
func (h *WeightsHandler) Strategy() Strategy { return h.strategy }

// Stats returns a snapshot of the handler's counters.
func (h *WeightsHandler) Stats() HandlerStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.stats
}

// Version returns the latest checkpoint version (0 before the first save).
func (h *WeightsHandler) Version() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.version
}

// ResumeFrom continues the version sequence after a producer restart:
// subsequent saves are numbered from version+1.
func (h *WeightsHandler) ResumeFrom(version uint64) {
	h.mu.Lock()
	if version > h.version {
		h.version = version
	}
	h.mu.Unlock()
}

// LoadVersion reloads an older checkpoint from the attached
// time-travel store and decodes it.
func (h *WeightsHandler) LoadVersion(ctx context.Context, version uint64) (*vformat.Checkpoint, error) {
	if h.store == nil {
		return nil, errors.New("core: no time-travel store attached")
	}
	blob, err := h.store.LoadVersion(h.model, version)
	if err != nil {
		return nil, err
	}
	return vformat.DecodeAuto(ctx, blob, h.parallelism)
}

// StoredVersions lists the versions the attached time-travel store
// retains, ascending (nil without a store).
func (h *WeightsHandler) StoredVersions() []uint64 {
	if h.store == nil {
		return nil
	}
	return h.store.Versions(h.model)
}

// Rollback rewinds the lineage to an older stored version: the
// checkpoint is reloaded from the store, every newer stored version is
// retired, and the next save continues from version+1.
func (h *WeightsHandler) Rollback(ctx context.Context, version uint64) (*vformat.Checkpoint, error) {
	ckpt, err := h.LoadVersion(ctx, version)
	if err != nil {
		return nil, err
	}
	for _, vn := range h.store.Versions(h.model) {
		if vn > version {
			if err := h.store.Retire(h.model, vn); err != nil {
				return nil, err
			}
		}
	}
	if err := h.store.GC(); err != nil {
		return nil, err
	}
	h.mu.Lock()
	h.version = version
	h.mu.Unlock()
	return ckpt, nil
}

// encode serializes the checkpoint in the strategy's format and returns
// (payload, format, accounted size): the chunked v2 pipeline output, or
// one of the two whole-file reference baselines — h5, or lean v1 when
// ChunkSize is 0.
func (h *WeightsHandler) encode(ctx context.Context, ckpt *vformat.Checkpoint) ([]byte, string, int64, error) {
	if h.strategy.Baseline {
		payload, err := encodeH5(ckpt)
		if err != nil {
			return nil, "", 0, err
		}
		size := h.virtualSize
		if size <= 0 {
			size = int64(len(payload))
		}
		// The baseline pays for its fragmented metadata-heavy layout.
		size = int64(float64(size) * H5FragmentationFactor)
		return payload, "h5", size, nil
	}
	if h.chunkSize > 0 {
		return h.encodeChunked(ctx, ckpt)
	}
	full, err := ckpt.Encode()
	if err != nil {
		return nil, "", 0, err
	}
	size := h.virtualSize
	if size <= 0 {
		size = int64(len(full))
	}
	return full, "vformat", size, nil
}

// encodeChunked is the chunked-pipeline encode: the checkpoint becomes
// one self-contained wire-format-v2 blob built by the worker pool in a
// single pass over the weights (precision conversion folded in).
// In-process routes ship the blob as one frame to preserve the links'
// latest-wins queue semantics; multi-frame streaming and chunk-level
// deltas live in the remote transport.
func (h *WeightsHandler) encodeChunked(ctx context.Context, ckpt *vformat.Checkpoint) ([]byte, string, int64, error) {
	// The blob's ownership transfers to the storage tiers/links below, so
	// it is never returned to the buffer pool here.
	blob, err := vformat.EncodeChunked(ctx, ckpt, vformat.ChunkOptions{
		Precision:   h.precision,
		ChunkBytes:  h.chunkSize,
		Parallelism: h.parallelism,
	})
	if err != nil {
		return nil, "", 0, fmt.Errorf("core: chunked encode: %w", err)
	}
	size := int64(len(blob))
	if h.virtualSize > 0 {
		// Reduced precision shrinks the wire payload proportionally.
		size = max(h.virtualSize*int64(h.precision.BytesPerElement())/8, 1)
	}
	return blob, "vchunk", size, nil
}

// Save checkpoints the given snapshot taken at iteration with the
// observed training loss, executing the configured transfer strategy.
func (h *WeightsHandler) Save(snapshot nn.Snapshot, iteration uint64, loss float64) (*SaveReport, error) {
	//lint:ignore ctxflow compat shim: the context-free API is the documented uncancellable form of SaveContext
	return h.SaveContext(context.Background(), snapshot, iteration, loss)
}

// SaveContext is Save with cancellation: a cancelled context aborts the
// save (draining the chunk pipeline's workers before returning) and no
// metadata or notification is published for the abandoned version.
func (h *WeightsHandler) SaveContext(ctx context.Context, snapshot nn.Snapshot, iteration uint64, loss float64) (*SaveReport, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	h.mu.Lock()
	h.version++
	version := h.version
	h.mu.Unlock()

	ckpt := &vformat.Checkpoint{
		ModelName: h.model,
		Version:   version,
		Iteration: iteration,
		TrainLoss: loss,
		Weights:   snapshot,
	}
	payload, format, size, err := h.encode(ctx, ckpt)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	key := CheckpointKey(h.model, version)
	clock := h.env.Clock
	start := clock.Now()
	var stallEnd time.Time
	location := h.strategy.Route
	var flushTime time.Duration

	switch h.strategy.Route {
	case RoutePFS:
		// Write through to the shared PFS; the producer blocks for the
		// full write (no memory staging to hide behind).
		if err := h.env.Cluster.PFS.Write(key, payload, size); err != nil {
			return nil, fmt.Errorf("core: PFS write: %w", err)
		}
		stallEnd = clock.Now()

	case RouteGPU, RouteHost:
		device := h.captureDevice()
		if h.strategy.Mode == ModeAsync {
			// Async: the trainer only blocks while the snapshot is
			// captured into the local memory tier (d2d for the GPU
			// route, d2h for the host route)...
			if err := h.captureWithFallback(device, key, payload, size, &location); err != nil {
				return nil, err
			}
			stallEnd = clock.Now()
			// ...then a background thread pays the extra staging copy
			// and ships the checkpoint (sequenced here on the same
			// timeline, which is exact for end-to-end latency).
			clock.Sleep(StagingCopyModel.Time(size))
			if err := h.sendFrame(key, payload, size, location); err != nil {
				return nil, err
			}
		} else {
			// Sync: the trainer blocks for capture + wire transfer.
			if err := h.captureWithFallback(device, key, payload, size, &location); err != nil {
				return nil, err
			}
			if err := h.sendFrame(key, payload, size, location); err != nil {
				return nil, err
			}
			stallEnd = clock.Now()
		}
		// Fault-tolerance flush to PFS in the background: it consumes
		// PFS time but does not stall training; account it separately.
		if h.flushHistory && location != RoutePFS {
			if err := h.env.Cluster.PFS.Put(key, payload, size); err == nil {
				flushTime = h.env.Cluster.PFS.WriteTime(size)
				h.mu.Lock()
				h.stats.FlushedBytes += size
				h.mu.Unlock()
			}
		}

	default:
		return nil, fmt.Errorf("core: unknown route %q", h.strategy.Route)
	}

	end := clock.Now()
	meta := ModelMeta{
		Name:      h.model,
		Version:   version,
		Iteration: iteration,
		TrainLoss: loss,
		Location:  location,
		Path:      key,
		Size:      size,
		Format:    format,
		SavedAt:   end,
	}
	encoded, err := meta.Encode()
	if err != nil {
		return nil, err
	}
	h.env.Meta.Set(MetaKey(h.model), encoded)
	h.env.Meta.Set(MetaKey(h.model)+fmt.Sprintf("/v%08d", version), encoded)
	// Push notification: with the baseline strategy consumers poll
	// instead (the paper's critique), so no event is published.
	if !h.strategy.Baseline {
		h.env.Notify.Publish(UpdateChannel(h.model), encoded)
	}

	// Time-travel write-through.
	if h.store != nil {
		err := h.store.PutBlob(h.model, version, key, payload)
		h.mu.Lock()
		if err == nil {
			h.stats.StoredVersions++
		} else {
			// A failed write degrades to memory-only history for this
			// version; the stat keeps the degradation observable because
			// the store's sticky failure would otherwise only show as
			// StoredVersions quietly ceasing to increment.
			h.stats.StoreErrors++
		}
		h.mu.Unlock()
	}

	stall := stallEnd.Sub(start)
	h.mu.Lock()
	h.stats.Saves++
	h.stats.TotalStall += stall
	h.mu.Unlock()
	h.env.Trace.Record(trace.Event{
		At: start, Kind: trace.KindSave, Model: h.model, Version: version,
		Duration: end.Sub(start), Detail: h.strategy.String(),
	})
	h.env.Trace.Record(trace.Event{
		At: start, Kind: trace.KindStall, Model: h.model, Version: version, Duration: stall,
	})
	return &SaveReport{Meta: meta, Stall: stall, Total: end.Sub(start), FlushTime: flushTime}, nil
}

// captureDevice returns the producer-side capture device for the current
// memory route.
func (h *WeightsHandler) captureDevice() *memsim.Device {
	if h.strategy.Route == RouteGPU {
		return h.env.Cluster.Producer.GPU
	}
	return h.env.Cluster.Producer.Host
}

// captureWithFallback writes the checkpoint into the preferred memory
// tier, degrading GPU→host→PFS when capacity runs out — the transfer
// selector's fallback from §4.4. It keeps only the latest checkpoint in
// memory tiers (evicting older versions first), mirroring the paper's
// "only buffer the latest DNN model" policy.
func (h *WeightsHandler) captureWithFallback(device *memsim.Device, key string, payload []byte, size int64, location *Route) error {
	devices := []*memsim.Device{device}
	routes := []Route{*location}
	if h.strategy.Route == RouteGPU {
		devices = append(devices, h.env.Cluster.Producer.Host)
		routes = append(routes, RouteHost)
	}
	for i, d := range devices {
		d.EvictOldest(size)
		err := d.Write(key, payload, size)
		if err == nil {
			*location = routes[i]
			if i > 0 {
				h.mu.Lock()
				h.stats.Fallbacks++
				h.mu.Unlock()
			}
			return nil
		}
		if !errors.Is(err, memsim.ErrCapacityExceeded) {
			return fmt.Errorf("core: capture: %w", err)
		}
	}
	// Last resort: the PFS never runs out.
	if err := h.env.Cluster.PFS.Write(key, payload, size); err != nil {
		return fmt.Errorf("core: capture fallback to PFS: %w", err)
	}
	*location = RoutePFS
	h.mu.Lock()
	h.stats.Fallbacks++
	h.mu.Unlock()
	return nil
}

// sendFrame ships the captured checkpoint over the link matching its
// final location — after a capacity fallback the consumer pulls from the
// fallback tier's link. It is a no-op when the capture fell all the way
// back to the PFS, which the consumer reads directly.
func (h *WeightsHandler) sendFrame(key string, payload []byte, size int64, location Route) error {
	if location == RoutePFS {
		return nil
	}
	links := append([]*Link{h.env.HostLink}, h.env.ExtraHostLinks...)
	if location == RouteGPU {
		links = append([]*Link{h.env.GPULink}, h.env.ExtraGPULinks...)
	}
	frame := LinkFrame{Key: key, Model: h.model, Payload: payload, Size: size}
	// Broadcast: the primary consumer plus any extras, serialized on the
	// producer's NIC (each send charges its own modelled transfer time).
	// The checkpoint was encoded exactly once above; every link enqueues
	// the same frame (SendLatest aliases the payload), so the producer-side
	// CPU cost (encode + copies) stays flat in the consumer count — only
	// the modelled wire time grows. Sharing is safe because the payload's
	// ownership transferred to the delivery tiers: nothing mutates it
	// after this point, and consumers only read it. Delivery is
	// latest-wins: if a consumer lags, superseded frames are evicted
	// rather than stalling training.
	for _, link := range links {
		if err := link.SendLatest(frame); err != nil {
			return fmt.Errorf("core: link send: %w", err)
		}
	}
	return nil
}

// encodeH5 serializes a checkpoint in the h5py-style baseline layout:
// a "model_weights" group with one dataset per tensor plus the metadata
// h5py would attach.
func encodeH5(ckpt *vformat.Checkpoint) ([]byte, error) {
	f := h5lite.New()
	f.Root().Attrs["backend"] = "h5lite"
	f.Root().Attrs["keras_version"] = "2.9.0" // mimic h5py extras
	g, err := f.Root().CreateGroup("model_weights")
	if err != nil {
		return nil, err
	}
	g.Attrs["model_name"] = ckpt.ModelName
	g.Attrs["version"] = fmt.Sprint(ckpt.Version)
	g.Attrs["iteration"] = fmt.Sprint(ckpt.Iteration)
	for _, nt := range ckpt.Weights {
		name := sanitizeH5Name(nt.Name)
		ds, err := g.CreateDataset(name, nt.Shape, nt.Data)
		if err != nil {
			return nil, err
		}
		ds.Attrs["original_name"] = nt.Name
	}
	return f.Bytes()
}

func sanitizeH5Name(name string) string {
	out := make([]rune, 0, len(name))
	for _, r := range name {
		if r == '/' {
			r = '.'
		}
		out = append(out, r)
	}
	return string(out)
}

// Package remote implements Viper's multi-process deployment: a producer
// and a consumer on (potentially) different machines, sharing a metadata
// server and a notification broker over TCP, and streaming checkpoints
// over a direct TCP link — the wall-clock analogue of the in-process
// engine in internal/core, used by the cmd/viper-producer and
// cmd/viper-consumer demo binaries.
//
// The delivery pipeline is fault-tolerant: both ends drive the direct
// link through transport.ReconnectLink (redial / re-accept with bounded
// retries), the metadata client retries idempotent operations, and when
// the direct link stays faulted the producer degrades to staging the
// checkpoint payload in the KV store — mirroring the in-process
// GPU→host→PFS fallback of core.WeightsHandler.captureWithFallback —
// from where the consumer backfills any update the link lost.
package remote

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"viper/internal/core"
	"viper/internal/kvstore"
	"viper/internal/metrics"
	"viper/internal/nn"
	"viper/internal/pubsub"
	"viper/internal/retry"
	"viper/internal/simclock"
	"viper/internal/transport"
	"viper/internal/vformat"
)

// stagedHistory is how many staged checkpoint payloads the producer
// keeps in the KV store (older ones are deleted to bound memory).
const stagedHistory = 2

// defaultLinkWait bounds how long the consumer waits for a notified
// checkpoint to arrive on the direct link before backfilling it from
// the KV staging area.
const defaultLinkWait = 2 * time.Second

// ProducerConfig configures a remote producer.
type ProducerConfig struct {
	// Model names the model.
	Model string
	// MetaAddr is the kvstore server address.
	MetaAddr string
	// NotifyAddr is the pubsub server address.
	NotifyAddr string
	// ListenAddr is where to await the consumer's direct link (use
	// "127.0.0.1:0" to pick a free port). Ignored when RelayAddr is set.
	ListenAddr string
	// OnListen, if set, receives the bound link address before the
	// producer blocks waiting for the consumer.
	OnListen func(addr string)
	// RelayAddr selects relay target mode: instead of listening for one
	// consumer's direct link, the producer dials the relay node's ingest
	// address (internal/relay) and pushes each version's stream there
	// exactly once; the relay caches the encoded frames and fans them
	// out to every connected consumer (encode-once/send-many),
	// recording relay-served metadata and republishing the update
	// notification when a version is fully cached. The producer's own
	// staging copy, metadata write, and notification are unchanged, so
	// delivery degrades exactly like the direct path when the relay is
	// unreachable (consumers backfill from KV staging).
	RelayAddr string
	// RelayDial, if set, replaces the relay-link dial (fault injection
	// hooks in here). Only meaningful with RelayAddr.
	RelayDial func(addr string) (net.Conn, error)
	// Retry bounds reconnect/resend attempts on the networked paths.
	// The zero value selects retry.Default over the wall clock.
	Retry retry.Policy
	// DisableStaging turns off the redundant KV staging copy of a
	// checkpoint the link carried. A checkpoint the link could not carry
	// is staged regardless — staging is then its only delivery path.
	DisableStaging bool
	// LinkWrap, if set, decorates each accepted link connection (fault
	// injection hooks in here).
	LinkWrap func(net.Conn) net.Conn
	// ChunkSize is the chunk granularity in bytes (0 selects
	// vformat.DefaultChunkBytes). Every checkpoint travels the link as a
	// header frame plus one frame per chunk (chunk N on the wire while
	// N+1 is still being encoded), the staging copy holds the chunked
	// blob, and metadata reports the "vchunk" format.
	ChunkSize int
	// Parallelism bounds the chunk-encode worker pool (0 = GOMAXPROCS).
	Parallelism int
	// DisableDeltaReconcile turns off chunk-level delta publishing. By
	// default the producer reads have-lists the receiver sends back,
	// ships subsequent versions as manifest+missing delta streams, and
	// answers need-lists for chunks the receiver advertised but lost.
	// Disabling restores the always-full chunked streams (and the
	// producer never reads its link).
	DisableDeltaReconcile bool
	// DeltaEps, when positive (and delta publishing is on), enables
	// base-suppressed encoding: an element that moved less than
	// DeltaEps from the previously published wire value re-encodes
	// that value, so chunks whose weights only drifted stay
	// byte-identical across versions and dedup against the receiver's
	// advertised store. Per-element error is bounded by DeltaEps
	// (suppressed elements hold the last value that moved; error does
	// not accumulate). Zero deduplicates only exactly-unchanged chunks.
	DeltaEps float64
	// BaseContext is the root of the producer's lifecycle context: the
	// context-free Publish runs under it, and Close cancels it, so an
	// in-flight publish aborts instead of outliving the producer. Nil
	// defaults to context.Background().
	BaseContext context.Context
}

// registry is the package's metrics surface: delivery-path counters for
// every producer and consumer in the process. All record sites are
// per-checkpoint (never per-byte), so direct atomic increments cost
// nothing measurable.
var registry = metrics.NewRegistry("remote")

// Metrics returns the package's metrics registry.
func Metrics() *metrics.Registry { return registry }

var inst = struct {
	linkSends          *metrics.Counter
	linkFailures       *metrics.Counter
	staged             *metrics.Counter
	installs           *metrics.Counter
	linkLoads          *metrics.Counter
	stagedLoads        *metrics.Counter
	skippedVersions    *metrics.Counter
	staleNotifications *metrics.Counter
	discardedFrames    *metrics.Counter
	deltaLoads         *metrics.Counter
	haveLists          *metrics.Counter
	deltaSends         *metrics.Counter
	stageFlushes       *metrics.Counter
	stageSuperseded    *metrics.Counter
	stageFlushMS       *metrics.Histogram
	prebuiltInstalls   *metrics.Counter
	abandonedBuilds    *metrics.Counter
	fillSuperseded     *metrics.Counter
	cacheFillMS        *metrics.Histogram
	haveListLagMS      *metrics.Histogram // install → its have-list written
	// Per delta publish: records the encoder hashed, and hashes it
	// inherited from the previous encode. Per delta install: positions
	// copied from the span source, and cached records CRC-checked and decoded.
	hashedChunks       *metrics.Counter
	inheritedHashes    *metrics.Counter
	inheritedChunks    *metrics.Counter
	cacheDecodedChunks *metrics.Counter
}{
	linkSends:          registry.Counter("producer_link_sends"),
	linkFailures:       registry.Counter("producer_link_failures"),
	staged:             registry.Counter("producer_staged"),
	installs:           registry.Counter("consumer_installs"),
	linkLoads:          registry.Counter("consumer_link_loads"),
	stagedLoads:        registry.Counter("consumer_staged_loads"),
	skippedVersions:    registry.Counter("consumer_skipped_versions"),
	staleNotifications: registry.Counter("consumer_stale_notifications"),
	discardedFrames:    registry.Counter("consumer_discarded_frames"),
	deltaLoads:         registry.Counter("consumer_delta_loads"),
	haveLists:          registry.Counter("producer_have_lists"),
	deltaSends:         registry.Counter("producer_delta_sends"),
	stageFlushes:       registry.Counter("producer_stage_flushes"),
	stageSuperseded:    registry.Counter("producer_stage_superseded"),
	stageFlushMS:       registry.Histogram("producer_stage_flush_ms"),
	prebuiltInstalls:   registry.Counter("consumer_prebuilt_installs"),
	abandonedBuilds:    registry.Counter("consumer_abandoned_builds"),
	fillSuperseded:     registry.Counter("consumer_fill_superseded"),
	cacheFillMS:        registry.Histogram("consumer_cache_fill_ms"),
	haveListLagMS:      registry.Histogram("consumer_have_list_lag_ms"),
	hashedChunks:       registry.Counter("producer_hashed_chunks"),
	inheritedHashes:    registry.Counter("producer_inherited_hashes"),
	inheritedChunks:    registry.Counter("consumer_inherited_chunks"),
	cacheDecodedChunks: registry.Counter("consumer_cache_decoded_chunks"),
}

// ProducerStats counts producer-side delivery activity.
type ProducerStats struct {
	// LinkSends counts checkpoints that reached the direct link.
	LinkSends int64
	// LinkFailures counts checkpoints the link could not carry even
	// after retries (delivered via staging instead).
	LinkFailures int64
	// Staged counts checkpoint payloads written to the KV staging area.
	Staged int64
	// HaveLists counts chunk advertisements absorbed from the receiver
	// (delta publishing only).
	HaveLists int64
	// DeltaSends counts publishes that left as manifest delta streams
	// rather than full chunk streams (a subset of LinkSends).
	DeltaSends int64
}

// Producer publishes checkpoints to a remote consumer.
type Producer struct {
	model string
	kv    *kvstore.Client
	// stageKV is the stage flusher's own connection, so a metadata Set
	// never queues behind a checkpoint-sized staging write on kv's
	// request mutex.
	stageKV   *kvstore.Client
	ps        *pubsub.Client
	ln        *transport.Listener // nil in relay target mode
	link      *transport.ReconnectLink
	policy    retry.Policy
	clock     simclock.Clock
	stage     bool
	relay     bool
	chunkSize int
	workers   int
	recon     bool    // chunk-level delta publishing enabled
	deltaEps  float64 // base-suppression threshold (0 = exact dedup only)

	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	// lifeCtx is the lifecycle context minted from
	// ProducerConfig.BaseContext; lifeCancel fires in Close.
	lifeCtx    context.Context
	lifeCancel context.CancelFunc

	mu      sync.Mutex
	version uint64
	stats   ProducerStats
	// peerHave is the receiver's most recent chunk advertisement; the
	// pump replaces the map wholesale, so a snapshot taken under mu is
	// safe to read lock-free afterwards.
	peerHave map[vformat.ChunkHash]bool
	// lastBlob is the newest published chunked blob, kept so need-lists
	// for it can be answered after the publish returns. Only the latest
	// version is answerable: a need-list for a superseded build is
	// ignored (latest-wins; the receiver's build is superseded moments
	// later anyway).
	lastBlob *retainedBlob
	// lastSnap is the previous publish's wire values, the comparison
	// base for DeltaEps suppression. putElemsBase mutates it in place
	// to each new version's wire values, keeping producer-side
	// comparisons aligned with what receivers actually hold. lineage
	// travels with it into every encode, so a delta publish hashes only
	// the records of chunks that moved (vformat.BaseLineage).
	lastSnap nn.Snapshot
	lineage  vformat.BaseLineage
	// pendingFlush is the staging write waiting for the flusher (at most
	// one: a newer publish supersedes it); it owns one reference to its
	// blob. flushWake nudges the flusher after pendingFlush is set.
	pendingFlush *stageFlush
	flushWake    chan struct{}
	closing      bool // Close has begun: no further flush is queued
	// stagedVersions lists the versions whose staging copy is in the KV
	// store, oldest first, so trimming to stagedHistory survives the gaps
	// superseded flushes leave.
	stagedVersions []uint64
}

// stageFlush is one deferred staging write.
type stageFlush struct {
	blob    *retainedBlob
	version uint64
}

// policyOrDefault substitutes the standard wall-clock schedule for a
// zero policy.
func policyOrDefault(p retry.Policy) retry.Policy {
	if p.MaxAttempts == 0 {
		return retry.Default(nil)
	}
	return p
}

// NewProducer connects to the metadata and notification services, then
// blocks until the consumer establishes the direct link.
func NewProducer(cfg ProducerConfig) (*Producer, error) {
	if cfg.Model == "" {
		return nil, errors.New("remote: empty model name")
	}
	if cfg.ChunkSize < 0 {
		return nil, fmt.Errorf("remote: negative chunk size %d", cfg.ChunkSize)
	}
	if cfg.Parallelism < 0 {
		return nil, fmt.Errorf("remote: negative parallelism %d", cfg.Parallelism)
	}
	if cfg.ChunkSize == 0 {
		cfg.ChunkSize = vformat.DefaultChunkBytes
	}
	pol := policyOrDefault(cfg.Retry)
	kv, err := kvstore.DialOptions(cfg.MetaAddr, kvstore.Options{Retry: pol})
	if err != nil {
		return nil, fmt.Errorf("remote: metadata: %w", err)
	}
	stageKV, err := kvstore.DialOptions(cfg.MetaAddr, kvstore.Options{Retry: pol})
	if err != nil {
		kv.Close()
		return nil, fmt.Errorf("remote: metadata: %w", err)
	}
	ps, err := pubsub.DialClient(cfg.NotifyAddr)
	if err != nil {
		kv.Close()
		stageKV.Close()
		return nil, fmt.Errorf("remote: notify: %w", err)
	}
	var ln *transport.Listener
	var link *transport.ReconnectLink
	if cfg.RelayAddr != "" {
		// Relay target mode: dial the relay's ingest address (the
		// link direction inverts — the producer is the client).
		dial := cfg.RelayDial
		if dial == nil {
			dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
		}
		link = transport.NewReconnectLink(func() (*transport.TCPLink, error) {
			conn, err := dial(cfg.RelayAddr)
			if err != nil {
				return nil, err
			}
			return transport.WrapTCP(conn), nil
		}, pol)
	} else {
		ln, err = transport.Listen(cfg.ListenAddr)
		if err != nil {
			kv.Close()
			stageKV.Close()
			ps.Close()
			return nil, fmt.Errorf("remote: link: %w", err)
		}
		ln.Wrap = cfg.LinkWrap
		if cfg.OnListen != nil {
			cfg.OnListen(ln.Addr())
		}
		link = transport.NewReconnectLink(ln.Accept, pol)
	}
	if err := link.Connect(); err != nil {
		kv.Close()
		stageKV.Close()
		ps.Close()
		if ln != nil {
			ln.Close()
		}
		return nil, fmt.Errorf("remote: link: %w", err)
	}
	if cfg.BaseContext == nil {
		cfg.BaseContext = context.Background()
	}
	lifeCtx, lifeCancel := context.WithCancel(cfg.BaseContext)
	p := &Producer{
		model: cfg.Model, kv: kv, stageKV: stageKV, ps: ps, ln: ln, link: link,
		policy: pol, clock: pol.ClockOrWall(), stage: !cfg.DisableStaging,
		relay: cfg.RelayAddr != "", chunkSize: cfg.ChunkSize, workers: cfg.Parallelism,
		recon:    !cfg.DisableDeltaReconcile,
		deltaEps: cfg.DeltaEps,
		closed:   make(chan struct{}),
		lifeCtx:  lifeCtx, lifeCancel: lifeCancel,
		flushWake: make(chan struct{}, 1),
	}
	if p.recon {
		p.wg.Add(1)
		go p.pump()
	}
	p.wg.Add(1)
	go p.flusher()
	return p, nil
}

// pump is the delta-publishing producer's reader loop: have-lists
// replace the receiver's advertised chunk set, need-lists are answered
// from the last published blob, anything else (e.g. relay admission
// rejections) is dropped. Mirrors the consumer pump's interruptible
// backoff so a faulted link never spins and Close is prompt.
func (p *Producer) pump() {
	defer p.wg.Done()
	backoff := initialBackoff(p.policy)
	for {
		f, err := p.link.Recv()
		if err != nil {
			select {
			case <-p.closed:
				return
			default:
			}
			if errors.Is(err, transport.ErrClosed) {
				return
			}
			select {
			case <-p.clock.After(backoff):
			case <-p.closed:
				return
			}
			backoff = nextBackoff(p.policy, backoff)
			continue
		}
		backoff = initialBackoff(p.policy)
		switch {
		case transport.IsHaveFrame(f):
			model, _, hashes, err := transport.ParseHaveFrame(f)
			if err != nil || model != p.model {
				continue
			}
			set := make(map[vformat.ChunkHash]bool, len(hashes))
			for _, h := range hashes {
				set[h] = true
			}
			p.mu.Lock()
			p.peerHave = set
			p.stats.HaveLists++
			p.mu.Unlock()
			inst.haveLists.Inc()
		case transport.IsNeedFrame(f):
			p.answerNeed(f)
		}
	}
}

// retainedBlob is a published chunked blob — the encoder's pooled buffer
// itself (ChunkEncoder.Detach), not a copy. refs counts every holder: the
// publish that encoded it (until it returns), Producer.lastBlob while it
// is the answerable latest version (delta mode), a need answer walking
// it, and the stage flusher from hand-off until its staging write has
// returned. Whoever drops it to zero returns buf to the pool, so the
// buffer can never be re-issued under a reader. refs and buf's lifetime
// are guarded by Producer.mu.
type retainedBlob struct {
	buf  []byte
	key  string
	tags map[string]string
	refs int
}

// retainBlob takes over enc's finished blob. The returned blob carries
// one reference for the caller (the publish), to be dropped with unref;
// in delta mode it also becomes the answerable latest version,
// superseding the previous one.
func (p *Producer) retainBlob(enc *vformat.ChunkEncoder, key string, tags map[string]string) (*retainedBlob, error) {
	buf, err := enc.Detach()
	if err != nil {
		return nil, err
	}
	r := &retainedBlob{buf: buf, key: key, tags: tags, refs: 1}
	if p.recon {
		p.mu.Lock()
		r.refs++
		prev := p.lastBlob
		p.lastBlob = r
		p.unrefLocked(prev)
		p.mu.Unlock()
	}
	return r, nil
}

// unref drops one reference to r.
func (p *Producer) unref(r *retainedBlob) {
	p.mu.Lock()
	p.unrefLocked(r)
	p.mu.Unlock()
}

// unrefLocked drops one reference to r (nil is a no-op), returning the
// buffer to the pool with the last one; p.mu must be held.
func (p *Producer) unrefLocked(r *retainedBlob) {
	if r == nil {
		return
	}
	if r.refs--; r.refs == 0 {
		vformat.ReleaseBuffer(r.buf)
		r.buf = nil
	}
}

// answerNeed re-sends the requested chunk records of the latest
// published version, holding a reference to its blob for the whole walk
// so a concurrent publish or Close cannot return it to the pool under
// the sends. Requests for anything else are dropped: the receiver's
// partial build is about to be superseded by a newer push.
func (p *Producer) answerNeed(f transport.Frame) {
	key, hashes, err := transport.ParseNeedFrame(f)
	if err != nil {
		return
	}
	p.mu.Lock()
	r := p.lastBlob
	if r == nil || r.key != key {
		p.mu.Unlock()
		return
	}
	r.refs++
	p.mu.Unlock()
	defer p.unref(r)
	need := make(map[vformat.ChunkHash]bool, len(hashes))
	for _, h := range hashes {
		need[h] = true
	}
	conn := transport.WithMeta(p.link, r.tags)
	_ = vformat.WalkChunkRecords(r.buf, func(rec []byte) error {
		if need[vformat.HashChunkRecord(rec)] {
			return conn.Send(transport.ChunkRecordFrame(key, rec, 0))
		}
		return nil
	})
}

// Publish serializes and ships a checkpoint: frame(s) over the direct
// link (reconnecting and retrying on faults), then metadata and a push
// notification; the KV staging copy is flushed behind them by the stage
// flusher, and the metadata says so (StagePending). If the link stays
// dead the checkpoint is staged before it is announced instead, with the
// metadata marking the degraded PFS-style route.
func (p *Producer) Publish(snapshot nn.Snapshot, iteration uint64, loss float64) (*core.ModelMeta, error) {
	return p.PublishContext(p.lifeCtx, snapshot, iteration, loss)
}

// PublishContext is Publish bounded by a context: cancellation aborts
// between link frames (draining the chunk-encode workers) and before
// the metadata/notification writes, so a cancelled publish never
// announces a checkpoint it did not deliver.
func (p *Producer) PublishContext(ctx context.Context, snapshot nn.Snapshot, iteration uint64, loss float64) (*core.ModelMeta, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.version++
	version := p.version
	p.mu.Unlock()
	ckpt := &vformat.Checkpoint{
		ModelName: p.model,
		Version:   version,
		Iteration: iteration,
		TrainLoss: loss,
		Weights:   snapshot,
	}
	key := core.CheckpointKey(p.model, version)
	tags := map[string]string{"model": p.model, "version": strconv.FormatUint(version, 10)}
	return p.publishChunked(ctx, ckpt, key, tags)
}

// attachRelayMeta adds the encoded checkpoint metadata to a relay-mode
// stream's frame tags (core.RelayMetaTag), so the relay can record and
// republish full metadata — iteration, loss, size — without decoding
// payloads. The relay stamps its own serve address in before writing.
func (p *Producer) attachRelayMeta(tags map[string]string, ckpt *vformat.Checkpoint, key string, size int64) {
	if !p.relay {
		return
	}
	meta := core.ModelMeta{
		Name:      p.model,
		Version:   ckpt.Version,
		Iteration: ckpt.Iteration,
		TrainLoss: ckpt.TrainLoss,
		Location:  core.RouteRelay,
		Path:      key,
		Size:      size,
		Format:    "vchunk",
		// A stream the relay republishes is one the link carried, so its
		// staging copy is flushed behind it.
		StagePending: p.stage,
		SavedAt:      p.clock.Now(),
	}
	if encoded, err := meta.Encode(); err == nil {
		tags[core.RelayMetaTag] = encoded
	}
}

// publishChunked streams ckpt over the direct link through the chunked
// pipeline: the encoder's worker pool encodes chunk N+1 while chunk N
// is on the wire, and the completed blob (one buffer-pool allocation)
// doubles as the KV staging copy.
func (p *Producer) publishChunked(ctx context.Context, ckpt *vformat.Checkpoint, key string, tags map[string]string) (*core.ModelMeta, error) {
	p.mu.Lock()
	have := p.peerHave
	base := p.lastSnap
	p.mu.Unlock()
	delta := p.recon && len(have) > 0
	opts := vformat.ChunkOptions{
		ChunkBytes:  p.chunkSize,
		Parallelism: p.workers,
	}
	// Base-suppressed encoding keeps chunk bytes (and so content
	// hashes) stable across versions whose weights only drifted within
	// DeltaEps — without it, real training moves every element a hair
	// each step and no chunk ever dedups. The base is encoded with
	// every chunked publish once delta mode is on, not just delta
	// sends: the first full stream seeds the hashes later deltas elide
	// against.
	if p.recon && p.deltaEps > 0 {
		opts.Lineage = &p.lineage
		if base != nil && vformat.SameStructure(base, ckpt.Weights) {
			opts.Base, opts.BaseEps = base, p.deltaEps
		} else {
			base = ckpt.Weights.Clone()
			p.mu.Lock()
			p.lastSnap = base
			p.mu.Unlock()
		}
	}
	enc, err := vformat.NewChunkEncoder(ckpt, opts)
	if err != nil {
		return nil, err
	}
	// A no-op once retainBlob has taken the blob over; on the error
	// returns before that it returns the blob to the pool.
	defer enc.Release()
	if p.recon {
		// Mark the stream delta-capable so the receiver advertises its
		// chunk store back for the next version's planning.
		tags[transport.MetaReconcile] = "1"
	}
	p.attachRelayMeta(tags, ckpt, key, int64(enc.EncodedSize()))
	if delta {
		return p.publishDelta(ctx, enc, ckpt, key, tags, have)
	}
	sendErr := transport.SendChunked(ctx, transport.WithMeta(p.link, tags), key, enc, 0)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if _, err := enc.Blob(); errors.Is(err, vformat.ErrIncompleteStream) {
		// The header frame never left, so the stream encode never ran;
		// finish it for the staging copy and the metadata size.
		if err := enc.EncodeStream(ctx, nil); err != nil {
			return nil, err
		}
	}
	r, err := p.retainBlob(enc, key, tags)
	if err != nil {
		return nil, err
	}
	defer p.unref(r)
	return p.finishPublish(ctx, ckpt, r, sendErr)
}

// publishDelta ships ckpt as a manifest plus only the chunk records the
// receiver's advertised store lacks, planned from the encoder's hashes
// (a record is hashed at most once, on its worker pool, and not at all when
// its chunk did not move since the previous publish). The staging copy and metadata are unchanged
// — they carry the complete blob — so the staging fallback and
// late-joining consumers are oblivious to how the link frames were
// elided.
func (p *Producer) publishDelta(ctx context.Context, enc *vformat.ChunkEncoder, ckpt *vformat.Checkpoint, key string, tags map[string]string, have map[vformat.ChunkHash]bool) (*core.ModelMeta, error) {
	if err := enc.EncodeStream(ctx, nil); err != nil {
		return nil, err
	}
	blob, err := enc.Blob()
	if err != nil {
		return nil, err
	}
	hashes, err := enc.Hashes()
	if err != nil {
		return nil, err
	}
	inst.hashedChunks.Add(int64(enc.HashedRecords()))
	inst.inheritedHashes.Add(int64(len(hashes) - enc.HashedRecords()))
	manifest, records, _, err := vformat.PlanDeltaHashed(blob, hashes, func(h vformat.ChunkHash) bool { return have[h] })
	if err != nil {
		return nil, err
	}
	// Retain before sending: the receiver's need-list can arrive while
	// the tail of this stream is still leaving.
	r, err := p.retainBlob(enc, key, tags)
	if err != nil {
		return nil, err
	}
	defer p.unref(r)
	p.mu.Lock()
	p.stats.DeltaSends++
	p.mu.Unlock()
	inst.deltaSends.Inc()
	sendErr := transport.SendChunkedDelta(ctx, transport.WithMeta(p.link, tags), key, manifest, records, len(hashes), len(blob), 0)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return p.finishPublish(ctx, ckpt, r, sendErr)
}

// finishPublish completes a publish after the link attempt: delivery
// stats, then metadata and the push notification, then the hand-off of
// the staging copy to the flusher. A checkpoint the link could not carry
// is staged first, synchronously — staging is then its only delivery
// path, and it is never announced before it can be fetched.
func (p *Producer) finishPublish(ctx context.Context, ckpt *vformat.Checkpoint, r *retainedBlob, sendErr error) (*core.ModelMeta, error) {
	version := ckpt.Version
	p.mu.Lock()
	if sendErr != nil {
		p.stats.LinkFailures++
		inst.linkFailures.Inc()
	} else {
		p.stats.LinkSends++
		inst.linkSends.Inc()
	}
	p.mu.Unlock()
	location := core.RouteHost
	if p.relay {
		location = core.RouteRelay
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if sendErr != nil {
		// Degrade to the staging path, as the in-process engine falls
		// back from memory tiers to the PFS.
		location = core.RoutePFS
		if err := p.stageBlob(p.kv, r, version); err != nil {
			return nil, fmt.Errorf("remote: link send failed (%w) and staging failed: %w", sendErr, err)
		}
	}
	flushBehind := p.stage && sendErr == nil
	meta := core.ModelMeta{
		Name:         p.model,
		Version:      version,
		Iteration:    ckpt.Iteration,
		TrainLoss:    ckpt.TrainLoss,
		Location:     location,
		Path:         r.key,
		Size:         int64(len(r.buf)),
		Format:       "vchunk",
		StagePending: flushBehind,
		SavedAt:      p.clock.Now(),
	}
	encoded, err := meta.Encode()
	if err != nil {
		return nil, err
	}
	if err := p.kv.Set(core.MetaKey(p.model), encoded); err != nil {
		return nil, fmt.Errorf("remote: metadata set: %w", err)
	}
	if _, err := p.ps.Publish(core.UpdateChannel(p.model), encoded); err != nil {
		return nil, fmt.Errorf("remote: notify: %w", err)
	}
	if flushBehind {
		p.queueFlush(r, version)
	}
	return &meta, nil
}

// stageBlob writes r as version's staging copy through kv and trims the
// staging area to stagedHistory copies. The caller holds a reference to
// r, so r.buf is stable for the whole write.
func (p *Producer) stageBlob(kv *kvstore.Client, r *retainedBlob, version uint64) error {
	if err := kv.SetBytes(core.StagingKey(p.model, version), r.buf); err != nil {
		return err
	}
	p.mu.Lock()
	p.stats.Staged++
	p.stagedVersions = append(p.stagedVersions, version)
	var trim []uint64
	if n := len(p.stagedVersions) - stagedHistory; n > 0 {
		trim = append(trim, p.stagedVersions[:n]...)
		p.stagedVersions = append(p.stagedVersions[:0], p.stagedVersions[n:]...)
	}
	p.mu.Unlock()
	inst.staged.Inc()
	for _, v := range trim {
		_, _ = kv.Del(core.StagingKey(p.model, v)) // best-effort: a leftover copy only costs memory
	}
	return nil
}

// queueFlush hands r to the stage flusher as version's staging copy,
// latest-wins: a flush still waiting is superseded (its version keeps
// the link delivery it already had and a consumer that lost it skips to
// this one).
func (p *Producer) queueFlush(r *retainedBlob, version uint64) {
	p.mu.Lock()
	if p.closing {
		p.mu.Unlock()
		return // the flusher may already have made its final sweep
	}
	r.refs++
	if old := p.pendingFlush; old != nil {
		p.unrefLocked(old.blob)
		inst.stageSuperseded.Inc()
	}
	p.pendingFlush = &stageFlush{blob: r, version: version}
	p.mu.Unlock()
	select {
	case p.flushWake <- struct{}{}:
	default: // a wake-up is already pending
	}
}

// takeFlush claims the waiting flush, if any.
func (p *Producer) takeFlush() *stageFlush {
	p.mu.Lock()
	defer p.mu.Unlock()
	f := p.pendingFlush
	p.pendingFlush = nil
	return f
}

// flusher is the background stage flusher: one staging write at a time
// on its own KV connection, never under p.mu. A failed write only costs
// redundancy — the link carried the version. On Close it finishes the
// flush that is waiting, so every announced version that was not
// superseded has its copy.
func (p *Producer) flusher() {
	defer p.wg.Done()
	for {
		select {
		case <-p.flushWake:
		case <-p.closed:
		}
		for f := p.takeFlush(); f != nil; f = p.takeFlush() {
			start := p.clock.Now()
			if err := p.stageBlob(p.stageKV, f.blob, f.version); err == nil {
				inst.stageFlushes.Inc()
				inst.stageFlushMS.Observe(p.clock.Now().Sub(start).Milliseconds())
			}
			p.unref(f.blob)
		}
		select {
		case <-p.closed:
			return
		default:
		}
	}
}

// Version returns the latest published version.
func (p *Producer) Version() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.version
}

// Stats returns a snapshot of the delivery counters.
func (p *Producer) Stats() ProducerStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Close cancels the lifecycle context and tears down the link, waits for
// the reader pump (if any) and for the stage flusher to finish the write
// it has in hand or waiting, then closes the service connections.
func (p *Producer) Close() {
	p.lifeCancel()
	p.closeOnce.Do(func() {
		// closing flips under mu before closed wakes the flusher, so a
		// publish racing Close either queued its flush ahead of the
		// flusher's final sweep or sees closing and queues nothing.
		p.mu.Lock()
		p.closing = true
		p.mu.Unlock()
		close(p.closed)
	})
	if p.ln != nil {
		p.ln.Close()
	}
	p.link.Close()
	p.wg.Wait()
	p.mu.Lock()
	p.unrefLocked(p.lastBlob)
	p.lastBlob = nil
	p.mu.Unlock()
	p.ps.Close()
	p.kv.Close()
	p.stageKV.Close()
}

// ConsumerConfig configures a remote consumer.
type ConsumerConfig struct {
	// Model names the model to follow.
	Model string
	// MetaAddr is the kvstore server address.
	MetaAddr string
	// NotifyAddr is the pubsub server address.
	NotifyAddr string
	// ProducerAddr is the producer's direct-link address.
	ProducerAddr string
	// Serving, if non-nil, is kept restored to the latest checkpoint.
	Serving nn.Model
	// Retry bounds redial/retry attempts on the networked paths. The
	// zero value selects retry.Default over the wall clock.
	Retry retry.Policy
	// LinkWait bounds how long Next waits for a notified checkpoint on
	// the direct link before backfilling from the KV staging area, how
	// long a stream may stall between frames before its build is
	// abandoned, and how long a staging copy announced as still being
	// flushed is polled for (default 2s).
	LinkWait time.Duration
	// LinkDial, if set, replaces the direct-link dial (fault injection
	// hooks in here).
	LinkDial func(addr string) (net.Conn, error)
	// MetaDial, if set, replaces the metadata client dial.
	MetaDial func(addr string) (net.Conn, error)
	// DisableDeltaReconcile turns off chunk-level delta reconciliation.
	// By default the consumer keeps a content-addressed cache of the
	// chunk records it has installed, advertises it to the sender behind
	// every install (transport.HaveKey), and accepts manifest delta streams
	// that ship only the chunks that changed — recovering
	// advertised-but-evicted chunks with a need-list, and falling back
	// to the staging path rather than ever assembling a torn
	// checkpoint. Disabling restores the always-full streams.
	DisableDeltaReconcile bool
	// ChunkHashCache bounds the reconciliation chunk cache, in entries
	// (0 selects the vformat default). Only meaningful while delta
	// reconciliation is enabled.
	ChunkHashCache int
	// FrameBuffer is the depth, in frames, of the hand-off between the
	// link reader and the builder that assembles streams as they land
	// (default 32). The builder drains it without waiting for Next, so a
	// full hand-off is plain TCP back-pressure, never a shed stream.
	FrameBuffer int
	// BaseContext is the root of the consumer's lifecycle context: the
	// context-free Next runs under it, and Close cancels it, so a
	// blocked wait aborts instead of outliving the consumer. Nil
	// defaults to context.Background().
	BaseContext context.Context
}

// ConsumerStats counts consumer-side delivery activity.
type ConsumerStats struct {
	// LinkLoads counts updates received over the direct link.
	LinkLoads int64
	// StagedLoads counts updates backfilled from the KV staging area.
	StagedLoads int64
	// SkippedVersions counts notified updates that were unrecoverable
	// on both paths (superseded by a newer version instead).
	SkippedVersions int64
	// StaleNotifications counts redelivered/out-of-date notifications
	// that were ignored.
	StaleNotifications int64
	// DiscardedFrames counts link frames that never reached an install:
	// stray or stale frames, and the frames of builds that were torn or
	// superseded before their notification.
	DiscardedFrames int64
	// DeltaLoads counts link loads that arrived as manifest delta
	// streams reconciled against the chunk cache (a subset of
	// LinkLoads).
	DeltaLoads int64
}

// parkedBudget bounds, in bytes, the complete builds kept for
// notifications Next has not processed yet (the newest build is always
// kept, whatever its size): their decoded weights plus the wire records
// they hold for the cache filler. It is what a consumer that stopped
// calling Next can pin; older builds are dropped first and their
// versions come from staging or are skipped as superseded. Beyond active
// and parked the consumer pins at most one more checkpoint: the span
// source, when the build it came from has since been dropped or replaced.
const parkedBudget = 64 << 20

// build is one link stream assembled by the builder.
type build struct {
	key     string
	version uint64
	delta   bool  // arrived as a manifest delta stream
	frames  int64 // link frames the stream took
	bytes   int64 // decoded weights plus recs, once complete
	ckpt    *vformat.Checkpoint
	// recs are a full stream's wire records, kept — with reconciliation on
	// — for the cache filler to hash once the build is installed. They
	// are the link's pooled payloads (transport.RecvPool): the consumer
	// owns them, the cache adopts them without a copy, and a build that is
	// dropped hands them back. header is the stream header they arrived
	// under, kept with them so the hashes can become a span source.
	recs   [][]byte
	header []byte
	// inherited and reused count a delta build's positions copied from the
	// span source and decoded from cached records.
	inherited, reused int
}

// cacheFill is what one install leaves for the cache filler: the records
// that came with the version and are not in the cache yet, and the
// version to advertise once they are.
type cacheFill struct {
	version   uint64
	installed time.Time
	// recs passed the assembler's per-record check. A delta stream has
	// none: its records were cached as they were added.
	recs [][]byte
	// owned marks recs as buffers nobody else holds (a parked build's
	// pooled payloads), which the cache adopts and the filler otherwise
	// hands back to the pool; sub-slices of a staged blob are copied in.
	owned bool
	// header (the v2 stream header recs belong to; a plain chunked blob
	// serves) and weights (what they were decoded into) let a finished
	// fill offer the install as the span source. Nil header: no offer.
	header  []byte
	weights nn.Snapshot
}

// Consumer receives checkpoints pushed by a remote producer.
type Consumer struct {
	model string
	kv    *kvstore.Client
	ps    *pubsub.Client
	link  *transport.ReconnectLink
	// pool is where the link's chunk-record payloads come from. The consumer
	// owns every payload the link delivers and hands each back at most once,
	// when nothing can read it any more: a record that is not kept, as soon
	// as the assembler has decoded it; a kept build's records when the build
	// is dropped or the filler finds them cached already; a frame the builder
	// discards. The records the cache adopts leave the pool for good, and
	// whatever is simply let go (Close with frames in flight) is collected.
	pool     *transport.RecvPool
	events   <-chan pubsub.Message
	serving  nn.Model
	linkWait time.Duration
	policy   retry.Policy
	clock    simclock.Clock
	// cache is the content-addressed record cache delta reconciliation
	// runs against (nil when disabled). Its own lock makes it safe to
	// read and fill from the builder (delta streams) while the filler
	// fills and snapshots it.
	cache *vformat.ChunkCache

	frames    chan transport.Frame // link reader → builder
	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup // reader + builder + cache filler

	// lifeCtx is the lifecycle context minted from
	// ConsumerConfig.BaseContext; lifeCancel fires in Close.
	lifeCtx    context.Context
	lifeCancel context.CancelFunc

	mu      sync.Mutex
	active  *vformat.Checkpoint
	loads   int64
	applied uint64
	stats   ConsumerStats
	// Builder state. linkVersion is the newest version the link has
	// reached (or an install has overtaken): the link only moves forward,
	// so a version at or below it that is neither being built nor parked
	// will not arrive there any more. building is the version under
	// assembly (0 = none). parked holds complete, verified builds awaiting
	// their notification, oldest first, and parkedBytes their summed
	// size. changed is closed and replaced on every change to the first
	// three.
	linkVersion uint64
	building    uint64
	parked      []*build
	parkedBytes int64
	changed     chan struct{}
	// source is the span source the builder hands the next manifest
	// assembler: the newest complete build, parked or installed, whose
	// per-position hashes are known — a delta build's as soon as it is
	// parked (the manifest's), a full-stream or staged install's once the
	// filler has hashed its records. It shares the weights of a checkpoint
	// Next hands out, hence the read-only contract there.
	source        *vformat.SpanSource
	sourceVersion uint64
	// pendingFill is the fill waiting for the cache filler (at most one:
	// a newer install supersedes it); fillWake nudges the filler after it
	// is set.
	pendingFill *cacheFill
	fillWake    chan struct{}
}

// NewConsumer connects to all services and subscribes to the model's
// update channel.
func NewConsumer(cfg ConsumerConfig) (*Consumer, error) {
	if cfg.Model == "" {
		return nil, errors.New("remote: empty model name")
	}
	pol := policyOrDefault(cfg.Retry)
	kv, err := kvstore.DialOptions(cfg.MetaAddr, kvstore.Options{Retry: pol, DialFunc: cfg.MetaDial})
	if err != nil {
		return nil, fmt.Errorf("remote: metadata: %w", err)
	}
	ps, err := pubsub.DialClient(cfg.NotifyAddr)
	if err != nil {
		kv.Close()
		return nil, fmt.Errorf("remote: notify: %w", err)
	}
	events, err := ps.Subscribe(core.UpdateChannel(cfg.Model))
	if err != nil {
		kv.Close()
		ps.Close()
		return nil, fmt.Errorf("remote: subscribe: %w", err)
	}
	dial := cfg.LinkDial
	if dial == nil {
		dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	pool := transport.NewRecvPool()
	link := transport.NewReconnectLink(func() (*transport.TCPLink, error) {
		conn, err := dial(cfg.ProducerAddr)
		if err != nil {
			return nil, err
		}
		link := transport.WrapTCP(conn)
		link.SetRecvPool(pool)
		return link, nil
	}, pol)
	if err := link.Connect(); err != nil {
		kv.Close()
		ps.Close()
		return nil, fmt.Errorf("remote: link: %w", err)
	}
	linkWait := cfg.LinkWait
	if linkWait <= 0 {
		linkWait = defaultLinkWait
	}
	if cfg.BaseContext == nil {
		cfg.BaseContext = context.Background()
	}
	lifeCtx, lifeCancel := context.WithCancel(cfg.BaseContext)
	frameBuf := cfg.FrameBuffer
	if frameBuf <= 0 {
		frameBuf = 32
	}
	c := &Consumer{
		model: cfg.Model, kv: kv, ps: ps, link: link, pool: pool,
		events: events, serving: cfg.Serving,
		linkWait: linkWait, policy: pol, clock: pol.ClockOrWall(),
		frames:  make(chan transport.Frame, frameBuf),
		closed:  make(chan struct{}),
		changed: make(chan struct{}),
		lifeCtx: lifeCtx, lifeCancel: lifeCancel,
		fillWake: make(chan struct{}, 1),
	}
	if !cfg.DisableDeltaReconcile {
		c.cache = vformat.NewChunkCache(cfg.ChunkHashCache)
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.filler()
		}()
	}
	c.wg.Add(2)
	go func() {
		defer c.wg.Done()
		c.pump()
	}()
	go func() {
		defer c.wg.Done()
		c.build()
	}()
	return c, nil
}

// pump moves frames from the (reconnecting) link to the builder until
// the consumer closes. When the link is persistently unavailable it
// backs off on the retry policy's schedule — charged against the
// injected clock, so virtual-time tests cover the full backoff curve
// without burning wall time — and keeps trying; deliveries continue
// through the staging fallback meanwhile. The hand-off may block: the
// builder drains it without ever waiting for Next, so a full channel is
// back-pressure on the sender, and this Recv loop — which is also what
// drives link reconnection — is never parked for long.
func (c *Consumer) pump() {
	backoff := initialBackoff(c.policy)
	for {
		f, err := c.link.Recv()
		if err != nil {
			select {
			case <-c.closed:
				return
			default:
			}
			if errors.Is(err, transport.ErrClosed) {
				return
			}
			// The backoff wait must stay interruptible: a plain
			// clock.Sleep here kept the pump alive (and leakcheck-visible)
			// for a full backoff period after Close.
			select {
			case <-c.clock.After(backoff):
			case <-c.closed:
				return
			}
			backoff = nextBackoff(c.policy, backoff)
			continue
		}
		backoff = initialBackoff(c.policy)
		select {
		case c.frames <- f:
		case <-c.closed:
			return
		}
	}
}

// build is the builder: it assembles every stream the link carries as
// its frames land — per-record CRC check and decode, need-list
// backchannel — and parks each complete, verified build for Next, which
// installs it only once the matching notification arrives. It never
// waits for Next, and it hashes nothing but the records a delta stream
// ships (the manifest assembler needs those hashes to place them).
func (c *Consumer) build() {
	var next *transport.Frame // the frame that interrupted the last stream
	for {
		var f transport.Frame
		if next != nil {
			f, next = *next, nil
		} else {
			select {
			case f = <-c.frames:
			case <-c.closed:
				return
			}
		}
		opens := transport.IsChunkHeader(f) || transport.IsManifestHeader(f)
		v := frameVersion(&f)
		if !c.advance(v, opens) {
			c.bump(func(s *ConsumerStats) { s.DiscardedFrames++ })
			c.pool.Release(f.Payload) // typically the tail of an abandoned stream
			continue
		}
		next = c.assemble(f, v)
	}
}

// advance moves the link position to version v and reports whether the
// builder should assemble the stream the frame opens. A frame at or
// below the position is stale (superseded, redelivered after a
// reconnect, or the tail of an abandoned build). A newer frame that
// opens no stream still moves the position: the link has reached v
// without a usable stream for it, so v can only come from staging.
func (c *Consumer) advance(v uint64, opens bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v <= c.linkVersion {
		return false
	}
	c.linkVersion = v
	if opens {
		c.building = v
	}
	c.signalLocked()
	return opens
}

// signalLocked wakes every Next waiting on the builder; c.mu must be
// held.
func (c *Consumer) signalLocked() {
	close(c.changed)
	c.changed = make(chan struct{})
}

// dropLocked accounts a build that will never be installed and hands the
// records it kept back to the pool; c.mu must be held.
func (c *Consumer) dropLocked(b *build) {
	c.stats.DiscardedFrames += b.frames
	inst.discardedFrames.Add(b.frames)
	inst.abandonedBuilds.Inc()
	c.releaseAll(b.recs)
	b.recs = nil
}

// releaseAll hands link payloads nothing reads any more back to the pool.
func (c *Consumer) releaseAll(recs [][]byte) {
	for _, rec := range recs {
		c.pool.Release(rec)
	}
}

// popParkedLocked removes and returns the oldest parked build, leaving
// no reference to it behind in the slice; c.mu must be held.
func (c *Consumer) popParkedLocked() *build {
	b := c.parked[0]
	n := copy(c.parked, c.parked[1:])
	c.parked[n] = nil
	c.parked = c.parked[:n]
	c.parkedBytes -= b.bytes
	return b
}

// assemble builds the stream opened by header (version v) from the
// frames that follow it and parks the result. The build is dropped as a
// group — never parked partially — when a foreign frame (typically a
// newer stream's header) interrupts it, when a record fails its CRC,
// when the link delivers nothing for a whole LinkWait period, or when
// the assembled checkpoint is not the model and version the frames
// claimed. The interrupting
// frame, if any, is returned for the builder to handle next.
func (c *Consumer) assemble(header transport.Frame, v uint64) (next *transport.Frame) {
	b := &build{key: header.Key, version: v, frames: 1, delta: transport.IsManifestHeader(header)}
	// One timer per LinkWait period, not per frame: when it fires the
	// stream is abandoned only if no frame arrived since it was armed.
	stall, progressed := c.clock.After(c.linkWait), false
	keep := c.cache != nil && !b.delta
	if keep {
		b.header = header.Payload
	}
	// handed is the payload of the frame the collector was given last. It
	// asks for the next frame only when it is done with that one — decoded
	// by the assembler (which keeps no reference to a record), or failed —
	// and that is when the payload is settled: kept for the cache filler, or
	// handed straight back to the pool. A frame the collector returns as
	// foreign is not this stream's and is never settled here.
	//
	// b.recs holds unverified bytes until the collector returns nil: it
	// fails on the first frame that does not verify, so only then did every
	// entry pass the per-record check.
	var handed []byte
	settle := func() {
		switch {
		case handed == nil:
		case keep:
			b.recs = append(b.recs, handed)
		default:
			c.pool.Release(handed)
		}
		handed = nil
	}
	recv := func() (transport.Frame, error) {
		settle()
		for {
			select {
			case f := <-c.frames:
				b.frames++
				progressed = true
				handed = f.Payload
				return f, nil
			case <-stall:
				if !progressed {
					return transport.Frame{}, ErrTimeout
				}
				stall, progressed = c.clock.After(c.linkWait), false
			case <-c.closed:
				return transport.Frame{}, errors.New("remote: consumer closed")
			}
		}
	}
	var err error
	var source *vformat.SpanSource // what this build offers the next one
	switch {
	case !b.delta:
		b.ckpt, next, err = transport.CollectChunked(c.lifeCtx, header, recv)
	case c.cache == nil:
		// Reconciliation disabled: nothing advertised, so a manifest
		// stream is unexpected; let the staging path carry the version.
		err = errors.New("remote: manifest stream with reconciliation disabled")
	default:
		// Positions the span source holds decoded under the same hash are
		// copied from it, other advertised chunks are decoded from the
		// cache, the missing records arrive from the link, and a chunk the
		// cache lost since advertising is need-listed back to the sender.
		c.mu.Lock()
		from := c.source
		c.mu.Unlock()
		var asm *vformat.ManifestAssembler
		if asm, err = vformat.NewManifestAssembler(header.Payload, c.cache, from); err == nil {
			b.ckpt, next, err = transport.CollectChunkedDeltaInto(c.lifeCtx, header, asm, recv, c.link.Send)
		}
		if err == nil {
			source, b.inherited, b.reused = asm.Source(), asm.Inherited(), asm.Reused()
		}
	}
	if next != nil {
		b.frames-- // the interrupting frame is accounted, and owned, on its own
	} else {
		settle()
	}
	if err == nil && (b.ckpt.ModelName != c.model || b.ckpt.Version != v) {
		err = fmt.Errorf("remote: stream %q assembled %s/v%d", b.key, b.ckpt.ModelName, b.ckpt.Version)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.building = 0
	if err != nil {
		c.dropLocked(b)
	} else {
		b.bytes = b.ckpt.Weights.NumBytes()
		for _, rec := range b.recs {
			b.bytes += int64(len(rec))
		}
		c.parked = append(c.parked, b)
		c.parkedBytes += b.bytes
		c.offerSourceLocked(b.version, source)
		for len(c.parked) > 1 && c.parkedBytes > parkedBudget {
			c.dropLocked(c.popParkedLocked())
		}
	}
	c.signalLocked()
	return next
}

// offerSourceLocked makes src the span source if it is of a newer version
// than the current one (nil offers nothing); c.mu must be held.
func (c *Consumer) offerSourceLocked(version uint64, src *vformat.SpanSource) {
	if src != nil && version > c.sourceVersion {
		c.source, c.sourceVersion = src, version
	}
}

// initialBackoff is the pump's first retry delay under policy.
func initialBackoff(p retry.Policy) time.Duration {
	if p.BaseDelay > 0 {
		return p.BaseDelay
	}
	return 50 * time.Millisecond
}

// nextBackoff grows cur by the policy's multiplier, capped at MaxDelay.
func nextBackoff(p retry.Policy, cur time.Duration) time.Duration {
	mult := p.Multiplier
	if mult < 1 {
		mult = 2
	}
	next := time.Duration(float64(cur) * mult)
	if p.MaxDelay > 0 && next > p.MaxDelay {
		next = p.MaxDelay
	}
	return next
}

// ErrTimeout is returned by Next when no update arrives in time.
var ErrTimeout = errors.New("remote: timed out waiting for a model update")

// frameVersion extracts the version a link frame carries (0 if absent).
func frameVersion(f *transport.Frame) uint64 {
	v, _ := strconv.ParseUint(f.Meta["version"], 10, 64)
	return v
}

// Next blocks until the next pushed model update, obtains the
// checkpoint (the builder's parked build of the direct-link stream
// first, KV staging backfill when the link lost it), installs it, and
// returns it. Nothing is installed before its notification: a stream the
// producer never announced (a cancelled publish) stays parked until a
// newer announcement drops it. Notifications for versions at or below
// the installed one (e.g. redelivered after a broker reconnect) are
// ignored; notified versions that are unrecoverable on both paths are
// skipped, since a newer update supersedes them.
//
// The returned checkpoint is shared and read-only: Active returns the same
// object, and with reconciliation on the builder copies the chunks the
// next version leaves unchanged straight out of its weights. Copy what
// you need to change (nn.RestoreSnapshot copies into the serving model).
func (c *Consumer) Next(timeout time.Duration) (*vformat.Checkpoint, error) {
	return c.NextContext(c.lifeCtx, timeout)
}

// NextContext is Next bounded by a context: cancellation aborts the
// wait for a notification or for the builder, and the staging backfill.
func (c *Consumer) NextContext(ctx context.Context, timeout time.Duration) (*vformat.Checkpoint, error) {
	deadline := c.clock.After(timeout)
	for {
		select {
		case msg, ok := <-c.events:
			if !ok {
				return nil, errors.New("remote: subscription closed")
			}
			meta, err := core.DecodeMeta(msg.Payload)
			if err != nil {
				return nil, err
			}
			c.mu.Lock()
			applied := c.applied
			c.mu.Unlock()
			if meta.Version <= applied {
				c.bump(func(s *ConsumerStats) { s.StaleNotifications++ })
				continue
			}
			ckpt, fill, err := c.fetch(ctx, meta)
			if err != nil {
				return nil, err
			}
			if ckpt == nil {
				// Unrecoverable on both paths; wait for a newer one.
				c.bump(func(s *ConsumerStats) { s.SkippedVersions++ })
				continue
			}
			if err := c.install(ckpt, fill); err != nil {
				return nil, err
			}
			return ckpt, nil
		case <-deadline:
			return nil, ErrTimeout
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// bump applies one stats mutation and mirrors the delta into the
// package registry (bump is the single funnel every consumer counter
// moves through, and it fires at most once per checkpoint).
func (c *Consumer) bump(f func(*ConsumerStats)) {
	c.mu.Lock()
	before := c.stats
	f(&c.stats)
	after := c.stats
	c.mu.Unlock()
	inst.linkLoads.Add(after.LinkLoads - before.LinkLoads)
	inst.stagedLoads.Add(after.StagedLoads - before.StagedLoads)
	inst.skippedVersions.Add(after.SkippedVersions - before.SkippedVersions)
	inst.staleNotifications.Add(after.StaleNotifications - before.StaleNotifications)
	inst.discardedFrames.Add(after.DiscardedFrames - before.DiscardedFrames)
	inst.deltaLoads.Add(after.DeltaLoads - before.DeltaLoads)
}

// fetch obtains the checkpoint for meta from the builder, falling back
// to the KV staging area, along with the records it leaves for the cache
// filler. A nil checkpoint and nil error mean the version is lost on
// both paths (superseded updates may legitimately be).
func (c *Consumer) fetch(ctx context.Context, meta *core.ModelMeta) (*vformat.Checkpoint, *cacheFill, error) {
	var timer <-chan time.Time // armed on the first wait: a prebuilt install needs none
	for first := true; ; first = false {
		b, lost, changed := c.claim(meta)
		if b != nil {
			if first {
				inst.prebuiltInstalls.Inc()
			}
			c.bump(func(s *ConsumerStats) {
				s.LinkLoads++
				if b.delta {
					s.DeltaLoads++
				}
			})
			inst.inheritedChunks.Add(int64(b.inherited))
			inst.cacheDecodedChunks.Add(int64(b.reused))
			return b.ckpt, &cacheFill{recs: b.recs, owned: true, header: b.header, weights: b.ckpt.Weights}, nil
		}
		if lost {
			return c.fetchStaged(ctx, meta)
		}
		if timer == nil {
			timer = c.clock.After(c.linkWait)
		}
		select {
		case <-changed:
		case <-timer:
			return c.fetchStaged(ctx, meta)
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		case <-c.closed:
			return nil, nil, errors.New("remote: consumer closed")
		}
	}
}

// claim matches the notification meta against the builder's state. It
// returns the parked build for exactly that version and stream key, or
// lost when the link will not deliver it (the stream was torn, never
// opened, or the link is already past the version), or neither — the
// build is still in progress or its stream has not begun — with the
// channel that signals the builder's next change. Parked builds older
// than the announced version were superseded before their own
// notification was processed and are dropped.
func (c *Consumer) claim(meta *core.ModelMeta) (b *build, lost bool, changed <-chan struct{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.parked) > 0 && c.parked[0].version < meta.Version {
		c.dropLocked(c.popParkedLocked())
	}
	if len(c.parked) > 0 && c.parked[0].version == meta.Version {
		if b = c.popParkedLocked(); b.key == meta.Path {
			return b, false, nil
		}
		c.dropLocked(b)
		return nil, true, nil
	}
	if c.building == meta.Version {
		return nil, false, c.changed
	}
	return nil, c.linkVersion >= meta.Version, c.changed
}

// fetchStaged backfills a checkpoint from the KV staging area, where
// the producer leaves the complete chunked blob. A copy the notification
// announced as still being flushed (StagePending) is polled for on the
// retry schedule for up to LinkWait — unless a newer notification is
// already waiting, which supersedes this version anyway; without the
// flag a missing copy is final.
func (c *Consumer) fetchStaged(ctx context.Context, meta *core.ModelMeta) (*vformat.Checkpoint, *cacheFill, error) {
	key := core.StagingKey(c.model, meta.Version)
	raw, err := c.kv.GetBytes(key)
	if meta.StagePending {
		budget := c.clock.After(c.linkWait)
		backoff := initialBackoff(c.policy)
	poll:
		for errors.Is(err, kvstore.ErrNotFound) && len(c.events) == 0 {
			select {
			case <-c.clock.After(backoff):
			case <-budget:
				break poll
			case <-ctx.Done():
				return nil, nil, ctx.Err()
			case <-c.closed:
				return nil, nil, errors.New("remote: consumer closed")
			}
			backoff = nextBackoff(c.policy, backoff)
			raw, err = c.kv.GetBytes(key)
		}
	}
	if errors.Is(err, kvstore.ErrNotFound) {
		return nil, nil, nil // lost on both paths
	}
	if err != nil {
		return nil, nil, fmt.Errorf("remote: staged fetch: %w", err)
	}
	ckpt, err := vformat.DecodeAuto(ctx, raw, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("remote: staged checkpoint: %w", err)
	}
	if ckpt.ModelName != c.model || ckpt.Version != meta.Version {
		return nil, nil, fmt.Errorf("remote: staged checkpoint is %s/v%d, want %s/v%d",
			ckpt.ModelName, ckpt.Version, c.model, meta.Version)
	}
	fill := &cacheFill{}
	if c.cache != nil {
		// The staged chunk records replenish the reconciliation cache,
		// behind the install like a link stream's (best-effort: a blob that
		// does not split into records leaves the cache as it is).
		err := vformat.WalkChunkRecords(raw, func(rec []byte) error {
			fill.recs = append(fill.recs, rec)
			return nil
		})
		if err == nil {
			fill.header, fill.weights = raw, ckpt.Weights
		}
	}
	c.bump(func(s *ConsumerStats) { s.StagedLoads++ })
	return ckpt, fill, nil
}

// install makes ckpt the active checkpoint and restores the serving
// model; with reconciliation on it then hands fill to the cache filler,
// which caches the version's records and advertises the cache back to the
// sender behind the install, so the next version can travel as a delta.
func (c *Consumer) install(ckpt *vformat.Checkpoint, fill *cacheFill) error {
	c.mu.Lock()
	c.active = ckpt
	c.loads++
	c.applied = ckpt.Version
	if c.linkVersion < ckpt.Version {
		// Installed from staging ahead of the link: a stream of this
		// version arriving late is stale.
		c.linkVersion = ckpt.Version
	}
	c.mu.Unlock()
	inst.installs.Inc()
	if c.serving != nil {
		if err := nn.RestoreSnapshot(c.serving, ckpt.Weights); err != nil {
			return fmt.Errorf("remote: restore: %w", err)
		}
	}
	if c.cache != nil {
		fill.version, fill.installed = ckpt.Version, c.clock.Now()
		c.queueFill(fill)
	}
	return nil
}

// queueFill hands f to the cache filler, latest-wins: a fill still
// waiting is superseded — its records are never hashed (they go back to
// the pool), and the newer version's advertisement covers whatever the
// cache holds by then.
func (c *Consumer) queueFill(f *cacheFill) {
	c.mu.Lock()
	if old := c.pendingFill; old != nil {
		inst.fillSuperseded.Inc()
		if old.owned {
			c.releaseAll(old.recs)
		}
	}
	c.pendingFill = f
	c.mu.Unlock()
	select {
	case c.fillWake <- struct{}{}:
	default: // a wake-up is already pending
	}
}

// takeFill claims the waiting fill, if any.
func (c *Consumer) takeFill() *cacheFill {
	c.mu.Lock()
	defer c.mu.Unlock()
	f := c.pendingFill
	c.pendingFill = nil
	return f
}

// filler is the background cache filler: one fill at a time, never under
// c.mu. Close abandons the fill in hand between two records and the one
// waiting altogether; the cache dies with the consumer.
func (c *Consumer) filler() {
	for {
		select {
		case <-c.fillWake:
		case <-c.closed:
			return
		}
		for f := c.takeFill(); f != nil; f = c.takeFill() {
			if !c.fill(f) {
				return
			}
		}
	}
}

// fill hashes f's records into the cache and only then advertises the
// cache, so a have-list never names a chunk the cache does not hold. The
// consumer computes every key itself, from bytes its assembler verified.
// A fill that ran to its end has the hash of every record the install was
// decoded from, by position, and offers the install as the span source.
// The advertisement is best-effort: a late or lost have-list only costs
// one full stream. It reports false when the consumer closed under it.
func (c *Consumer) fill(f *cacheFill) bool {
	start := c.clock.Now()
	hashes := make([]vformat.ChunkHash, len(f.recs))
	for _, rec := range f.recs {
		select {
		case <-c.closed:
			return false
		default:
		}
		h := vformat.HashChunkRecord(rec)
		if i := transport.ChunkRecordIndex(rec); i >= 0 && i < len(hashes) {
			hashes[i] = h
		}
		if !f.owned {
			c.cache.Put(h, rec)
		} else if !c.cache.Adopt(h, rec) {
			c.pool.Release(rec) // cached already: the bytes are not needed twice
		}
	}
	inst.cacheFillMS.Observe(c.clock.Now().Sub(start).Milliseconds())
	if f.header != nil {
		// One record per chunk of a complete build means one per position;
		// anything else (a duplicate frame) fails the count check and
		// offers nothing — the next delta then reconciles from the cache.
		if src, err := vformat.NewSpanSource(f.header, hashes, f.weights); err == nil {
			c.mu.Lock()
			c.offerSourceLocked(f.version, src)
			c.mu.Unlock()
		}
	}
	if hs := c.cache.Hashes(); len(hs) > 0 {
		if c.link.Send(transport.NewHaveFrame(c.model, f.version, hs)) == nil {
			inst.haveListLagMS.Observe(c.clock.Now().Sub(f.installed).Milliseconds())
		}
	}
	return true
}

// Active returns the currently installed checkpoint (nil before the
// first update). It is shared and read-only, like the one Next returned
// (the same object).
func (c *Consumer) Active() *vformat.Checkpoint {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.active
}

// Loads returns the number of applied updates.
func (c *Consumer) Loads() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.loads
}

// Stats returns a snapshot of the delivery counters.
func (c *Consumer) Stats() ConsumerStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// LatestMeta fetches the newest metadata from the KV store (pull path).
func (c *Consumer) LatestMeta() (*core.ModelMeta, error) {
	raw, err := c.kv.Get(core.MetaKey(c.model))
	if err != nil {
		return nil, err
	}
	return core.DecodeMeta(raw)
}

// Close cancels the lifecycle context, tears down all connections and
// waits for the link reader, the builder and the cache filler to exit. It
// is idempotent and safe to call concurrently: only the first call closes
// the shutdown channel.
func (c *Consumer) Close() {
	c.lifeCancel()
	c.closeOnce.Do(func() { close(c.closed) })
	c.link.Close()
	c.wg.Wait()
	c.ps.Close()
	c.kv.Close()
}

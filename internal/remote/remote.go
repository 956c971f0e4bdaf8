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

	"viper/internal/chunkstore"
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
	// StoreDir, when non-empty, attaches a durable content-addressed
	// store at that directory: every published payload (always the
	// complete self-contained blob, even when the link carried a delta)
	// is written through, so the publish history survives producer
	// restarts and stays reloadable with LoadVersion.
	StoreDir string
	// StoreRetention bounds the attached store's history (zero value =
	// unbounded). Only meaningful with StoreDir.
	StoreRetention chunkstore.Retention
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
	storedVersions     *metrics.Counter
	storeErrors        *metrics.Counter
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
	storedVersions:     registry.Counter("producer_stored_versions"),
	storeErrors:        registry.Counter("producer_store_errors"),
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
	// StoredVersions counts payloads written through to the attached
	// durable store.
	StoredVersions int64
	// StoreErrors counts failed durable-store writes. The store's
	// failure mode is sticky until reopen, so a non-zero count with
	// StoredVersions flat means history silently stopped accruing.
	StoreErrors int64
}

// Producer publishes checkpoints to a remote consumer.
type Producer struct {
	model     string
	kv        *kvstore.Client
	ps        *pubsub.Client
	ln        *transport.Listener // nil in relay target mode
	link      *transport.ReconnectLink
	policy    retry.Policy
	clock     simclock.Clock
	stage     bool
	relay     bool
	chunkSize int
	workers   int
	recon     bool              // chunk-level delta publishing enabled
	deltaEps  float64           // base-suppression threshold (0 = exact dedup only)
	store     *chunkstore.Store // durable publish history (nil without StoreDir)

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
	// comparisons aligned with what receivers actually hold.
	lastSnap nn.Snapshot
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
	ps, err := pubsub.DialClient(cfg.NotifyAddr)
	if err != nil {
		kv.Close()
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
		ps.Close()
		if ln != nil {
			ln.Close()
		}
		return nil, fmt.Errorf("remote: link: %w", err)
	}
	var store *chunkstore.Store
	if cfg.StoreDir != "" {
		store, err = chunkstore.Open(cfg.StoreDir, chunkstore.Options{
			Retention: cfg.StoreRetention,
			Clock:     pol.ClockOrWall(),
		})
		if err != nil {
			kv.Close()
			ps.Close()
			link.Close()
			if ln != nil {
				ln.Close()
			}
			return nil, fmt.Errorf("remote: store: %w", err)
		}
	}
	if cfg.BaseContext == nil {
		cfg.BaseContext = context.Background()
	}
	lifeCtx, lifeCancel := context.WithCancel(cfg.BaseContext)
	p := &Producer{
		model: cfg.Model, kv: kv, ps: ps, ln: ln, link: link, store: store,
		policy: pol, clock: pol.ClockOrWall(), stage: !cfg.DisableStaging,
		relay: cfg.RelayAddr != "", chunkSize: cfg.ChunkSize, workers: cfg.Parallelism,
		recon:    !cfg.DisableDeltaReconcile,
		deltaEps: cfg.DeltaEps,
		closed:   make(chan struct{}),
		lifeCtx:  lifeCtx, lifeCancel: lifeCancel,
	}
	if p.recon {
		p.wg.Add(1)
		go p.pump()
	}
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

// retainedBlob is a published chunked blob the producer keeps — the
// encoder's pooled buffer itself (ChunkEncoder.Detach), not a copy. refs
// counts Producer.lastBlob's own reference plus every reader in flight
// (the publish that installed it, a need answer); whoever drops it to
// zero returns buf to the pool, so the buffer can never be re-issued
// under a reader. refs and buf's lifetime are guarded by Producer.mu.
type retainedBlob struct {
	buf  []byte
	key  string
	tags map[string]string
	refs int
}

// retainBlob takes over enc's finished blob as the answerable latest
// version, superseding the previous one. The returned blob carries one
// reference for the caller (the publish still has to stage it), to be
// dropped with unref.
func (p *Producer) retainBlob(enc *vformat.ChunkEncoder, key string, tags map[string]string) (*retainedBlob, error) {
	buf, err := enc.Detach()
	if err != nil {
		return nil, err
	}
	r := &retainedBlob{buf: buf, key: key, tags: tags, refs: 2}
	p.mu.Lock()
	prev := p.lastBlob
	p.lastBlob = r
	p.unrefLocked(prev)
	p.mu.Unlock()
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
// link (reconnecting and retrying on faults), a staging copy plus
// metadata into the KV store, then a push notification. If the link
// stays dead the checkpoint still reaches the consumer through the
// staging copy, with the metadata marking the degraded PFS-style route.
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
		SavedAt:   p.clock.Now(),
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
	// A no-op on the delta-mode paths, where retainBlob takes the blob
	// over; everywhere else (and on their error returns before the
	// hand-over) it returns the blob to the pool.
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
	blob, err := enc.Blob()
	if errors.Is(err, vformat.ErrIncompleteStream) {
		// The header frame never left, so the stream encode never ran;
		// finish it for the staging copy and the metadata size.
		if err = enc.EncodeStream(ctx, nil); err == nil {
			blob, err = enc.Blob()
		}
	}
	if err != nil {
		return nil, err
	}
	if p.recon {
		r, err := p.retainBlob(enc, key, tags)
		if err != nil {
			return nil, err
		}
		defer p.unref(r)
	}
	// Staging reads the pooled blob in place: the deferred Release/unref
	// above run only after finishPublish's Set has returned.
	return p.finishPublish(ctx, ckpt, key, blob, sendErr)
}

// publishDelta ships ckpt as a manifest plus only the chunk records the
// receiver's advertised store lacks, planned from the encoder's hashes
// (each record hashed once, on its worker pool). The staging copy and metadata are unchanged
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
	return p.finishPublish(ctx, ckpt, key, blob, sendErr)
}

// finishPublish completes a publish after the link attempt: delivery
// stats, the KV staging copy (mandatory when the link failed), then
// metadata and the push notification.
func (p *Producer) finishPublish(ctx context.Context, ckpt *vformat.Checkpoint, key string, payload []byte, sendErr error) (*core.ModelMeta, error) {
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
	if sendErr != nil {
		// Degrade to the staging path, as the in-process engine falls
		// back from memory tiers to the PFS.
		location = core.RoutePFS
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if p.stage || sendErr != nil {
		if err := p.kv.SetBytes(core.StagingKey(p.model, version), payload); err != nil {
			if sendErr != nil {
				return nil, fmt.Errorf("remote: link send failed (%w) and staging failed: %w", sendErr, err)
			}
			// The link carried the frame; a failed staging copy only
			// costs redundancy.
		} else {
			p.mu.Lock()
			p.stats.Staged++
			inst.staged.Inc()
			p.mu.Unlock()
			if version > stagedHistory {
				_, _ = p.kv.Del(core.StagingKey(p.model, version-stagedHistory))
			}
		}
	}
	if p.store != nil {
		// The payload here is always the complete self-contained blob
		// (delta publishes stage and store the full encode), so the
		// durable history never holds an unreplayable fragment.
		if err := p.store.PutBlob(p.model, version, key, payload); err == nil {
			p.mu.Lock()
			p.stats.StoredVersions++
			p.mu.Unlock()
			inst.storedVersions.Inc()
		} else {
			// Publication already succeeded; a failed write-through only
			// degrades this version to memory-resident history, but the
			// counter keeps the degradation observable.
			p.mu.Lock()
			p.stats.StoreErrors++
			p.mu.Unlock()
			inst.storeErrors.Inc()
		}
	}
	meta := core.ModelMeta{
		Name:      p.model,
		Version:   version,
		Iteration: ckpt.Iteration,
		TrainLoss: ckpt.TrainLoss,
		Location:  location,
		Path:      key,
		Size:      int64(len(payload)),
		Format:    "vchunk",
		SavedAt:   p.clock.Now(),
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
	return &meta, nil
}

// LoadVersion reloads an older published payload from the attached
// durable store (ErrNotFound-wrapping error without one).
func (p *Producer) LoadVersion(version uint64) ([]byte, error) {
	if p.store == nil {
		return nil, errors.New("remote: no durable store attached")
	}
	return p.store.LoadVersion(p.model, version)
}

// StoredVersions lists the versions the attached durable store retains,
// oldest first (nil without a store).
func (p *Producer) StoredVersions() []uint64 {
	if p.store == nil {
		return nil
	}
	return p.store.Versions(p.model)
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

// Close cancels the lifecycle context and tears down all connections,
// then waits for the reader pump (if any) to drain.
func (p *Producer) Close() {
	p.lifeCancel()
	p.closeOnce.Do(func() { close(p.closed) })
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
	if p.store != nil {
		p.store.Close()
	}
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
	// the direct link before backfilling from the KV staging area
	// (default 2s).
	LinkWait time.Duration
	// LinkDial, if set, replaces the direct-link dial (fault injection
	// hooks in here).
	LinkDial func(addr string) (net.Conn, error)
	// MetaDial, if set, replaces the metadata client dial.
	MetaDial func(addr string) (net.Conn, error)
	// DisableDeltaReconcile turns off chunk-level delta reconciliation.
	// By default the consumer keeps a content-addressed cache of the
	// chunk records it has seen, advertises it to the sender after every
	// install (transport.HaveKey), and accepts manifest delta streams
	// that ship only the chunks that changed — recovering
	// advertised-but-evicted chunks with a need-list, and falling back
	// to the staging path rather than ever assembling a torn
	// checkpoint. Disabling restores the always-full streams.
	DisableDeltaReconcile bool
	// ChunkHashCache bounds the reconciliation chunk cache, in entries
	// (0 selects the vformat default). Only meaningful while delta
	// reconciliation is enabled.
	ChunkHashCache int
	// FrameBuffer sizes the pump's frame buffer, in frames (default 32).
	// A stream longer than the buffer is shed if Next is not draining
	// concurrently, converging through staging instead of the link;
	// receivers that expect whole multi-chunk checkpoints on the link
	// (e.g. a delta-off baseline of a large model) need room for a full
	// stream.
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
	// DiscardedFrames counts link frames superseded before installation.
	DiscardedFrames int64
	// DeltaLoads counts link loads that arrived as manifest delta
	// streams reconciled against the chunk cache (a subset of
	// LinkLoads).
	DeltaLoads int64
}

// Consumer receives checkpoints pushed by a remote producer.
type Consumer struct {
	model    string
	kv       *kvstore.Client
	ps       *pubsub.Client
	link     *transport.ReconnectLink
	events   <-chan pubsub.Message
	serving  nn.Model
	linkWait time.Duration
	policy   retry.Policy
	clock    simclock.Clock
	// cache is the content-addressed record cache delta reconciliation
	// runs against (nil when disabled). Its own lock makes it safe to
	// fill from the collect loop and snapshot for advertisements.
	cache *vformat.ChunkCache

	frames    chan transport.Frame
	stash     *transport.Frame // link frame that overshot its notification
	closed    chan struct{}
	closeOnce sync.Once

	// lifeCtx is the lifecycle context minted from
	// ConsumerConfig.BaseContext; lifeCancel fires in Close.
	lifeCtx    context.Context
	lifeCancel context.CancelFunc

	mu      sync.Mutex
	active  *vformat.Checkpoint
	loads   int64
	applied uint64
	stats   ConsumerStats
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
	link := transport.NewReconnectLink(func() (*transport.TCPLink, error) {
		conn, err := dial(cfg.ProducerAddr)
		if err != nil {
			return nil, err
		}
		return transport.WrapTCP(conn), nil
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
		model: cfg.Model, kv: kv, ps: ps, link: link,
		events: events, serving: cfg.Serving,
		linkWait: linkWait, policy: pol, clock: pol.ClockOrWall(),
		frames:  make(chan transport.Frame, frameBuf),
		closed:  make(chan struct{}),
		lifeCtx: lifeCtx, lifeCancel: lifeCancel,
	}
	if !cfg.DisableDeltaReconcile {
		c.cache = vformat.NewChunkCache(cfg.ChunkHashCache)
	}
	go c.pump()
	return c, nil
}

// pump moves frames from the (reconnecting) link into c.frames until
// the consumer closes. When the link is persistently unavailable it
// backs off on the retry policy's schedule — charged against the
// injected clock, so virtual-time tests cover the full backoff curve
// without burning wall time — and keeps trying; deliveries continue
// through the staging fallback meanwhile.
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
		default:
			// A full buffer must never stall the pump: this Recv loop is
			// what drives link reconnection, and a producer blocked in
			// re-accept waits on the consumer to redial — a pump parked
			// on a full channel deadlocks both sides (a version is many
			// frames, so the buffer overflows quickly). Frames are
			// superseding model updates, so shed the oldest buffered
			// frame; a torn chunk stream or lost version backfills from
			// KV staging.
			select {
			case <-c.frames:
			default:
			}
			select {
			case c.frames <- f:
			default:
			}
		}
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
// checkpoint (direct link first, KV staging backfill when the link
// lost it), installs it, and returns it. Notifications for versions at
// or below the installed one (e.g. redelivered after a broker
// reconnect) are ignored; notified versions that are unrecoverable on
// both paths are skipped, since a newer update supersedes them.
func (c *Consumer) Next(timeout time.Duration) (*vformat.Checkpoint, error) {
	return c.NextContext(c.lifeCtx, timeout)
}

// NextContext is Next bounded by a context: cancellation aborts the
// wait, a chunk-stream assembly in progress, and the staging backfill.
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
			ckpt, err := c.fetch(ctx, meta)
			if err != nil {
				return nil, err
			}
			if ckpt == nil {
				// Unrecoverable on both paths; wait for a newer one.
				c.bump(func(s *ConsumerStats) { s.SkippedVersions++ })
				continue
			}
			if err := c.install(ckpt); err != nil {
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

// fetch obtains the checkpoint for meta from the direct link, falling
// back to the KV staging area. A nil, nil return means the version is
// lost on both paths (superseded updates may legitimately be).
func (c *Consumer) fetch(ctx context.Context, meta *core.ModelMeta) (*vformat.Checkpoint, error) {
	// A frame stashed by an earlier overshoot may already be the one.
	if c.stash != nil {
		f := c.stash
		switch v := frameVersion(f); {
		case f.Key == meta.Path:
			c.stash = nil
			ckpt, foreign := c.resolveFrame(ctx, f, meta)
			if ckpt != nil {
				c.bump(func(s *ConsumerStats) { s.LinkLoads++ })
				return ckpt, nil
			}
			if foreign != nil && frameVersion(foreign) > meta.Version {
				c.stash = foreign
				return c.fetchStaged(ctx, meta)
			}
		case v > meta.Version:
			// The link is already past this version; its frame will
			// never arrive. Keep the stash for its own notification.
			return c.fetchStaged(ctx, meta)
		default:
			c.stash = nil
			c.bump(func(s *ConsumerStats) { s.DiscardedFrames++ })
		}
	}
	timer := c.clock.After(c.linkWait)
	for {
		select {
		case f := <-c.frames:
			if f.Key == meta.Path {
				ckpt, foreign := c.resolveFrame(ctx, &f, meta)
				if ckpt != nil {
					c.bump(func(s *ConsumerStats) { s.LinkLoads++ })
					return ckpt, nil
				}
				if foreign != nil && frameVersion(foreign) > meta.Version {
					// A newer stream tore this one mid-assembly; its
					// opening frame serves the next notification.
					c.stash = foreign
				}
				// Undecodable or torn for our version: backfill.
				return c.fetchStaged(ctx, meta)
			}
			if frameVersion(&f) > meta.Version {
				c.stash = &f
				return c.fetchStaged(ctx, meta)
			}
			// An older, superseded frame (its notification was
			// processed or skipped already): discard.
			c.bump(func(s *ConsumerStats) { s.DiscardedFrames++ })
		case <-timer:
			return c.fetchStaged(ctx, meta)
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-c.closed:
			return nil, errors.New("remote: consumer closed")
		}
	}
}

// resolveFrame turns a link frame addressed to meta into a checkpoint:
// a stream header pulls the remaining chunk frames from the pump and
// assembles them as they arrive. A nil checkpoint means the frame opens
// no stream, or its stream was unusable, and the caller should backfill
// from staging; a non-nil foreign frame interrupted the chunk stream and
// still needs handling.
func (c *Consumer) resolveFrame(ctx context.Context, f *transport.Frame, meta *core.ModelMeta) (*vformat.Checkpoint, *transport.Frame) {
	if transport.IsManifestHeader(*f) {
		return c.collectDeltaStream(ctx, f, meta)
	}
	if transport.IsChunkHeader(*f) {
		return c.collectChunkStream(ctx, f, meta)
	}
	return nil, nil
}

// streamRecv builds the collect loops' receive function: frames come
// from the pump under the link-wait bound, and every chunk record of
// the stream is mirrored into the reconciliation cache as it passes (a
// corrupted record keys itself under the hash of its corrupted bytes,
// which no manifest will ever reference, so caching before CRC
// verification is safe).
func (c *Consumer) streamRecv(ctx context.Context, key string) func() (transport.Frame, error) {
	timer := c.clock.After(c.linkWait)
	return func() (transport.Frame, error) {
		select {
		case f := <-c.frames:
			if c.cache != nil && f.Key == key && transport.IsChunkFrame(f) {
				c.cache.Put(vformat.HashChunkRecord(f.Payload), f.Payload)
			}
			return f, nil
		case <-timer:
			return transport.Frame{}, ErrTimeout
		case <-ctx.Done():
			return transport.Frame{}, ctx.Err()
		case <-c.closed:
			return transport.Frame{}, errors.New("remote: consumer closed")
		}
	}
}

// collectChunkStream assembles the chunk stream opened by header,
// receiving successive frames from the pump under the link-wait bound.
// Decode and CRC verification happen per chunk as frames arrive.
func (c *Consumer) collectChunkStream(ctx context.Context, header *transport.Frame, meta *core.ModelMeta) (*vformat.Checkpoint, *transport.Frame) {
	ckpt, foreign, err := transport.CollectChunked(ctx, *header, c.streamRecv(ctx, header.Key))
	if err != nil {
		return nil, foreign
	}
	if ckpt.ModelName != c.model || ckpt.Version != meta.Version {
		return nil, nil
	}
	return ckpt, nil
}

// collectDeltaStream reconciles the manifest delta stream opened by
// header against the chunk cache: advertised chunks are reused in
// place, the missing records arrive from the pump, and a chunk the
// cache lost since advertising is need-listed back to the sender over
// the link. Any failure (including an off-stream refusal of the
// need-list) surfaces as an unusable stream — the caller backfills from
// staging rather than assembling torn.
func (c *Consumer) collectDeltaStream(ctx context.Context, header *transport.Frame, meta *core.ModelMeta) (*vformat.Checkpoint, *transport.Frame) {
	if c.cache == nil {
		// Reconciliation disabled: nothing advertised, so a manifest
		// stream is unexpected; let the staging path carry the version.
		return nil, nil
	}
	send := func(f transport.Frame) error { return c.link.Send(f) }
	ckpt, foreign, _, err := transport.CollectChunkedDelta(ctx, *header, c.streamRecv(ctx, header.Key), send, c.cache)
	if err != nil {
		return nil, foreign
	}
	if ckpt.ModelName != c.model || ckpt.Version != meta.Version {
		return nil, nil
	}
	c.bump(func(s *ConsumerStats) { s.DeltaLoads++ })
	return ckpt, nil
}

// fetchStaged backfills a checkpoint from the KV staging area, where
// the producer left the complete chunked blob.
func (c *Consumer) fetchStaged(ctx context.Context, meta *core.ModelMeta) (*vformat.Checkpoint, error) {
	raw, err := c.kv.GetBytes(core.StagingKey(c.model, meta.Version))
	if errors.Is(err, kvstore.ErrNotFound) {
		return nil, nil // lost on both paths
	}
	if err != nil {
		return nil, fmt.Errorf("remote: staged fetch: %w", err)
	}
	ckpt, err := vformat.DecodeAuto(ctx, raw, 0)
	if err != nil {
		return nil, fmt.Errorf("remote: staged checkpoint: %w", err)
	}
	if ckpt.ModelName != c.model || ckpt.Version != meta.Version {
		return nil, fmt.Errorf("remote: staged checkpoint is %s/v%d, want %s/v%d",
			ckpt.ModelName, ckpt.Version, c.model, meta.Version)
	}
	if c.cache != nil {
		// The staged chunk records replenish the reconciliation cache
		// (best-effort: the install does not depend on it).
		_ = c.cache.PutAll(raw)
	}
	c.bump(func(s *ConsumerStats) { s.StagedLoads++ })
	return ckpt, nil
}

// install makes ckpt the active checkpoint, restores the serving
// model, and (with reconciliation on) advertises the chunk cache back
// to the sender so the next version can travel as a delta. The
// advertisement is best-effort: a lost have-list only costs one full
// stream.
func (c *Consumer) install(ckpt *vformat.Checkpoint) error {
	c.mu.Lock()
	c.active = ckpt
	c.loads++
	c.applied = ckpt.Version
	c.mu.Unlock()
	inst.installs.Inc()
	if c.serving != nil {
		if err := nn.RestoreSnapshot(c.serving, ckpt.Weights); err != nil {
			return fmt.Errorf("remote: restore: %w", err)
		}
	}
	if c.cache != nil {
		if hs := c.cache.Hashes(); len(hs) > 0 {
			_ = c.link.Send(transport.NewHaveFrame(c.model, ckpt.Version, hs))
		}
	}
	return nil
}

// Active returns the currently installed checkpoint (nil before the
// first update).
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

// Close cancels the lifecycle context and tears down all connections.
// It is idempotent and safe to call concurrently: only the first call
// closes the shutdown channel.
func (c *Consumer) Close() {
	c.lifeCancel()
	c.closeOnce.Do(func() { close(c.closed) })
	c.link.Close()
	c.ps.Close()
	c.kv.Close()
}

package remote

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"

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
	// answers need-lists for advertised chunks the receiver no longer holds.
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

// ProducerStats counts producer-side delivery activity: a view of the
// producer's own counters, which move independently (DeltaSends before the
// LinkSends of the same publish).
type ProducerStats struct {
	// LinkSends counts checkpoints that reached the direct link.
	LinkSends int64 `metric:"producer_link_sends"`
	// LinkFailures counts checkpoints the link could not carry even
	// after retries (delivered via staging instead).
	LinkFailures int64 `metric:"producer_link_failures"`
	// Staged counts checkpoint payloads written to the KV staging area.
	Staged int64 `metric:"producer_staged"`
	// HaveLists counts chunk advertisements absorbed from the receiver
	// (delta publishing only).
	HaveLists int64 `metric:"producer_have_lists"`
	// DeltaSends counts publishes that left as manifest delta streams
	// rather than full chunk streams (a subset of LinkSends).
	DeltaSends int64 `metric:"producer_delta_sends"`
	// InPlacePublishes counts encodes written into the retired blob of an
	// earlier version rather than a pool blob (DeltaEps > 0 only).
	InPlacePublishes int64 `metric:"producer_inplace_publishes"`
	// ReusedRecords counts the records those encodes left in place.
	ReusedRecords int64 `metric:"producer_reused_records"`
}

// producerCounters are one producer's event counters, named field for
// field after ProducerStats (metrics.Bind); each also feeds the registry.
type producerCounters struct {
	LinkSends, LinkFailures, Staged, HaveLists, DeltaSends, InPlacePublishes, ReusedRecords metrics.Counter
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
	n         producerCounters
	relay     bool
	chunkSize int
	workers   int
	recon     bool    // chunk-level delta publishing enabled
	deltaEps  float64 // base-suppression threshold (0 = exact dedup only)

	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
	// flushes hands staging writes to the stage flusher (at most one
	// waits: a newer publish supersedes it); a waiting one owns one
	// reference to its blob.
	flushes *latest[stageFlush]

	// lifeCtx is the lifecycle context minted from
	// ProducerConfig.BaseContext; lifeCancel fires in Close.
	lifeCtx    context.Context
	lifeCancel context.CancelFunc

	mu      sync.Mutex
	version uint64
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
	// retired is, when the producer keeps a base, the newest published
	// blob nobody holds any more: the producer's until the next publish
	// hands it to lineage — whose encode writes into it in place — or Close.
	retired *retainedBlob
	// lastSnap is the previous publish's wire values, the comparison
	// base for DeltaEps suppression. putElemsBase mutates it in place
	// to each new version's wire values, keeping producer-side
	// comparisons aligned with what receivers actually hold. lineage
	// travels with it into every encode, so a delta publish hashes only
	// the records of chunks that moved and rewrites only those records of
	// the retired blob (vformat.BaseLineage). Publishes use both
	// sequentially, outside mu.
	lastSnap nn.Snapshot
	lineage  vformat.BaseLineage
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
	var o opened
	kv, err := kvstore.DialOptions(cfg.MetaAddr, kvstore.Options{Retry: pol})
	if err := o.step("metadata", kv, err); err != nil {
		return nil, err
	}
	stageKV, err := kvstore.DialOptions(cfg.MetaAddr, kvstore.Options{Retry: pol})
	if err := o.step("metadata", stageKV, err); err != nil {
		return nil, err
	}
	ps, err := pubsub.DialClient(cfg.NotifyAddr)
	if err := o.step("notify", ps, err); err != nil {
		return nil, err
	}
	var ln *transport.Listener
	var link *transport.ReconnectLink
	if cfg.RelayAddr != "" {
		// Relay target mode: dial the relay's ingest address (the
		// link direction inverts — the producer is the client).
		link = dialedLink(cfg.RelayAddr, cfg.RelayDial, pol, nil)
	} else {
		ln, err = transport.Listen(cfg.ListenAddr)
		if err := o.step("link", ln, err); err != nil {
			return nil, err
		}
		ln.Wrap = cfg.LinkWrap
		if cfg.OnListen != nil {
			cfg.OnListen(ln.Addr())
		}
		link = transport.NewReconnectLink(ln.Accept, pol)
	}
	if err := o.step("link", link, link.Connect()); err != nil {
		return nil, err
	}
	if cfg.BaseContext == nil {
		cfg.BaseContext = context.Background()
	}
	lifeCtx, lifeCancel := context.WithCancel(cfg.BaseContext)
	p := &Producer{
		model: cfg.Model, kv: kv, stageKV: stageKV, ps: ps, ln: ln, link: link,
		policy: pol, clock: pol.ClockOrWall(),
		relay: cfg.RelayAddr != "", chunkSize: cfg.ChunkSize, workers: cfg.Parallelism,
		recon:    !cfg.DisableDeltaReconcile,
		deltaEps: cfg.DeltaEps,
		closed:   make(chan struct{}),
		lifeCtx:  lifeCtx, lifeCancel: lifeCancel,
	}
	p.flushes = newLatest[stageFlush](p.closed)
	metrics.Bind[ProducerStats](registry, &p.n)
	if p.recon {
		p.wg.Add(1)
		go p.pump()
	}
	p.wg.Add(1)
	go p.flusher()
	return p, nil
}

// pump is the delta-publishing producer's reader loop (recvLoop):
// have-lists replace the receiver's advertised chunk set, need-lists are
// answered from the last published blob, anything else is dropped.
func (p *Producer) pump() {
	defer p.wg.Done()
	recvLoop(p.link, p.policy, p.clock, p.closed, func(f transport.Frame) bool {
		switch {
		case transport.IsHaveFrame(f):
			model, _, hashes, err := transport.ParseHaveFrame(f)
			if err != nil || model != p.model {
				break
			}
			set := make(map[vformat.ChunkHash]bool, len(hashes))
			for _, h := range hashes {
				set[h] = true
			}
			p.mu.Lock()
			p.peerHave = set
			p.mu.Unlock()
			p.n.HaveLists.Inc() // after the set is in place: observers wait on it
		case transport.IsNeedFrame(f):
			p.answerNeed(f)
		}
		return true
	})
}

// retainedBlob is a published chunked blob — the encoder's pooled buffer
// itself (ChunkEncoder.Detach), not a copy — with the content hash of each
// record when the publish computed them (nil otherwise). refs counts every
// holder: the publish that encoded it (until it returns), Producer.lastBlob
// while it is the answerable latest version (delta mode), a need answer
// walking it, and the stage flusher from hand-off until its staging write
// has returned. Whoever drops it to zero retires it (a producer that keeps
// a base) or returns buf to the pool, so the buffer is never written or
// re-issued under a reader. refs and buf's lifetime are guarded by
// Producer.mu.
type retainedBlob struct {
	buf     []byte
	hashes  []vformat.ChunkHash
	key     string
	version uint64
	tags    map[string]string
	refs    int
}

// retainBlob takes over enc's finished blob, hashes being its records'
// (or nil). The returned blob carries one reference for the caller (the
// publish), to be dropped with unref; in delta mode it also becomes the
// answerable latest version, superseding the previous one.
func (p *Producer) retainBlob(enc *vformat.ChunkEncoder, hashes []vformat.ChunkHash, ckpt *vformat.Checkpoint, key string, tags map[string]string) (*retainedBlob, error) {
	buf, err := enc.Detach()
	if err != nil {
		return nil, err
	}
	if enc.InPlace() {
		p.n.InPlacePublishes.Inc()
		p.n.ReusedRecords.Add(int64(enc.ReusedRecords()))
	}
	r := &retainedBlob{buf: buf, hashes: hashes, key: key, version: ckpt.Version, tags: tags, refs: 1}
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

// unrefLocked drops one reference to r (nil is a no-op); p.mu must be held.
// With the last one a producer that keeps a base retires the blob when it
// is newer than the one retired already, and the other goes back to the
// pool.
func (p *Producer) unrefLocked(r *retainedBlob) {
	if r == nil {
		return
	}
	if r.refs--; r.refs != 0 {
		return
	}
	if p.keepsBase() && (p.retired == nil || p.retired.version < r.version) {
		r, p.retired = p.retired, r
	}
	p.releaseLocked(r)
}

// releaseLocked returns r's buffer (if r is not nil) to the pool; p.mu
// must be held.
func (p *Producer) releaseLocked(r *retainedBlob) {
	if r != nil {
		vformat.ReleaseBuffer(r.buf)
		r.buf = nil
	}
}

// keepsBase reports whether publishes encode against lastSnap.
func (p *Producer) keepsBase() bool { return p.recon && p.deltaEps > 0 }

// answerNeed re-sends the requested chunk records of the latest
// published version, holding a reference to its blob for the whole walk
// so a concurrent publish or Close cannot retire it or return it to the
// pool under the sends. Records are picked by the hashes the publish kept,
// index for index; only a blob published without them (a full stream) is
// hashed here. Requests for anything else are dropped: the receiver's
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
	idx := 0
	_ = vformat.WalkChunkRecords(r.buf, func(rec []byte) error {
		var h vformat.ChunkHash
		if r.hashes != nil {
			h = r.hashes[idx]
		} else {
			h = vformat.HashChunkRecord(rec)
		}
		idx++
		if need[h] {
			return conn.Send(transport.ChunkRecordFrame(key, rec))
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
	// A stream the relay republishes is one the link carried, so its
	// staging copy is flushed behind it.
	meta := p.metaFor(ckpt, key, size, core.RouteRelay, true)
	if encoded, err := meta.Encode(); err == nil {
		tags[core.RelayMetaTag] = encoded
	}
}

// metaFor is the metadata of ckpt published under key from location;
// stagePending says its staging copy is still to be flushed.
func (p *Producer) metaFor(ckpt *vformat.Checkpoint, key string, size int64, location core.Route, stagePending bool) core.ModelMeta {
	return core.ModelMeta{
		Name: p.model, Version: ckpt.Version, Iteration: ckpt.Iteration, TrainLoss: ckpt.TrainLoss,
		Location: location, Path: key, Size: size, Format: "vchunk",
		StagePending: stagePending, SavedAt: p.clock.Now(),
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
	if p.keepsBase() {
		opts.Lineage = &p.lineage
		if base != nil && vformat.SameStructure(base, ckpt.Weights) {
			opts.Base, opts.BaseEps = base, p.deltaEps
		} else {
			base = ckpt.Weights.Clone()
			p.mu.Lock()
			p.lastSnap = base
			p.mu.Unlock()
		}
		// The retired blob goes to the lineage, which lets this encode write
		// into it if it still belongs to this base and layout.
		var retired []byte
		p.mu.Lock()
		if r := p.retired; r != nil {
			retired, r.buf, p.retired = r.buf, nil, nil
		}
		p.mu.Unlock()
		if retired != nil {
			p.lineage.Retire(retired)
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
	r, err := p.retainBlob(enc, nil, ckpt, key, tags)
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
	hashedChunks.Add(int64(enc.HashedRecords()))
	inheritedHashes.Add(int64(len(hashes) - enc.HashedRecords()))
	manifest, records, _, err := vformat.PlanDeltaHashed(blob, hashes, func(h vformat.ChunkHash) bool { return have[h] })
	if err != nil {
		return nil, err
	}
	// Retain before sending: the receiver's need-list can arrive while
	// the tail of this stream is still leaving.
	r, err := p.retainBlob(enc, hashes, ckpt, key, tags)
	if err != nil {
		return nil, err
	}
	defer p.unref(r)
	p.n.DeltaSends.Inc()
	sendErr := transport.SendChunkedDelta(ctx, transport.WithMeta(p.link, tags), key, manifest, records, len(hashes), len(blob))
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
	if sendErr != nil {
		p.n.LinkFailures.Inc()
	} else {
		p.n.LinkSends.Inc()
	}
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
	flushBehind := sendErr == nil
	meta := p.metaFor(ckpt, r.key, int64(len(r.buf)), location, flushBehind)
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
	p.stagedVersions = append(p.stagedVersions, version)
	var trim []uint64
	if n := len(p.stagedVersions) - stagedHistory; n > 0 {
		trim = append(trim, p.stagedVersions[:n]...)
		p.stagedVersions = append(p.stagedVersions[:0], p.stagedVersions[n:]...)
	}
	p.mu.Unlock()
	p.n.Staged.Inc()
	for _, v := range trim {
		_, _ = kv.Del(core.StagingKey(p.model, v)) // best-effort: a leftover copy only costs memory
	}
	return nil
}

// queueFlush hands r to the stage flusher as version's staging copy,
// latest-wins: a flush still waiting is superseded (its version keeps
// the link delivery it already had and a consumer that lost it skips to
// this one). Once Close has begun nothing is queued: the flusher may
// already have made its final sweep.
func (p *Producer) queueFlush(r *retainedBlob, version uint64) {
	p.mu.Lock()
	r.refs++
	p.mu.Unlock()
	old, ok := p.flushes.put(&stageFlush{blob: r, version: version})
	if !ok {
		p.unref(r)
	} else if old != nil {
		p.unref(old.blob)
		stageSuperseded.Inc()
	}
}

// flusher is the background stage flusher: one staging write at a time
// on its own KV connection, never under p.mu. A failed write only costs
// redundancy — the link carried the version. On Close it finishes the
// flush that is waiting, so every announced version that was not
// superseded has its copy.
func (p *Producer) flusher() {
	defer p.wg.Done()
	p.flushes.run(func(f *stageFlush) {
		start := p.clock.Now()
		if err := p.stageBlob(p.stageKV, f.blob, f.version); err == nil {
			stageFlushes.Inc()
			stageFlushMS.Observe(p.clock.Now().Sub(start).Milliseconds())
		}
		p.unref(f.blob)
	})
}

// Version returns the latest published version.
func (p *Producer) Version() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.version
}

// Stats returns the producer's delivery counters.
func (p *Producer) Stats() ProducerStats { return metrics.View[ProducerStats](&p.n) }

// Close cancels the lifecycle context and tears down the link, waits for
// the reader pump (if any) and for the stage flusher to finish the write
// it has in hand or waiting, then closes the service connections. The
// blob pool is dropped with the last blob and the retired one: how many
// checkpoint-sized buffers it lists is an accident of how publisher and
// flusher overlapped, and must not outlive the publisher as live heap.
func (p *Producer) Close() {
	p.lifeCancel()
	p.closeOnce.Do(func() {
		p.flushes.refuse()
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
	p.releaseLocked(p.retired)
	p.retired = nil
	p.mu.Unlock()
	vformat.DropBuffers()
	p.ps.Close()
	p.kv.Close()
	p.stageKV.Close()
}

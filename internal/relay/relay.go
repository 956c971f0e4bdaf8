// Package relay implements Viper's caching fan-out tier: a standalone
// node between one producer and N consumers that makes producer-side
// publish cost independent of the consumer count (the paper's §6
// multi-consumer broadcast, grown into a delivery layer of its own).
//
// The producer pushes each version's chunked v2 stream to the relay
// exactly once (remote.ProducerConfig.RelayAddr); the relay caches the
// encoded chunk records in a content-addressed store — it never decodes
// checkpoint payloads — and fans them out to every connected consumer
// over the unchanged consumer wire protocol, so remote.Consumer works
// against a relay serve address exactly as it does against a producer's
// direct-link address. Each consumer session has independent progress;
// a newly completed version supersedes an in-flight fan-out of an older
// one (latest-wins, the consumer's torn-stream machinery absorbs the
// cut); and late joiners are served the newest complete version
// straight from the chunk store, without any producer involvement. A
// bounded number of versions is retained per model (oldest evicted
// first).
//
// Storage is keyed by chunk content hash (vformat.ChunkHash): a chunk
// shared by several cached versions is resident once. Nothing in it is
// balanced by hand. A committed version is an immutable value that
// sessions read without a lock; an ingest build owns its records until
// commit; and the chunk table is a function of the catalogue — it counts,
// per hash, how often the versions of the resident window list it, and
// only a version entering or leaving that window moves a count (DESIGN
// §11). The same hashes drive delta distribution in both directions. Upstream,
// the relay advertises a committed version's hashes to the producer
// (transport.HaveKey), which then pushes the next version as a manifest
// frame plus only the records the relay lacks; advertised-but-evicted
// chunks are recovered with a need-list (transport.NeedKey) back to the
// producer, so an admitted delta stream always commits whole or not at
// all. Downstream, a consumer session that advertised its own have-list
// is served manifest+missing deltas the same way, and its need-lists
// are answered from the chunk store.
//
// When a version's stream completes, the relay records relay-served
// metadata in the KV store and republishes the model's update channel,
// so notification flow and discovery work even if the producer dies
// right after its push.
package relay

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sort"
	"strconv"
	"sync"
	"time"

	"viper/internal/chunkstore"
	"viper/internal/core"
	"viper/internal/kvstore"
	"viper/internal/metrics"
	"viper/internal/pubsub"
	"viper/internal/retry"
	"viper/internal/simclock"
	"viper/internal/transport"
	"viper/internal/vformat"
)

// DefaultRetained is the default number of cached versions per model.
const DefaultRetained = 4

// InventoryKey is the frame key of the inventory request/reply exchange
// on the ingest address: a client sends an empty frame under this key
// and receives one frame whose payload is the JSON-encoded []VersionInfo
// (viper-inspect's -relay mode uses FetchInventory).
const InventoryKey = "viper/relay/inventory"

// MetricsKey is the frame key of the metrics request/reply exchange on
// the ingest address: the reply payload is the JSON-encoded
// []metrics.Snapshot of the node's registries (viper-top uses
// FetchMetrics).
const MetricsKey = "viper/relay/metrics"

// RejectKey is the frame key of admission-rejection notices. The frame's
// "reason" Meta entry maps into the error taxonomy via RejectionError.
const RejectKey = "viper/relay/reject"

const (
	rejectReasonSessions = "sessions"
	rejectReasonRate     = "rate"
	// rejectReasonResend marks records the consumer is waiting for and the
	// relay cannot deliver — a need-list it could not satisfy (the chunks
	// left the store), or a store read that failed in the middle of a
	// fan-out: the off-stream notice tears the consumer's collect cleanly
	// so it falls back to a full fetch rather than waiting for records
	// that will never come.
	rejectReasonResend = "resend"
)

// Overload error taxonomy. ErrOverloaded is the base every admission
// failure wraps, so callers can match the family with one errors.Is and
// still distinguish the specific causes.
var (
	// ErrOverloaded is the base class of every admission failure.
	ErrOverloaded = errors.New("relay: overloaded")
	// ErrAdmissionRejected reports a consumer session refused because the
	// relay is at its MaxSessions bound.
	ErrAdmissionRejected = fmt.Errorf("%w: session admission rejected", ErrOverloaded)
	// ErrRateLimited reports a version push refused by the per-model
	// ingest rate limiter.
	ErrRateLimited = fmt.Errorf("%w: ingest rate limited", ErrOverloaded)
)

// rejectFrame builds the wire notice for a refused admission.
func rejectFrame(reason, model, version string) transport.Frame {
	return transport.Frame{Key: RejectKey, Meta: map[string]string{
		"reason": reason, "model": model, "version": version,
	}}
}

// RejectionError classifies a relay rejection notice into the error
// taxonomy. It returns nil when f is not a rejection frame.
func RejectionError(f transport.Frame) error {
	if f.Key != RejectKey {
		return nil
	}
	switch f.Meta["reason"] {
	case rejectReasonSessions:
		return ErrAdmissionRejected
	case rejectReasonRate:
		return fmt.Errorf("%w (model %q version %s)", ErrRateLimited, f.Meta["model"], f.Meta["version"])
	default:
		return fmt.Errorf("%w: reason %q", ErrOverloaded, f.Meta["reason"])
	}
}

// registry is the package's metrics surface. Every Relay in the process
// feeds the counters (they aggregate, like transport's link counters);
// gauges reflect the most recently synced node. Counters mirror Stats
// and are synced on commit and on every Stats/MetricsSnapshots read; the
// read-through instruments (read_ahead_waits, read_through_first_byte_ms)
// have no Stats field and are recorded where they happen. cache_bytes and
// unique_chunks describe the catalogue: the chunks the resident window
// lists plus every catalogued header. A build still arriving is its
// connection's own and shows in neither until it commits.
var registry = metrics.NewRegistry("relay")

// Metrics returns the package's metrics registry.
func Metrics() *metrics.Registry { return registry }

var inst = struct {
	ingestFrames      *metrics.Counter
	cachedVersions    *metrics.Counter
	supersededBuilds  *metrics.Counter
	abandonedBuilds   *metrics.Counter
	corruptChunks     *metrics.Counter
	strayFrames       *metrics.Counter
	sessions          *metrics.Counter
	servedVersions    *metrics.Counter
	abandonedFanouts  *metrics.Counter
	metaErrors        *metrics.Counter
	admissionRejected *metrics.Counter
	rejectedVersions  *metrics.Counter
	releasedVersions  *metrics.Counter
	dedupedChunks     *metrics.Counter
	deltaVersions     *metrics.Counter
	deltaFanouts      *metrics.Counter
	needResends       *metrics.Counter
	storedVersions    *metrics.Counter
	hydratedVersions  *metrics.Counter
	demotedVersions   *metrics.Counter
	storeErrors       *metrics.Counter
	readAheadWaits    *metrics.Counter
	readFirstByteMS   *metrics.Histogram // a session picked a version with records on disk → its first frame was written
	cacheBytes        *metrics.Gauge
	openSessions      *metrics.Gauge
	modelCount        *metrics.Gauge
	uniqueChunks      *metrics.Gauge
}{
	ingestFrames:      registry.Counter("ingest_frames"),
	cachedVersions:    registry.Counter("cached_versions"),
	supersededBuilds:  registry.Counter("superseded_builds"),
	abandonedBuilds:   registry.Counter("abandoned_builds"),
	corruptChunks:     registry.Counter("corrupt_chunks"),
	strayFrames:       registry.Counter("stray_frames"),
	sessions:          registry.Counter("sessions_total"),
	servedVersions:    registry.Counter("served_versions"),
	abandonedFanouts:  registry.Counter("abandoned_fanouts"),
	metaErrors:        registry.Counter("meta_errors"),
	admissionRejected: registry.Counter("admission_rejected"),
	rejectedVersions:  registry.Counter("rejected_versions"),
	releasedVersions:  registry.Counter("released_versions"),
	dedupedChunks:     registry.Counter("deduped_chunks"),
	deltaVersions:     registry.Counter("delta_versions"),
	deltaFanouts:      registry.Counter("delta_fanouts"),
	needResends:       registry.Counter("need_resends"),
	storedVersions:    registry.Counter("stored_versions"),
	hydratedVersions:  registry.Counter("hydrated_versions"),
	demotedVersions:   registry.Counter("demoted_versions"),
	storeErrors:       registry.Counter("store_errors"),
	readAheadWaits:    registry.Counter("read_ahead_waits"),
	readFirstByteMS:   registry.Histogram("read_through_first_byte_ms"),
	cacheBytes:        registry.Gauge("cache_bytes"),
	openSessions:      registry.Gauge("open_sessions"),
	modelCount:        registry.Gauge("models"),
	uniqueChunks:      registry.Gauge("unique_chunks"),
}

// Config configures a relay node.
type Config struct {
	// IngestAddr is where the producer dials to push version streams
	// ("127.0.0.1:0" picks a free port; see Relay.IngestAddr).
	IngestAddr string
	// ServeAddr is where consumers dial their links ("127.0.0.1:0"
	// picks a free port; see Relay.ServeAddr).
	ServeAddr string
	// MetaAddr is the kvstore server address; empty disables the
	// relay's metadata writes.
	MetaAddr string
	// NotifyAddr is the pubsub server address; empty disables the
	// relay's update republishing.
	NotifyAddr string
	// Retained bounds the cached versions per model (0 selects
	// DefaultRetained). The oldest version is evicted first.
	Retained int
	// Retry bounds the metadata client's retries; its clock also stamps
	// synthesized metadata. The zero value selects retry.Default over
	// the wall clock.
	Retry retry.Policy
	// IngestWrap, if set, decorates each accepted ingest connection
	// (fault injection hooks in here).
	IngestWrap func(net.Conn) net.Conn
	// ServeWrap, if set, decorates each accepted consumer connection.
	ServeWrap func(net.Conn) net.Conn
	// MaxSessions bounds concurrently connected consumer sessions. A
	// consumer beyond the bound receives a rejection notice (RejectKey,
	// reason "sessions" — ErrAdmissionRejected) and is disconnected.
	// 0 means unlimited.
	MaxSessions int
	// IngestRate, when positive, is the per-model admission rate for
	// version pushes, in versions per second (a token bucket of
	// IngestBurst capacity refilled on the Retry clock). A version
	// pushed while its model's bucket is dry is refused whole at its
	// header: the producer link receives a rejection notice (reason
	// "rate" — ErrRateLimited) and the stream's frames are dropped, so
	// admitted streams are never torn by the limiter.
	IngestRate float64
	// IngestBurst is the rate limiter's bucket capacity (default 1).
	IngestBurst int
	// StoreDir, when set, attaches a durable chunkstore rooted at the
	// directory: every committed version is persisted, cache misses on
	// the serve path fall through to disk, and a restarted relay
	// rehydrates its whole inventory instead of waking empty. With a
	// store attached, Retained only bounds memory residency — history
	// depth is governed by StoreRetention.
	StoreDir string
	// StoreRetention bounds the attached store's on-disk history (zero
	// values keep everything).
	StoreRetention chunkstore.Retention
	// StoreSegmentBytes overrides the store's segment rotation
	// threshold (0 selects the chunkstore default; mainly for tests).
	StoreSegmentBytes int64
}

// Stats counts relay activity.
type Stats struct {
	// IngestFrames counts frames received on the ingest side.
	IngestFrames int64
	// CachedVersions counts version streams that completed and entered
	// the cache.
	CachedVersions int64
	// SupersededBuilds counts partial streams replaced by a newer
	// stream's header before completing.
	SupersededBuilds int64
	// AbandonedBuilds counts partial streams dropped because their
	// ingest connection died.
	AbandonedBuilds int64
	// CorruptChunks counts chunk records rejected by CRC verification
	// (the whole pending version is dropped).
	CorruptChunks int64
	// StrayFrames counts frames that belonged to no pending stream.
	StrayFrames int64
	// Sessions counts consumer connections accepted.
	Sessions int64
	// ServedVersions counts complete version fan-outs to one consumer.
	ServedVersions int64
	// AbandonedFanouts counts fan-outs cut short because a newer
	// version completed mid-stream (latest-wins).
	AbandonedFanouts int64
	// MetaErrors counts failed metadata writes / notifications.
	MetaErrors int64
	// AdmissionRejected counts consumer sessions refused at the
	// MaxSessions bound.
	AdmissionRejected int64
	// RejectedVersions counts version pushes refused by the per-model
	// ingest rate limiter.
	RejectedVersions int64
	// ReleasedVersions counts versions that left the catalogue: evicted,
	// retired by the store's retention, or replaced by a re-push.
	ReleasedVersions int64
	// DedupedChunks counts chunks of committed versions that were already
	// resident when their version entered the window (manifest prefills
	// and identical records alike) and so cost no new storage.
	DedupedChunks int64
	// DeltaVersions counts versions committed from a manifest (delta)
	// ingest stream.
	DeltaVersions int64
	// DeltaFanouts counts fan-outs served as manifest+missing deltas
	// against a consumer's advertised have-list.
	DeltaFanouts int64
	// NeedResends counts need-lists exchanged to recover
	// advertised-but-evicted chunks: requests the relay sent upstream
	// plus requests it answered for consumers.
	NeedResends int64
	// StoredVersions counts committed versions persisted to the
	// attached chunkstore.
	StoredVersions int64
	// HydratedVersions counts catalog entries rebuilt from the attached
	// chunkstore at startup.
	HydratedVersions int64
	// DemotedVersions counts versions whose memory residency was
	// released while their catalog entry stayed serveable from disk.
	DemotedVersions int64
	// StoreErrors counts failed chunkstore writes and reads (the relay
	// keeps serving from memory when the disk tier misbehaves).
	StoreErrors int64
}

// chunkEntry is one resident chunk record: the encoded record bytes
// (index, span, payload, CRC — exactly as a producer sent them) and how
// often the versions of the resident window list its hash. Guarded by
// Relay.mu. payload is a GC-owned slice, immutable from the moment it is
// entered, so whoever copied the slice header out under the lock may keep
// reading it after the entry is gone. listed is written by
// enterWindowLocked and leaveWindowLocked and nowhere else.
type chunkEntry struct {
	payload []byte
	listed  int
}

// version is one catalogued (model, version): its header frame plus the
// ordered content hashes of its records. It is an immutable value: the
// build that gathered it fills every field before commit inserts it into
// the catalogue, and nothing is written afterwards — eviction, demotion
// and same-vnum replacement move or remove the catalogue's pointer and
// never touch the object — so a session reads head, manifest and hashes
// with no lock. The record bytes are not the version's: they live in the
// chunk table while the version is in the resident window, and in the
// store (if at all) otherwise.
type version struct {
	model     string
	vnum      uint64
	key       string
	head      transport.Frame // the stream's header frame
	hashes    []vformat.ChunkHash
	manifest  []byte
	bytes     int64 // logical payload size (header + every record)
	deduped   int   // chunks that were already resident when it entered the window
	delta     bool  // ingested as manifest+missing rather than a full stream
	reconcile bool  // sender is delta-capable: advertise hashes back
	stored    bool  // persisted in (or hydrated from) the attached chunkstore
	meta      *core.ModelMeta
}

// modelCache is one model's catalogue, ascending by vnum. versions[lo:]
// is the resident window — at most Retained versions, each listed in the
// chunk table; versions[:lo] are disk shells (store-backed relays only)
// whose records read through from the store.
type modelCache struct {
	versions []*version
	lo       int
}

func (mc *modelCache) newest() *version {
	if len(mc.versions) == 0 {
		return nil
	}
	return mc.versions[len(mc.versions)-1]
}

// record is one verified chunk record in a build: its content hash
// (computed once, on arrival) and the bytes.
type record struct {
	hash    vformat.ChunkHash
	payload []byte
}

// building is one in-progress stream assembly on an ingest connection.
// It owns what it gathers — the version under construction, the records,
// the store write handle — until commit enters the finished version into
// the catalogue; a build that will not commit (superseded, poisoned by a
// corrupt record, orphaned by its connection) is abandoned: its slices
// are simply dropped and its handle aborted. State is keyed by what has
// arrived, never sized from the count a sender announces. want counts
// the record frames the sender announced and size the chunk positions
// the version has (for a delta stream the two differ: positions
// prefilled from the cache or the store are covered before any record
// arrives, and a stale have-list can leave positions uncovered after all
// want records landed — recovered via a need-list to the producer).
type building struct {
	v        *version
	want     int
	got      int
	size     int
	recs     map[int]record            // covered positions
	missing  map[vformat.ChunkHash]int // uncovered positions by hash (delta)
	needSent bool
	// w is the build's store write handle: records are appended as they
	// arrive, so commit is only the barrier. Nil without a store, and
	// after the first failed append (the version then serves from memory
	// only).
	w *chunkstore.Writer
}

// abandon drops a build that will not commit. Its records were never
// anyone else's, so there is nothing to give back; what its handle
// appended stays on disk as dead bytes for the store's reclaimer.
func (b *building) abandon() {
	if b.w != nil {
		b.w.Abort()
		b.w = nil
	}
}

// tokenBucket is one model's ingest admission state (guarded by
// Relay.mu).
type tokenBucket struct {
	tokens float64
	last   time.Time
}

// Relay is a running relay node.
type Relay struct {
	retained    int
	maxSessions int
	rate        float64
	burst       float64
	kv          *kvstore.Client
	ps          *pubsub.Client
	clock       simclock.Clock
	store       *chunkstore.Store

	ingestLn *transport.Listener
	serveLn  *transport.Listener

	wg     sync.WaitGroup
	closed chan struct{}
	once   sync.Once

	mu         sync.Mutex
	models     map[string]*modelCache
	chunks     map[vformat.ChunkHash]*chunkEntry
	ingests    map[*transport.TCPLink]struct{}
	sessions   map[*session]struct{}
	buckets    map[string]*tokenBucket
	cacheBytes int64
	wake       chan struct{}
	stats      Stats
	synced     Stats // last values pushed to the metrics registry
}

// New binds the ingest and serve listeners, connects to the metadata
// and notification services (when configured), and starts serving.
func New(cfg Config) (*Relay, error) {
	retained := cfg.Retained
	if retained <= 0 {
		retained = DefaultRetained
	}
	pol := cfg.Retry
	if pol.MaxAttempts == 0 {
		pol = retry.Default(nil)
	}
	burst := cfg.IngestBurst
	if burst <= 0 {
		burst = 1
	}
	r := &Relay{
		retained:    retained,
		maxSessions: cfg.MaxSessions,
		rate:        cfg.IngestRate,
		burst:       float64(burst),
		clock:       pol.ClockOrWall(),
		closed:      make(chan struct{}),
		models:      make(map[string]*modelCache),
		chunks:      make(map[vformat.ChunkHash]*chunkEntry),
		ingests:     make(map[*transport.TCPLink]struct{}),
		sessions:    make(map[*session]struct{}),
		buckets:     make(map[string]*tokenBucket),
		wake:        make(chan struct{}),
	}
	if cfg.MetaAddr != "" {
		kv, err := kvstore.DialOptions(cfg.MetaAddr, kvstore.Options{Retry: pol})
		if err != nil {
			return nil, fmt.Errorf("relay: metadata: %w", err)
		}
		r.kv = kv
	}
	if cfg.NotifyAddr != "" {
		ps, err := pubsub.DialClient(cfg.NotifyAddr)
		if err != nil {
			r.closeClients()
			return nil, fmt.Errorf("relay: notify: %w", err)
		}
		r.ps = ps
	}
	ingestLn, err := transport.Listen(cfg.IngestAddr)
	if err != nil {
		r.closeClients()
		return nil, fmt.Errorf("relay: ingest: %w", err)
	}
	ingestLn.Wrap = cfg.IngestWrap
	serveLn, err := transport.Listen(cfg.ServeAddr)
	if err != nil {
		ingestLn.Close()
		r.closeClients()
		return nil, fmt.Errorf("relay: serve: %w", err)
	}
	serveLn.Wrap = cfg.ServeWrap
	r.ingestLn, r.serveLn = ingestLn, serveLn
	if cfg.StoreDir != "" {
		st, err := chunkstore.Open(cfg.StoreDir, chunkstore.Options{
			SegmentBytes: cfg.StoreSegmentBytes,
			Retention:    cfg.StoreRetention,
			Clock:        r.clock,
		})
		if err != nil {
			ingestLn.Close()
			serveLn.Close()
			r.closeClients()
			return nil, fmt.Errorf("relay: store: %w", err)
		}
		r.store = st
		// Hydrate before the accept goroutines exist: the catalog fills
		// single-threaded and the first consumer already sees the full
		// recovered inventory.
		r.hydrateFromStore()
	}
	r.wg.Add(2)
	go r.acceptIngest()
	go r.acceptServe()
	return r, nil
}

func (r *Relay) closeClients() {
	if r.kv != nil {
		r.kv.Close()
	}
	if r.ps != nil {
		r.ps.Close()
	}
}

// hydrateFromStore rebuilds the in-memory catalog from the attached
// store's recovered inventory. Versions come back as header-resident
// shells — the records stay on disk and are read through on demand.
// Hydration never announces: the KV/notify state either already
// reflects these versions or the producer's next push refreshes it.
func (r *Relay) hydrateFromStore() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, model := range r.store.Models() {
		mc := r.models[model]
		if mc == nil {
			mc = &modelCache{}
			r.models[model] = mc
		}
		for _, vn := range r.store.Versions(model) {
			m, ok := r.store.Meta(model, vn)
			if !ok {
				r.stats.StoreErrors++
				continue
			}
			mc.versions = append(mc.versions, r.versionFromStoreLocked(m))
			r.stats.HydratedVersions++
		}
		mc.lo = len(mc.versions)
	}
	r.syncMetricsLocked()
}

// versionFromStoreLocked builds the catalog shell for a store-backed
// version: only the header frame (and manifest) is resident. Callers
// hold r.mu.
func (r *Relay) versionFromStoreLocked(m chunkstore.VersionMeta) *version {
	head := transport.Frame{Key: m.Key, Payload: m.Header, Meta: map[string]string{
		"model":                  m.Model,
		"version":                strconv.FormatUint(m.Version, 10),
		transport.MetaChunkRole:  transport.ChunkRoleHeader,
		transport.MetaChunkCount: strconv.Itoa(len(m.Hashes)),
	}}
	v := &version{
		model: m.Model, vnum: m.Version, key: m.Key,
		bytes: m.Bytes, stored: true,
		head:     head,
		hashes:   m.Hashes,
		manifest: vformat.EncodeManifest(m.Header, m.Hashes),
		meta: &core.ModelMeta{
			Name: m.Model, Version: m.Version, Path: m.Key,
			Size: m.Bytes, Format: "vchunk", SavedAt: m.SavedAt,
			Location: core.RouteRelay, Relay: r.ServeAddr(),
		},
	}
	r.cacheBytes += int64(len(m.Header))
	return v
}

// beginStore opens b's store write handle (none without a store).
func (r *Relay) beginStore(b *building) {
	if r.store != nil {
		b.w = r.store.Begin()
	}
}

// storeAppend writes one of b's records through to the store while the
// rest of the stream is still arriving. The first failure aborts the
// handle and counts one StoreError; later records skip the store and
// the version commits to memory only.
func (r *Relay) storeAppend(b *building, h vformat.ChunkHash, rec []byte) {
	if b.w == nil {
		return
	}
	if err := b.w.Append(h, rec); err != nil {
		b.w.Abort()
		b.w = nil
		r.bump(func(s *Stats) { s.StoreErrors++ })
	}
}

// persistVersion makes a completed version durable: its records were
// appended as they arrived, so only the commit barrier is left (segment
// fsync, commit record, log fsync). Persistence failure degrades to
// memory-only caching — the version still serves, it just will not
// survive a restart. It finishes w on every path. v is still the build's
// own here: stored is settled before the catalogue insert.
func (r *Relay) persistVersion(v *version, w *chunkstore.Writer) {
	if err := w.Commit(v.model, v.vnum, v.key, v.head.Payload, v.hashes); err != nil {
		r.bump(func(s *Stats) { s.StoreErrors++ })
		return
	}
	v.stored = true
	r.bump(func(s *Stats) { s.StoredVersions++ })
}

// IngestAddr returns the bound producer-push address.
func (r *Relay) IngestAddr() string { return r.ingestLn.Addr() }

// ServeAddr returns the bound consumer-link address.
func (r *Relay) ServeAddr() string { return r.serveLn.Addr() }

// Stats returns a snapshot of the relay counters (and syncs them to the
// metrics registry, so a Stats read doubles as a flush point).
func (r *Relay) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.syncMetricsLocked()
	return r.stats
}

// syncMetricsLocked pushes the delta between the relay's Stats and the
// last synced values into the package registry, and refreshes the
// gauges. Callers hold r.mu. Counters are deltas so several relays in
// one process aggregate; gauges reflect this node's latest sync.
func (r *Relay) syncMetricsLocked() {
	cur, prev := r.stats, r.synced
	inst.ingestFrames.Add(cur.IngestFrames - prev.IngestFrames)
	inst.cachedVersions.Add(cur.CachedVersions - prev.CachedVersions)
	inst.supersededBuilds.Add(cur.SupersededBuilds - prev.SupersededBuilds)
	inst.abandonedBuilds.Add(cur.AbandonedBuilds - prev.AbandonedBuilds)
	inst.corruptChunks.Add(cur.CorruptChunks - prev.CorruptChunks)
	inst.strayFrames.Add(cur.StrayFrames - prev.StrayFrames)
	inst.sessions.Add(cur.Sessions - prev.Sessions)
	inst.servedVersions.Add(cur.ServedVersions - prev.ServedVersions)
	inst.abandonedFanouts.Add(cur.AbandonedFanouts - prev.AbandonedFanouts)
	inst.metaErrors.Add(cur.MetaErrors - prev.MetaErrors)
	inst.admissionRejected.Add(cur.AdmissionRejected - prev.AdmissionRejected)
	inst.rejectedVersions.Add(cur.RejectedVersions - prev.RejectedVersions)
	inst.releasedVersions.Add(cur.ReleasedVersions - prev.ReleasedVersions)
	inst.dedupedChunks.Add(cur.DedupedChunks - prev.DedupedChunks)
	inst.deltaVersions.Add(cur.DeltaVersions - prev.DeltaVersions)
	inst.deltaFanouts.Add(cur.DeltaFanouts - prev.DeltaFanouts)
	inst.needResends.Add(cur.NeedResends - prev.NeedResends)
	inst.storedVersions.Add(cur.StoredVersions - prev.StoredVersions)
	inst.hydratedVersions.Add(cur.HydratedVersions - prev.HydratedVersions)
	inst.demotedVersions.Add(cur.DemotedVersions - prev.DemotedVersions)
	inst.storeErrors.Add(cur.StoreErrors - prev.StoreErrors)
	r.synced = cur
	inst.cacheBytes.Set(r.cacheBytes)
	inst.openSessions.Set(int64(len(r.sessions)))
	inst.modelCount.Set(int64(len(r.models)))
	inst.uniqueChunks.Set(int64(len(r.chunks)))
}

func (r *Relay) bump(f func(*Stats)) {
	r.mu.Lock()
	f(&r.stats)
	r.mu.Unlock()
}

// admitVersion consults model's ingest token bucket. When no rate is
// configured every push is admitted. The clock read happens outside the
// lock (it may be a wall read; see viper-vet's lockedsend analyzer).
func (r *Relay) admitVersion(model string) bool {
	if r.rate <= 0 {
		return true
	}
	now := r.clock.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	b := r.buckets[model]
	if b == nil {
		// A fresh bucket starts full: the first burst is always admitted.
		b = &tokenBucket{tokens: r.burst, last: now}
		r.buckets[model] = b
	}
	if elapsed := now.Sub(b.last); elapsed > 0 {
		b.tokens += elapsed.Seconds() * r.rate
		if b.tokens > r.burst {
			b.tokens = r.burst
		}
		b.last = now
	}
	if b.tokens < 1 {
		r.stats.RejectedVersions++
		return false
	}
	b.tokens--
	return true
}

// enterWindowLocked lists a version that joins the resident window in
// the chunk table: every position raises its hash's count, and a hash the
// table did not know becomes resident with the build's copy recs[i]. It
// returns how many positions found their record already resident — the
// version's dedup count; the build's duplicate bytes are dropped here.
// O(len(hashes)). Callers hold r.mu.
func (r *Relay) enterWindowLocked(hashes []vformat.ChunkHash, recs [][]byte) (deduped int) {
	for i, h := range hashes {
		e := r.chunks[h]
		if e == nil {
			e = &chunkEntry{payload: recs[i]}
			r.chunks[h] = e
			r.cacheBytes += int64(len(recs[i]))
		} else {
			deduped++
		}
		e.listed++
	}
	return deduped
}

// leaveWindowLocked is the inverse, for a version that leaves the window
// — evicted, demoted to a disk shell, or replaced by a re-push: every
// position lowers its hash's count and a chunk nobody in the window lists
// any more leaves the table. The payload slice itself is not touched: a
// fan-out that snapshotted it keeps it alive and intact. O(len(hashes)).
// Callers hold r.mu.
func (r *Relay) leaveWindowLocked(hashes []vformat.ChunkHash) {
	for _, h := range hashes {
		e := r.chunks[h]
		if e.listed--; e.listed == 0 {
			delete(r.chunks, h)
			r.cacheBytes -= int64(len(e.payload))
		}
	}
}

// planLocked snapshots where the records of hashes — leaving out the ones
// in skip (a consumer's have-set) — can be served from: want lists them in
// order and recs holds each one's resident payload, nil where the chunk
// table has none (the record is then on disk, or nowhere). The snapshot
// holds the payload slices themselves, which are immutable and GC-owned,
// so it stays readable after the lock drops whatever the catalogue does
// next; no store call is made under the lock. Callers hold r.mu.
func (r *Relay) planLocked(hashes []vformat.ChunkHash, skip map[vformat.ChunkHash]bool) (want []vformat.ChunkHash, recs [][]byte) {
	want = make([]vformat.ChunkHash, 0, len(hashes))
	recs = make([][]byte, 0, len(hashes))
	for _, h := range hashes {
		if skip[h] {
			continue
		}
		var rec []byte
		if e := r.chunks[h]; e != nil {
			rec = e.payload
		}
		want = append(want, h)
		recs = append(recs, rec)
	}
	return want, recs
}

// resolve returns the record bytes of hashes in order, whole: the
// resident copy where the chunk table has one, else a read through the
// durable store into a buffer of its own (the caller may keep it). A
// chunk in neither tier — or one the store could not read back — leaves a
// nil entry and counts as unresolved. This is the eager form, for the
// handful of records a need-list or a delta prefill asks for; a version
// fan-out streams its read-through instead (session.send).
func (r *Relay) resolve(hashes []vformat.ChunkHash) (recs [][]byte, unresolved int) {
	r.mu.Lock()
	_, recs = r.planLocked(hashes, nil)
	r.mu.Unlock()
	for i, rec := range recs {
		if rec != nil {
			continue
		}
		if r.store != nil {
			if got, err := r.store.ReadChunk(hashes[i], nil); err == nil {
				recs[i] = got
				continue
			}
		}
		unresolved++
	}
	return recs, unresolved
}

// chunkFrame rebuilds one record frame for fan-out: the wire shape a
// producer would have sent, with the stream identity (model, version,
// relay metadata) copied from the version's header frame.
func chunkFrame(head transport.Frame, rec []byte) transport.Frame {
	f := transport.ChunkRecordFrame(head.Key, rec, 0)
	if m := head.Meta["model"]; m != "" {
		f.Meta["model"] = m
	}
	if v := head.Meta["version"]; v != "" {
		f.Meta["version"] = v
	}
	return f
}

// Close stops both listeners, tears down every connection, and waits
// for all relay goroutines to exit.
func (r *Relay) Close() {
	r.once.Do(func() {
		close(r.closed)
		r.ingestLn.Close()
		r.serveLn.Close()
		r.mu.Lock()
		links := make([]*transport.TCPLink, 0, len(r.ingests))
		for l := range r.ingests {
			links = append(links, l)
		}
		sess := make([]*session, 0, len(r.sessions))
		for s := range r.sessions {
			sess = append(sess, s)
		}
		r.mu.Unlock()
		for _, l := range links {
			l.Close()
		}
		for _, s := range sess {
			s.close()
		}
	})
	r.wg.Wait()
	r.closeClients()
	if r.store != nil {
		r.store.Close()
	}
}

// acceptIngest accepts successive producer connections. The producer's
// ReconnectLink redials after faults, so each accepted conn is one link
// incarnation.
func (r *Relay) acceptIngest() {
	defer r.wg.Done()
	for {
		link, err := r.ingestLn.Accept()
		if err != nil {
			return
		}
		r.mu.Lock()
		select {
		case <-r.closed:
			r.mu.Unlock()
			link.Close()
			return
		default:
		}
		r.ingests[link] = struct{}{}
		r.mu.Unlock()
		r.wg.Add(1)
		go r.handleIngest(link)
	}
}

// ingestDepth is how many received frames may wait between an ingest
// connection's reader and its handler: enough for the socket read of the
// next few frames to overlap the verify/hash/append of this one
// (8 frames = 2 MiB at the default 256 KiB chunk size), small enough
// that a slow handler still closes the producer's TCP window.
const ingestDepth = 8

// readIngest is the first ingest stage: it pulls frames off the link
// (socket read, allocation, frame CRC) and queues them for handleIngest.
// It exits — closing frames — when the link fails or the relay closes.
func (r *Relay) readIngest(link *transport.TCPLink, frames chan<- transport.Frame) {
	defer r.wg.Done()
	defer close(frames)
	for {
		f, err := link.Recv()
		if err != nil {
			return
		}
		select {
		case frames <- f:
		case <-r.closed:
			return
		}
	}
}

// handleIngest is the second ingest stage of one producer connection: it
// assembles version streams frame by frame — verify, hash, store append —
// and commits them to the cache as they complete. All per-connection
// state, the builds' records included, lives on this goroutine. Partial
// streams die with the connection (the producer's staging fallback covers
// the loss).
func (r *Relay) handleIngest(link *transport.TCPLink) {
	defer r.wg.Done()
	frames := make(chan transport.Frame, ingestDepth)
	r.wg.Add(1)
	go r.readIngest(link, frames)
	pending := make(map[string]*building)
	// rejected maps model → frame key of a version the rate limiter
	// refused at its header, so the stream's trailing chunks are dropped
	// silently instead of counting as strays.
	rejected := make(map[string]string)
	defer func() {
		// Closing the link fails the reader's Recv; draining frames frees
		// it if it was parked on a full queue, and ends when it has exited.
		link.Close()
		for range frames {
		}
		for _, b := range pending {
			b.abandon()
		}
		r.mu.Lock()
		delete(r.ingests, link)
		r.stats.AbandonedBuilds += int64(len(pending))
		r.mu.Unlock()
	}()
	for f := range frames {
		r.bump(func(s *Stats) { s.IngestFrames++ })
		switch f.Key {
		case InventoryKey:
			payload, err := json.Marshal(r.Inventory())
			if err != nil || link.Send(transport.Frame{Key: InventoryKey, Payload: payload}) != nil {
				return
			}
		case MetricsKey:
			payload, err := json.Marshal(r.MetricsSnapshots())
			if err != nil || link.Send(transport.Frame{Key: MetricsKey, Payload: payload}) != nil {
				return
			}
		default:
			r.handleFrame(link, f, pending, rejected)
		}
	}
}

// handleFrame routes one ingest frame into the per-connection stream
// assembly state. Version pushes face the per-model rate limiter at
// their header: a refused version is dropped whole (header and trailing
// chunks), never torn, and the producer link is told why.
func (r *Relay) handleFrame(link *transport.TCPLink, f transport.Frame, pending map[string]*building, rejected map[string]string) {
	model := f.Meta["model"]
	if model == "" {
		r.bump(func(s *Stats) { s.StrayFrames++ })
		return
	}
	vnum, _ := strconv.ParseUint(f.Meta["version"], 10, 64)
	switch {
	case transport.IsChunkHeader(f) || transport.IsManifestHeader(f):
		want, err := strconv.Atoi(f.Meta[transport.MetaChunkCount])
		if err != nil || want < 0 {
			r.bump(func(s *Stats) { s.StrayFrames++ })
			return
		}
		if old := pending[model]; old != nil {
			delete(pending, model)
			old.abandon()
			r.bump(func(s *Stats) { s.SupersededBuilds++ })
		}
		delete(rejected, model)
		if !r.admitVersion(model) {
			rejected[model] = f.Key
			link.Send(rejectFrame(rejectReasonRate, model, f.Meta["version"]))
			return
		}
		if transport.IsManifestHeader(f) {
			r.startDeltaBuild(link, f, model, vnum, want, pending)
			return
		}
		// want is only what the sender claims: nothing is sized by it until
		// that many records have actually landed (commit).
		b := &building{want: want, size: want, recs: make(map[int]record), v: &version{
			model: model, vnum: vnum, key: f.Key,
			head:      f,
			reconcile: f.Meta[transport.MetaReconcile] == "1",
		}}
		if want == 0 {
			r.commit(link, b)
			return
		}
		r.beginStore(b)
		pending[model] = b
	case transport.IsChunkFrame(f):
		if rejected[model] == f.Key {
			return
		}
		b := pending[model]
		if b == nil || f.Key != b.v.key {
			r.bump(func(s *Stats) { s.StrayFrames++ })
			return
		}
		if !vformat.VerifyChunkRecord(f.Payload) {
			// One corrupt chunk poisons the whole version: drop the
			// build rather than cache (and fan out) a stream consumers
			// would reject chunk-by-chunk.
			delete(pending, model)
			b.abandon()
			r.bump(func(s *Stats) { s.CorruptChunks++ })
			return
		}
		r.addRecord(link, f, b, pending)
	default:
		// Neither a stream header nor a chunk record: nothing the relay
		// caches, stores or serves.
		r.bump(func(s *Stats) { s.StrayFrames++ })
	}
}

// startDeltaBuild opens a build from a manifest frame: the version's
// hash list comes from the manifest (so it is bounded by the payload),
// positions whose chunks the relay already has are prefilled — the
// resident slice looked up, or the record read through from the store —
// and only the rest wait on record frames. Prefilled records go to the
// build's store handle like received ones — dedupe hits there, which pin
// the entries until the version commits. A manifest that prefills
// completely commits on the spot; one whose sender will push nothing
// (want == 0) but that still has gaps — the producer planned against a
// have-list the relay has since evicted — asks for the gaps immediately.
func (r *Relay) startDeltaBuild(link *transport.TCPLink, f transport.Frame, model string, vnum uint64, want int, pending map[string]*building) {
	man, err := vformat.ParseManifest(f.Payload)
	if err != nil {
		r.bump(func(s *Stats) { s.CorruptChunks++ })
		return
	}
	hf := transport.Frame{Key: f.Key, Payload: man.Header, Meta: make(map[string]string, len(f.Meta))}
	for k, mv := range f.Meta {
		hf.Meta[k] = mv
	}
	hf.Meta[transport.MetaChunkRole] = transport.ChunkRoleHeader
	hf.Meta[transport.MetaChunkCount] = strconv.Itoa(len(man.Hashes))
	b := &building{
		want: want, size: len(man.Hashes),
		recs:    make(map[int]record),
		missing: make(map[vformat.ChunkHash]int),
		v: &version{
			model: model, vnum: vnum, key: f.Key,
			head:   hf,
			hashes: man.Hashes,
			delta:  true, reconcile: true,
		},
	}
	// Whatever the relay already has covers its position now — resident
	// chunks are looked up, demoted ones read through from the store — so a
	// delta push right after a restart (or against a demoted shell)
	// completes without a need-list round trip. A resident chunk that
	// leaves the table before this build commits stays covered: the build
	// has the slice.
	recs, _ := r.resolve(man.Hashes)
	r.beginStore(b)
	for i, h := range man.Hashes {
		if recs[i] == nil {
			b.missing[h] = i
			continue
		}
		b.recs[i] = record{h, recs[i]}
		r.storeAppend(b, h, recs[i])
	}
	if len(b.recs) == b.size {
		r.commit(link, b)
		return
	}
	pending[model] = b
	if b.got >= b.want {
		r.sendNeedList(link, b)
	}
}

// addRecord folds one verified chunk record into its build — hashing it
// once and appending it to the durable store; the catalogue lock is not
// taken — and commits the version once every position is covered. A
// full-stream record whose index is past the announced count, or already
// covered, is a stray. On a delta build that received every announced
// record and still has gaps, the missing hashes are requested from the
// producer (the relay evicted them after advertising).
func (r *Relay) addRecord(link *transport.TCPLink, f transport.Frame, b *building, pending map[string]*building) {
	var h vformat.ChunkHash
	var pos int
	if b.v.delta {
		h = vformat.HashChunkRecord(f.Payload)
		p, ok := b.missing[h]
		if !ok {
			// A record the manifest does not miss (duplicate or stale):
			// drop it, it covers nothing.
			b.got++
			r.bump(func(s *Stats) { s.StrayFrames++ })
			r.maybeNeed(link, b)
			return
		}
		delete(b.missing, h)
		pos = p
	} else {
		pos = transport.ChunkRecordIndex(f.Payload)
		if _, dup := b.recs[pos]; dup || pos < 0 || pos >= b.size {
			r.bump(func(s *Stats) { s.StrayFrames++ })
			return
		}
		h = vformat.HashChunkRecord(f.Payload)
	}
	b.got++
	b.recs[pos] = record{h, f.Payload}
	r.storeAppend(b, h, f.Payload)
	if len(b.recs) == b.size {
		delete(pending, b.v.model)
		r.commit(link, b)
		return
	}
	r.maybeNeed(link, b)
}

// maybeNeed sends the build's remaining missing hashes upstream once
// the announced record count has fully landed (delta builds only; sent
// at most once per build).
func (r *Relay) maybeNeed(link *transport.TCPLink, b *building) {
	if b.v.delta && !b.needSent && b.got >= b.want && len(b.recs) < b.size {
		r.sendNeedList(link, b)
	}
}

// sendNeedList asks the producer to re-send the chunks a manifest
// advertised as present but the relay no longer has.
func (r *Relay) sendNeedList(link *transport.TCPLink, b *building) {
	need := make([]vformat.ChunkHash, 0, len(b.missing))
	for h := range b.missing {
		need = append(need, h)
	}
	b.needSent = true
	r.bump(func(s *Stats) { s.NeedResends++ })
	link.Send(transport.NewNeedFrame(b.v.key, need))
}

// commit publishes a finished build: it completes the version (the last
// writes the object ever sees), makes it durable, and then — under one
// acquisition of r.mu — enters it into the chunk table and the catalogue
// and slides the resident window. After that it wakes every consumer
// session, advertises the version's chunk hashes upstream (so the
// producer can push the next version as a delta), and — when the version
// is the model's newest — records relay-served metadata and republishes
// the update channel.
func (r *Relay) commit(link *transport.TCPLink, b *building) {
	v := b.v
	// Every position is covered, so b.size records really arrived: this is
	// the first allocation the announced count sizes. The version's logical
	// size is the header plus every record.
	recs := make([][]byte, b.size)
	if !v.delta {
		v.hashes = make([]vformat.ChunkHash, b.size)
	}
	v.bytes = int64(len(v.head.Payload))
	for pos, rc := range b.recs {
		recs[pos], v.hashes[pos] = rc.payload, rc.hash
		v.bytes += int64(len(rc.payload))
	}
	v.manifest = vformat.EncodeManifest(v.head.Payload, v.hashes)
	v.meta = r.metaFor(v)
	// Persist before the catalog insert: once consumers can discover the
	// version its durability status is already settled, and the store's
	// own retention has run so the delegation below sees fresh state. The
	// store's version set is snapshotted here, not under r.mu: the call
	// can wait behind another connection's fsync, and every serve session
	// needs the catalog lock. A version retired in the gap leaves the
	// catalogue at the next commit. There is no handle without a store, for
	// a build whose appends already failed (and were counted), and for a
	// version with no chunks, which has nothing to make durable: those stay
	// memory-only.
	if b.w != nil {
		r.persistVersion(v, b.w)
	}
	var storeHas map[uint64]bool
	if r.store != nil {
		storeHas = make(map[uint64]bool)
		for _, vn := range r.store.Versions(v.model) {
			storeHas[vn] = true
		}
	}
	r.mu.Lock()
	mc := r.models[v.model]
	if mc == nil {
		mc = &modelCache{}
		r.models[v.model] = mc
	}
	// v is listed before anything leaves, so what it shares with a version
	// it replaces or pushes out is counted as dedup and never re-entered.
	// Only the header is charged to the cache beyond the chunk table.
	v.deduped = r.enterWindowLocked(v.hashes, recs)
	r.stats.DedupedChunks += int64(v.deduped)
	r.cacheBytes += int64(len(v.head.Payload))
	// Insert sorted by version; a re-pushed version replaces its entry. The
	// replaced object is only unlisted: a session still fanning it out
	// serves on from its snapshot.
	i := sort.Search(len(mc.versions), func(i int) bool { return mc.versions[i].vnum >= v.vnum })
	if i < len(mc.versions) && mc.versions[i].vnum == v.vnum {
		old := mc.versions[i]
		if i >= mc.lo {
			r.leaveWindowLocked(old.hashes)
		}
		r.cacheBytes -= int64(len(old.head.Payload))
		r.stats.ReleasedVersions++
	} else {
		mc.versions = append(mc.versions, nil)
		copy(mc.versions[i+1:], mc.versions[i:])
		if i < mc.lo {
			mc.lo++
		}
	}
	mc.versions[i] = v
	// Slide the window: it is the newest Retained versions above the disk
	// shells. What is listed right now is the old window plus v (which may
	// have landed among the shells); whatever of that falls below the new
	// edge is unlisted and then shares the shells' fate.
	// Retention is delegated to the store: a shell stays in the catalogue,
	// serving from disk, as long as the store holds it; a version the
	// store's own retention retired, or never had, leaves entirely.
	lo := len(mc.versions) - r.retained
	if lo < mc.lo {
		lo = mc.lo
	}
	kept := make([]*version, 0, len(mc.versions))
	for j, old := range mc.versions[:lo] {
		listed := j >= mc.lo || old == v
		if listed {
			r.leaveWindowLocked(old.hashes)
		}
		if !old.stored || !storeHas[old.vnum] {
			r.cacheBytes -= int64(len(old.head.Payload))
			r.stats.ReleasedVersions++
			continue
		}
		if listed {
			r.stats.DemotedVersions++
		}
		kept = append(kept, old)
	}
	mc.lo = len(kept)
	mc.versions = append(kept, mc.versions[lo:]...)
	if v.delta {
		r.stats.DeltaVersions++
	}
	newest := mc.newest() == v
	r.stats.CachedVersions++
	r.syncMetricsLocked()
	// Wake consumer sessions parked in next(): close-and-replace, so
	// every session holding the old channel observes the commit.
	close(r.wake)
	r.wake = make(chan struct{})
	r.mu.Unlock()
	if v.reconcile && len(v.hashes) > 0 && link != nil {
		// Advertise what the store now holds for this model, so the
		// producer's next push can elide the chunks that did not change
		// (best-effort: a lost have-list only costs a full push). Only
		// delta-capable senders get this: one that never reads its link
		// would accumulate unread frames until TCP backpressure stalled
		// our ingest goroutine.
		link.Send(transport.NewHaveFrame(v.model, v.vnum, v.hashes))
	}
	if newest {
		r.announce(v)
	}
}

// metaFor builds the metadata the relay records for v: the producer's
// own metadata when the stream carried it (core.RelayMetaTag),
// synthesized otherwise, with the location and serve address stamped in
// either case.
func (r *Relay) metaFor(v *version) *core.ModelMeta {
	var meta *core.ModelMeta
	if raw := v.head.Meta[core.RelayMetaTag]; raw != "" {
		if m, err := core.DecodeMeta(raw); err == nil {
			meta = m
		}
	}
	if meta == nil {
		meta = &core.ModelMeta{
			Name: v.model, Version: v.vnum, Path: v.key,
			Size: v.bytes, Format: "vchunk", SavedAt: r.clock.Now(),
		}
	}
	meta.Location = core.RouteRelay
	meta.Relay = r.ServeAddr()
	return meta
}

// announce writes v's metadata and republishes the update notification.
// Failures are counted, not fatal: consumers still converge through the
// producer's own notify/staging path.
func (r *Relay) announce(v *version) {
	encoded, err := v.meta.Encode()
	if err != nil {
		r.bump(func(s *Stats) { s.MetaErrors++ })
		return
	}
	if r.kv != nil {
		if err := r.kv.Set(core.MetaKey(v.model), encoded); err != nil {
			r.bump(func(s *Stats) { s.MetaErrors++ })
		}
	}
	if r.ps != nil {
		if _, err := r.ps.Publish(core.UpdateChannel(v.model), encoded); err != nil {
			r.bump(func(s *Stats) { s.MetaErrors++ })
		}
	}
}

// newestVnum returns the newest cached version number for model (0 if
// none).
func (r *Relay) newestVnum(model string) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if mc := r.models[model]; mc != nil {
		if v := mc.newest(); v != nil {
			return v.vnum
		}
	}
	return 0
}

// next finds a model whose newest complete version is ahead of what the
// session already fanned out and returns it with the snapshot of where
// its records — the ones not in have, the session's advertised set — can
// be served from (planLocked). The snapshot is taken under the same lock
// acquisition that picked v, so there is no window between pick and
// borrow: whatever the catalogue does to v next, the session serves the
// version it picked. When there is no such version v is nil and wake is
// the channel the next commit closes — read under the very acquisition
// that found nothing, so a commit that lands after the lookup closes the
// channel the session then parks on: none is missed.
func (r *Relay) next(sent map[string]uint64, have map[vformat.ChunkHash]bool) (v *version, want []vformat.ChunkHash, recs [][]byte, wake <-chan struct{}) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for model, mc := range r.models {
		if v := mc.newest(); v != nil && v.vnum > sent[model] {
			want, recs = r.planLocked(v.hashes, have)
			return v, want, recs, nil
		}
	}
	return nil, nil, nil, r.wake
}

// acceptServe accepts successive consumer connections.
func (r *Relay) acceptServe() {
	defer r.wg.Done()
	for {
		link, err := r.serveLn.Accept()
		if err != nil {
			return
		}
		s := &session{r: r, link: link, done: make(chan struct{}), needs: make(chan transport.Frame, 4)}
		r.mu.Lock()
		select {
		case <-r.closed:
			r.mu.Unlock()
			link.Close()
			return
		default:
		}
		if r.maxSessions > 0 && len(r.sessions) >= r.maxSessions {
			r.stats.AdmissionRejected++
			r.mu.Unlock()
			// The rejection notice travels on a goroutine of its own: the
			// accept loop must not block on a consumer's receive window
			// (see viper-vet's lockedsend rationale).
			r.wg.Add(1)
			go func() {
				defer r.wg.Done()
				link.Send(rejectFrame(rejectReasonSessions, "", ""))
				link.Close()
			}()
			continue
		}
		r.sessions[s] = struct{}{}
		r.stats.Sessions++
		r.mu.Unlock()
		r.wg.Add(2)
		go s.run()
		go s.watch()
	}
}

// session is one connected consumer: a writer goroutine fanning cached
// versions out (run) and a reader goroutine parsing the consumer's
// reconciliation frames and detecting disconnects (watch). Progress —
// and the advertised have-set — is per-session, so a slow consumer
// never stalls the others or the producer.
type session struct {
	r     *Relay
	link  *transport.TCPLink
	done  chan struct{}
	once  sync.Once
	needs chan transport.Frame

	mu   sync.Mutex
	have map[vformat.ChunkHash]bool

	// readBufs are the read-through buffers of the fan-out in progress
	// (see readAhead): two, so the store fills one while the link drains
	// the other. Grown on first use and kept for the session.
	readBufs [2][]byte
}

// setHave replaces the session's advertised chunk set (the consumer
// sends its whole cache inventory each time, so replacement — not
// merge — keeps the set bounded by what the consumer actually holds).
func (s *session) setHave(hashes []vformat.ChunkHash) {
	set := make(map[vformat.ChunkHash]bool, len(hashes))
	for _, h := range hashes {
		set[h] = true
	}
	s.mu.Lock()
	s.have = set
	s.mu.Unlock()
}

// close tears the session down (idempotent; called by either goroutine
// and by Relay.Close).
func (s *session) close() {
	s.once.Do(func() {
		close(s.done)
		s.link.Close()
		s.r.mu.Lock()
		delete(s.r.sessions, s)
		s.r.mu.Unlock()
	})
}

// watch drains the consumer side of the link: have-lists update the
// session's advertised chunk set, need-lists are routed to the writer
// goroutine (which owns the link's send side), and a Recv error means
// the peer disconnected (or the relay is closing), which must cancel
// the writer promptly.
func (s *session) watch() {
	defer s.r.wg.Done()
	defer s.close()
	for {
		f, err := s.link.Recv()
		if err != nil {
			return
		}
		switch {
		case transport.IsHaveFrame(f):
			if _, _, hashes, err := transport.ParseHaveFrame(f); err == nil {
				s.setHave(hashes)
			}
		case transport.IsNeedFrame(f):
			// Bounded hand-off: an overflowing need queue drops the
			// request, and the consumer's collect tears on the next
			// version instead of assembling short.
			select {
			case s.needs <- f:
			default:
				s.r.bump(func(st *Stats) { st.StrayFrames++ })
			}
		default:
			s.r.bump(func(st *Stats) { st.StrayFrames++ })
		}
	}
}

// run is the session's writer loop: catch the consumer up on the newest
// complete version of every model (straight from the cache — no
// producer involvement), then follow new commits as they land.
func (s *session) run() {
	defer s.r.wg.Done()
	defer s.close()
	sent := make(map[string]uint64)
	for {
		if !s.drainNeeds() {
			return
		}
		// The have-set is read before the catalogue lock is taken, never
		// under it: s.mu and r.mu do not nest.
		s.mu.Lock()
		have := s.have
		s.mu.Unlock()
		v, want, recs, wake := s.r.next(sent, have)
		if v == nil {
			select {
			case nf := <-s.needs:
				if !s.answerNeed(nf) {
					return
				}
			case <-wake:
			case <-s.done:
				return
			case <-s.r.closed:
				return
			}
			continue
		}
		sent[v.model] = v.vnum
		if !s.send(v, want, recs) {
			return
		}
	}
}

// drainNeeds answers every queued need-list before the writer moves on
// to the next version, so a consumer blocked on a re-send is never left
// waiting behind a park. Returns false when the connection is gone.
func (s *session) drainNeeds() bool {
	for {
		select {
		case nf := <-s.needs:
			if !s.answerNeed(nf) {
				return false
			}
		default:
			return true
		}
	}
}

// answerNeed re-sends requested records from the chunk store. When any
// requested chunk has left the store (the consumer asked after the
// referencing versions were evicted), the whole request is refused with
// an off-stream notice — the consumer's collect tears cleanly and falls
// back to a full fetch, never assembling a short checkpoint. Returns
// false when the connection is gone.
func (s *session) answerNeed(nf transport.Frame) bool {
	key, hashes, err := transport.ParseNeedFrame(nf)
	if err != nil {
		s.r.bump(func(st *Stats) { st.StrayFrames++ })
		return true
	}
	recs, unresolved := s.r.resolve(hashes)
	if unresolved > 0 {
		return s.link.Send(rejectFrame(rejectReasonResend, "", "")) == nil
	}
	for _, rec := range recs {
		if s.link.Send(transport.ChunkRecordFrame(key, rec, 0)) != nil {
			return false
		}
	}
	s.r.bump(func(st *Stats) { st.NeedResends++ })
	return true
}

// fanout is the plan of one version's fan-out to one consumer, fixed
// before the first frame leaves: the opening frame — the header, or a
// manifest when the consumer advertised a have-set overlapping the
// version — and the records to ship behind it, in order.
type fanout struct {
	open  transport.Frame
	delta bool
	// recs holds each record's resident payload; nil marks a record that
	// lives only in the store and is read through as the send loop
	// reaches it. disk lists those records' hashes, in the same order.
	recs [][]byte
	disk []vformat.ChunkHash
}

// planFanout turns the snapshot next took of v — want, the records this
// consumer lacks, and recs, their resident payloads — into the fan-out's
// plan. It reports false when a record is in neither tier: the version is
// then refused whole rather than opened as a stream that cannot finish.
// No lock is taken: v is immutable, and the store's index is asked here,
// outside the catalogue lock.
func (s *session) planFanout(v *version, want []vformat.ChunkHash, recs [][]byte) (fanout, bool) {
	p := fanout{open: v.head, delta: len(want) < len(v.hashes), recs: recs}
	for i, rec := range recs {
		if rec != nil {
			continue
		}
		if s.r.store == nil || !s.r.store.Contains(want[i]) {
			return fanout{}, false
		}
		p.disk = append(p.disk, want[i])
	}
	if p.delta {
		p.open = transport.Frame{Key: v.head.Key, Payload: v.manifest, Meta: make(map[string]string, len(v.head.Meta))}
		for k, mv := range v.head.Meta {
			p.open.Meta[k] = mv
		}
		p.open.Meta[transport.MetaChunkRole] = transport.ChunkRoleManifest
		p.open.Meta[transport.MetaChunkCount] = strconv.Itoa(len(want))
	}
	return p, true
}

// send fans one cached version out to the consumer under its plan
// (planFanout). Resident records go out from the snapshot; records that
// live only in the store are read through as the loop reaches them, one
// record ahead (readAhead), so nothing waits for a whole version to come
// off disk and nothing is added to the cache. A store read that fails
// once frames have left cannot be taken back: the consumer gets the
// off-stream notice (rejectReasonResend), drops its build as a group and
// turns to the staging copy, never installing a short stream.
//
// The borrow is the snapshot: v is immutable and the snapshot holds the
// resident payload slices themselves, so eviction, demotion or a
// same-vnum replacement concurrent with the fan-out changes nothing the
// loop reads — the consumer gets, bit for bit, the version that was
// picked. A newer complete version superseding v mid-stream still aborts
// the fan-out (latest-wins); the consumer's torn-stream handling copes
// with the cut, and the outer loop immediately starts on the newer
// version. Returns false when the connection is gone.
func (s *session) send(v *version, want []vformat.ChunkHash, recs [][]byte) bool {
	picked := s.r.clock.Now()
	p, ok := s.planFanout(v, want, recs)
	if !ok {
		// Abandon this fan-out; the session moves on to the next commit.
		lostByStore := v.stored && s.r.store != nil
		s.r.bump(func(st *Stats) {
			if lostByStore {
				st.StoreErrors++
			}
			st.AbandonedFanouts++
		})
		return true
	}
	var ra *readAhead
	if len(p.disk) > 0 {
		ra = s.startReadAhead(p.disk)
		defer ra.stop()
	}
	if s.link.Send(p.open) != nil {
		return false
	}
	if ra != nil {
		inst.readFirstByteMS.Observe(s.r.clock.Now().Sub(picked).Milliseconds())
	}
	for _, rec := range p.recs {
		if s.r.newestVnum(v.model) > v.vnum {
			s.r.bump(func(st *Stats) { st.AbandonedFanouts++ })
			return true
		}
		select {
		case <-s.done:
			return false
		case <-s.r.closed:
			return false
		default:
		}
		if rec == nil {
			var err error
			if rec, err = ra.next(); err != nil {
				s.r.bump(func(st *Stats) {
					st.StoreErrors++
					if errors.Is(err, chunkstore.ErrCorrupt) {
						st.CorruptChunks++
					}
					st.AbandonedFanouts++
				})
				return s.link.Send(rejectFrame(rejectReasonResend, v.model, strconv.FormatUint(v.vnum, 10))) == nil
			}
		}
		if s.link.Send(chunkFrame(v.head, rec)) != nil {
			return false
		}
	}
	s.r.bump(func(st *Stats) {
		st.ServedVersions++
		if p.delta {
			st.DeltaFanouts++
		}
	})
	return true
}

// readAhead reads a fan-out's on-disk records in the order the send loop
// wants them, one record ahead of it, alternating between the session's
// two buffers. The hand-off is unbuffered and the loop takes a record
// only after it has sent the previous one (TCPLink.Send has written the
// payload when it returns), so by the time a hand-off completes the other
// buffer is free to be overwritten. The reader stops at the first failed
// read, after handing the error over.
type readAhead struct {
	out   chan diskRecord
	quit  chan struct{}
	done  chan struct{}
	taken int
}

type diskRecord struct {
	rec []byte
	err error
}

// startReadAhead starts reading disk in order. The caller must stop the
// reader on every path.
func (s *session) startReadAhead(disk []vformat.ChunkHash) *readAhead {
	ra := &readAhead{out: make(chan diskRecord), quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(ra.done)
		for i, h := range disk {
			buf := &s.readBufs[i%len(s.readBufs)]
			rec, err := s.r.store.ReadChunk(h, *buf)
			if err == nil {
				*buf = rec // a buffer that had to grow stays grown
			}
			select {
			case ra.out <- diskRecord{rec, err}:
			case <-ra.quit:
				return
			}
			if err != nil {
				return
			}
		}
	}()
	return ra
}

// next returns the next record; the slice is the reader's again once the
// following call returns. Having to wait for any record but the first
// means the store, not the link, is what the fan-out is waiting for.
func (ra *readAhead) next() ([]byte, error) {
	ra.taken++
	select {
	case d := <-ra.out:
		return d.rec, d.err
	default:
	}
	if ra.taken > 1 {
		inst.readAheadWaits.Inc()
	}
	d := <-ra.out
	return d.rec, d.err
}

// stop ends the reader and waits for it: once it returns no read is in
// flight, so no segment is pinned and the buffers are idle.
func (ra *readAhead) stop() {
	close(ra.quit)
	<-ra.done
}

// VersionInfo is one cached version's inventory entry.
type VersionInfo struct {
	// Model is the model name.
	Model string `json:"model"`
	// Version is the checkpoint version.
	Version uint64 `json:"version"`
	// Key is the frame key the version travels under.
	Key string `json:"key"`
	// Chunks is the chunk-frame count.
	Chunks int `json:"chunks"`
	// Bytes is the logical payload size across all frames (what a full
	// fan-out of this version ships).
	Bytes int64 `json:"bytes"`
	// Deduped is how many of the version's chunks were already resident
	// in the content-addressed store when it arrived (cross-version
	// dedup).
	Deduped int `json:"deduped"`
	// Delta reports whether the version was ingested as a
	// manifest+missing delta stream rather than a full push.
	Delta bool `json:"delta"`
	// Hashes lists the version's per-chunk content hashes (hex, chunk
	// order).
	Hashes []string `json:"hashes,omitempty"`
	// Stored reports whether the version is persisted in the relay's
	// durable chunk store (and so survives a relay restart).
	Stored bool `json:"stored,omitempty"`
}

// Inventory snapshots the cache, sorted by model then version.
func (r *Relay) Inventory() []VersionInfo {
	r.mu.Lock()
	inv := make([]VersionInfo, 0, 8)
	for _, mc := range r.models {
		for _, v := range mc.versions {
			vi := VersionInfo{
				Model: v.model, Version: v.vnum, Key: v.key,
				Chunks: len(v.hashes), Bytes: v.bytes,
				Deduped: v.deduped, Delta: v.delta, Stored: v.stored,
			}
			for _, h := range v.hashes {
				vi.Hashes = append(vi.Hashes, h.String())
			}
			inv = append(inv, vi)
		}
	}
	r.mu.Unlock()
	sort.Slice(inv, func(i, j int) bool {
		if inv[i].Model != inv[j].Model {
			return inv[i].Model < inv[j].Model
		}
		return inv[i].Version < inv[j].Version
	})
	return inv
}

// FetchInventory dials a relay's ingest address and retrieves its
// cached version inventory.
func FetchInventory(addr string) ([]VersionInfo, error) {
	link, err := transport.DialTCP(addr)
	if err != nil {
		return nil, err
	}
	defer link.Close()
	if err := link.Send(transport.Frame{Key: InventoryKey}); err != nil {
		return nil, fmt.Errorf("relay: inventory request: %w", err)
	}
	f, err := link.Recv()
	if err != nil {
		return nil, fmt.Errorf("relay: inventory reply: %w", err)
	}
	if f.Key != InventoryKey {
		return nil, fmt.Errorf("relay: unexpected inventory reply key %q", f.Key)
	}
	var inv []VersionInfo
	if err := json.Unmarshal(f.Payload, &inv); err != nil {
		return nil, fmt.Errorf("relay: inventory payload: %w", err)
	}
	return inv, nil
}

// MetricsSnapshots syncs this relay's counters into the registry and
// snapshots every metrics registry in the process (transport, relay,
// remote, pubsub, kvstore — whichever are linked in). This is the
// payload of the MetricsKey exchange.
func (r *Relay) MetricsSnapshots() []metrics.Snapshot {
	r.mu.Lock()
	r.syncMetricsLocked()
	r.mu.Unlock()
	return metrics.AllSnapshots()
}

// FetchMetrics dials a relay's ingest address and retrieves the node's
// metrics snapshots (viper-top's data source).
func FetchMetrics(addr string) ([]metrics.Snapshot, error) {
	link, err := transport.DialTCP(addr)
	if err != nil {
		return nil, err
	}
	defer link.Close()
	if err := link.Send(transport.Frame{Key: MetricsKey}); err != nil {
		return nil, fmt.Errorf("relay: metrics request: %w", err)
	}
	f, err := link.Recv()
	if err != nil {
		return nil, fmt.Errorf("relay: metrics reply: %w", err)
	}
	if err := RejectionError(f); err != nil {
		return nil, err
	}
	if f.Key != MetricsKey {
		return nil, fmt.Errorf("relay: unexpected metrics reply key %q", f.Key)
	}
	var snaps []metrics.Snapshot
	if err := json.Unmarshal(f.Payload, &snaps); err != nil {
		return nil, fmt.Errorf("relay: metrics payload: %w", err)
	}
	return snaps, nil
}

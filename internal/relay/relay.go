// Package relay implements Viper's caching fan-out tier: a standalone
// node between one producer and N consumers that makes producer-side
// publish cost independent of the consumer count (the paper's §6
// multi-consumer broadcast, grown into a delivery layer of its own).
//
// The producer pushes each version's chunked v2 stream to the relay
// exactly once (remote.ProducerConfig.RelayAddr); the relay keeps the
// encoded chunk records — it never decodes checkpoint payloads — and fans
// them out to every connected consumer over the unchanged consumer wire
// protocol, so remote.Consumer works against a relay serve address
// exactly as it does against a producer's direct-link address. Each
// consumer session has independent progress; a newly completed version
// supersedes an in-flight fan-out of an older one (latest-wins, the
// consumer's torn-stream machinery absorbs the cut); and late joiners are
// served the newest complete version straight from the relay, without any
// producer involvement. Only each model's newest version is kept in
// memory, records and all: a store-backed relay demotes the version it
// supersedes to a disk shell, a memory-only one lets it go.
//
// Every record is filed under a key (vformat.ChunkHash). A stream whose
// sender reconciles (the transport.MetaReconcile tag) and every delta
// stream are keyed by content hash; an untagged stream's records get keys
// unique to their build and are never hashed, so they never dedup and
// always fan out whole. Nothing in it is balanced by hand: a committed
// version is an immutable value that sessions read without a lock, and an
// ingest build owns its records until commit (DESIGN §11). The content
// hashes drive delta distribution in both directions. Upstream, the relay
// advertises a committed version's hashes to the producer
// (transport.HaveKey), which then pushes the next version as a manifest
// frame plus only the records the relay lacks; the relay fills the rest
// from the model's newest version or the store, and recovers what neither
// has with a need-list (transport.NeedKey) back to the producer, so an
// admitted delta stream always commits whole or not at all. Downstream, a
// consumer session that advertised its own have-list is served
// manifest+missing deltas the same way, and its need-lists are answered
// from the version the session fanned out, then from the store.
//
// When a version's stream completes, the relay records relay-served
// metadata in the KV store and republishes the model's update channel,
// so notification flow and discovery work even if the producer dies
// right after its push.
//
// The package is cut by concern: catalogue.go is the committed state and
// the one lock that guards it, ingest.go the producer side up to commit,
// serve.go the consumer sessions, admin.go the inventory and metrics
// endpoints; this file holds configuration, statistics, lifecycle and the
// bridge to the durable store.
package relay

import (
	"crypto/rand"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"

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

// registry is the package's metrics surface. Every Relay in the process
// feeds its counters (a relay's own are parented to them, see Stats);
// the gauges are set where the state they report changes, by whichever
// node changed last. cache_bytes and unique_chunks describe the catalogue:
// the bytes of the records each model's newest version holds plus every
// catalogued header, and the number of those records. A build still
// arriving is its connection's own and shows in neither until it commits.
var registry = metrics.NewRegistry("relay")

// Metrics returns the package's metrics registry.
func Metrics() *metrics.Registry { return registry }

// The instruments no Stats field reports.
var (
	readAheadWaits    = registry.Counter("read_ahead_waits")
	readFirstByteMS   = registry.Histogram("read_through_first_byte_ms") // a session picked a version with records on disk → its first frame was written
	cacheBytesGauge   = registry.Gauge("cache_bytes")
	openSessionsGauge = registry.Gauge("open_sessions")
	modelsGauge       = registry.Gauge("models")
	uniqueChunksGauge = registry.Gauge("unique_chunks")
)

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
	// Retry bounds the metadata client's retries; its clock also stamps
	// synthesized metadata. The zero value selects retry.Default over
	// the wall clock.
	Retry retry.Policy
	// IngestWrap, if set, decorates each accepted ingest connection
	// (fault injection hooks in here).
	IngestWrap func(net.Conn) net.Conn
	// ServeWrap, if set, decorates each accepted consumer connection.
	ServeWrap func(net.Conn) net.Conn
	// StoreDir, when set, attaches a durable chunkstore rooted at the
	// directory: every committed version is persisted, a superseded
	// version stays catalogued as a disk shell whose records read through
	// from the store, and a restarted relay rehydrates its whole inventory
	// instead of waking empty; history depth is governed by
	// StoreRetention. Without a store the relay catalogues only each
	// model's newest version.
	StoreDir string
	// StoreRetention bounds the attached store's on-disk history (zero
	// values keep everything).
	StoreRetention chunkstore.Retention
	// StoreSegmentBytes overrides the store's segment rotation
	// threshold (0 selects the chunkstore default; mainly for tests).
	StoreSegmentBytes int64
}

// Stats counts relay activity. Each field is a view of the relay's own
// counter of that event, which also feeds the registry counter its tag
// names (the sum over every relay in the process). The counters move
// independently, so a read is not a consistent cut; an event that moves
// several moves the one observers wait on last (internal/metrics).
type Stats struct {
	// IngestFrames counts frames received on the ingest side.
	IngestFrames int64 `metric:"ingest_frames"`
	// CachedVersions counts version streams that completed and entered
	// the cache. It moves after everything else a commit counts.
	CachedVersions int64 `metric:"cached_versions"`
	// SupersededBuilds counts partial streams replaced by a newer
	// stream's header before completing.
	SupersededBuilds int64 `metric:"superseded_builds"`
	// AbandonedBuilds counts partial streams dropped because their
	// ingest connection died.
	AbandonedBuilds int64 `metric:"abandoned_builds"`
	// CorruptChunks counts chunk records rejected by CRC verification
	// (the whole pending version is dropped).
	CorruptChunks int64 `metric:"corrupt_chunks"`
	// StrayFrames counts frames that belonged to no pending stream.
	StrayFrames int64 `metric:"stray_frames"`
	// Sessions counts consumer connections accepted.
	Sessions int64 `metric:"sessions_total"`
	// ServedVersions counts complete version fan-outs to one consumer.
	ServedVersions int64 `metric:"served_versions"`
	// AbandonedFanouts counts fan-outs cut short because a newer
	// version completed mid-stream (latest-wins).
	AbandonedFanouts int64 `metric:"abandoned_fanouts"`
	// MetaErrors counts failed metadata writes / notifications.
	MetaErrors int64 `metric:"meta_errors"`
	// ReleasedVersions counts versions that left the catalogue: superseded
	// on a relay without a store, retired by the store's retention, or
	// replaced by a re-push.
	ReleasedVersions int64 `metric:"released_versions"`
	// DedupedChunks counts positions of committed versions whose key the
	// model's previous newest version held (manifest prefills and
	// identical records alike).
	DedupedChunks int64 `metric:"deduped_chunks"`
	// DeltaVersions counts versions committed from a manifest (delta)
	// ingest stream.
	DeltaVersions int64 `metric:"delta_versions"`
	// DeltaFanouts counts fan-outs served as manifest+missing deltas
	// against a consumer's advertised have-list.
	DeltaFanouts int64 `metric:"delta_fanouts"`
	// NeedResends counts need-lists exchanged to recover chunks a
	// have-list advertised but the holder no longer has: requests the
	// relay sent upstream plus requests it answered for consumers.
	NeedResends int64 `metric:"need_resends"`
	// StoredVersions counts committed versions persisted to the
	// attached chunkstore.
	StoredVersions int64 `metric:"stored_versions"`
	// HydratedVersions counts catalog entries rebuilt from the attached
	// chunkstore at startup.
	HydratedVersions int64 `metric:"hydrated_versions"`
	// DemotedVersions counts versions whose memory residency was
	// released while their catalog entry stayed serveable from disk.
	DemotedVersions int64 `metric:"demoted_versions"`
	// StoreErrors counts failed chunkstore writes and reads (the relay
	// keeps serving from memory when the disk tier misbehaves).
	StoreErrors int64 `metric:"store_errors"`
}

// counters are one relay's event counters, named field for field after
// the tagged fields of Stats (metrics.Bind).
type counters struct {
	IngestFrames, CachedVersions, SupersededBuilds, AbandonedBuilds, CorruptChunks,
	StrayFrames, Sessions, ServedVersions, AbandonedFanouts, MetaErrors,
	ReleasedVersions, DedupedChunks, DeltaVersions, DeltaFanouts, NeedResends,
	StoredVersions, HydratedVersions, DemotedVersions, StoreErrors metrics.Counter
}

// The registry lists every counter from start-up, before any relay runs.
func init() { metrics.Bind[Stats](registry, new(counters)) }

// Relay is a running relay node.
type Relay struct {
	cat   *catalogue
	n     counters
	kv    *kvstore.Client
	ps    *pubsub.Client
	clock simclock.Clock
	store *chunkstore.Store

	ingestLn *transport.Listener
	serveLn  *transport.Listener

	wg     sync.WaitGroup
	closed chan struct{}
	once   sync.Once

	// life guards the registries of live connections, which Close sweeps.
	// It is never held together with the catalogue's lock.
	life     sync.Mutex
	ingests  map[*transport.TCPLink]struct{}
	sessions map[*session]struct{}

	// keySalt and builds name the records of untagged builds (recordKey):
	// a salt drawn at random when the relay starts, so no two relays — one
	// and the next started on its store directory included — name records
	// alike, and a count of this relay's untagged builds, whose keys do not
	// repeat before 2^32 of them.
	keySalt [8]byte
	builds  atomic.Uint32
}

// New binds the ingest and serve listeners, connects to the metadata
// and notification services (when configured), and starts serving.
func New(cfg Config) (*Relay, error) {
	pol := cfg.Retry
	if pol.MaxAttempts == 0 {
		pol = retry.Default(nil)
	}
	r := &Relay{
		cat:      newCatalogue(),
		clock:    pol.ClockOrWall(),
		closed:   make(chan struct{}),
		ingests:  make(map[*transport.TCPLink]struct{}),
		sessions: make(map[*session]struct{}),
	}
	if _, err := rand.Read(r.keySalt[:]); err != nil {
		return nil, fmt.Errorf("relay: key salt: %w", err)
	}
	metrics.Bind[Stats](registry, &r.n)
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
		// Hydrate before the accept goroutines exist: the first consumer
		// already sees the full recovered inventory.
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

// Close stops both listeners, tears down every connection, and waits
// for all relay goroutines to exit.
func (r *Relay) Close() {
	r.once.Do(func() {
		close(r.closed)
		r.ingestLn.Close()
		r.serveLn.Close()
		r.life.Lock()
		links := make([]*transport.TCPLink, 0, len(r.ingests))
		for l := range r.ingests {
			links = append(links, l)
		}
		sess := make([]*session, 0, len(r.sessions))
		for s := range r.sessions {
			sess = append(sess, s)
		}
		r.life.Unlock()
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

// IngestAddr returns the bound producer-push address.
func (r *Relay) IngestAddr() string { return r.ingestLn.Addr() }

// ServeAddr returns the bound consumer-link address.
func (r *Relay) ServeAddr() string { return r.serveLn.Addr() }

// Stats returns this relay's counters. It takes no lock and flushes
// nothing: the registry already has every event the counters have.
func (r *Relay) Stats() Stats { return metrics.View[Stats](&r.n) }

// hydrateFromStore rebuilds the catalogue from the attached store's
// recovered inventory. Versions come back as header-resident shells —
// the records stay on disk and are read through on demand. Hydration
// never announces: the KV/notify state either already reflects these
// versions or the producer's next push refreshes it.
func (r *Relay) hydrateFromStore() {
	for _, model := range r.store.Models() {
		var shells []*version
		for _, vn := range r.store.Versions(model) {
			m, ok := r.store.Meta(model, vn)
			if !ok {
				r.n.StoreErrors.Inc()
				continue
			}
			shells = append(shells, r.versionFromStore(m))
		}
		r.cat.hydrate(model, shells)
		r.n.HydratedVersions.Add(int64(len(shells)))
	}
}

// versionFromStore builds the catalogue shell for a store-backed version:
// only the header frame is resident.
func (r *Relay) versionFromStore(m chunkstore.VersionMeta) *version {
	head := transport.Frame{Key: m.Key, Payload: m.Header, Meta: map[string]string{
		"model":                  m.Model,
		"version":                strconv.FormatUint(m.Version, 10),
		transport.MetaChunkRole:  transport.ChunkRoleHeader,
		transport.MetaChunkCount: strconv.Itoa(len(m.Hashes)),
	}}
	return &version{
		model: m.Model, vnum: m.Version, key: m.Key,
		bytes: m.Bytes, stored: true,
		head:   head,
		hashes: m.Hashes,
		meta: &core.ModelMeta{
			Name: m.Model, Version: m.Version, Path: m.Key,
			Size: m.Bytes, Format: "vchunk", SavedAt: m.SavedAt,
			Location: core.RouteRelay, Relay: r.ServeAddr(),
		},
	}
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
		r.n.StoreErrors.Inc()
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
		r.n.StoreErrors.Inc()
		return
	}
	v.stored = true
	r.n.StoredVersions.Inc()
}

// storeVersions is the set of model's versions the store holds (nil
// without a store), snapshotted for catalogue.insert.
func (r *Relay) storeVersions(model string) map[uint64]bool {
	if r.store == nil {
		return nil
	}
	has := make(map[uint64]bool)
	for _, vn := range r.store.Versions(model) {
		has[vn] = true
	}
	return has
}

// resolve returns the record bytes of hashes in order, whole: v's own
// where v — a version the caller holds, nil for none — lists the key
// (a record's bytes carry its index, so a content key can only match at
// its own position), else a read through the durable store into a buffer
// of its own (the caller may keep it). A chunk in neither — or one the
// store could not read back — leaves a nil entry and counts as
// unresolved. This is the eager form, for the handful of records a
// need-list or a delta prefill asks for; a version fan-out streams its
// read-through instead (session.send).
func (r *Relay) resolve(v *version, hashes []vformat.ChunkHash) (recs [][]byte, unresolved int) {
	held := make(map[vformat.ChunkHash][]byte, len(hashes))
	if v != nil {
		for i, rec := range v.recs {
			held[v.hashes[i]] = rec
		}
	}
	recs = make([][]byte, len(hashes))
	for i, h := range hashes {
		if recs[i] = held[h]; recs[i] != nil {
			continue
		}
		if r.store != nil {
			if got, err := r.store.ReadChunk(h, nil); err == nil {
				recs[i] = got
				continue
			}
		}
		unresolved++
	}
	return recs, unresolved
}

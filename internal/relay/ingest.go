package relay

import (
	"encoding/binary"
	"encoding/json"
	"strconv"

	"viper/internal/chunkstore"
	"viper/internal/core"
	"viper/internal/metrics"
	"viper/internal/transport"
	"viper/internal/vformat"
)

// record is one verified chunk record in a build: the key it is filed
// under (recordKey, chosen once, on arrival) and the bytes.
type record struct {
	key     vformat.ChunkHash
	payload []byte
}

// hashedRecords counts the records the ingest goroutines content-hashed:
// one per record of a tagged full stream or a delta stream, none on an
// untagged stream (TestGateUntaggedIngestHashesNothing).
var hashedRecords = registry.Counter("ingest_hashed_records")

// hashRecord is the one content hash the ingest side computes per record
// it keys by content.
func hashRecord(rec []byte) vformat.ChunkHash {
	hashedRecords.Inc()
	return vformat.HashChunkRecord(rec)
}

// recordKey names the record at pos of a full stream's build b: by its
// content hash on a tagged stream — its keys dedup, are advertised
// upstream and are what a delta stream or a consumer's have-list names —
// and, on an untagged one, by the relay's salt, the build's number and
// pos. No SHA-256 is computed for those: the stream's sender never
// reconciles, so nothing would ever compare its hashes. The key is unique
// to the build, never just to (model, version, pos): a version is
// re-pushed with new bytes under its own number, and the store, which
// dedups by key, must not take its records for the old ones.
func (r *Relay) recordKey(b *building, pos int, rec []byte) vformat.ChunkHash {
	if b.v.reconcile {
		return hashRecord(rec)
	}
	for b.build == 0 {
		b.build = r.builds.Add(1)
	}
	var k vformat.ChunkHash
	copy(k[:], r.keySalt[:])
	binary.LittleEndian.PutUint32(k[8:], b.build)
	binary.LittleEndian.PutUint32(k[12:], uint32(pos))
	return k
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
	// build numbers an untagged build's record keys, drawn at its first
	// record (recordKey); 0 until then and on a build keyed by content.
	build uint32
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
		r.life.Lock()
		select {
		case <-r.closed:
			r.life.Unlock()
			link.Close()
			return
		default:
		}
		r.ingests[link] = struct{}{}
		r.life.Unlock()
		r.wg.Add(1)
		go r.handleIngest(link)
	}
}

// readIngest is the first ingest stage: it pulls frames off the link
// (socket read, allocation, frame CRC) and queues them for handleIngest,
// at most transport.ReadAhead ahead of it.
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
// assembles version streams frame by frame — verify, key, store append —
// and commits them to the catalogue as they complete. All per-connection
// state, the builds' records included, lives on this goroutine, which
// takes the catalogue's lock once per version (insert) and for a delta
// build's prefill, never per frame. Partial streams die with the
// connection (the producer's staging fallback covers the loss).
func (r *Relay) handleIngest(link *transport.TCPLink) {
	defer r.wg.Done()
	frames := make(chan transport.Frame, transport.ReadAhead)
	r.wg.Add(1)
	go r.readIngest(link, frames)
	pending := make(map[string]*building)
	defer func() {
		// Closing the link fails the reader's Recv; draining frames frees
		// it if it was parked on a full queue, and ends when it has exited.
		link.Close()
		for range frames {
		}
		for _, b := range pending {
			b.abandon()
		}
		r.life.Lock()
		delete(r.ingests, link)
		r.life.Unlock()
		// Last: whoever sees the count move finds the handles aborted.
		r.n.AbandonedBuilds.Add(int64(len(pending)))
	}()
	for f := range frames {
		r.n.IngestFrames.Inc()
		switch f.Key {
		case InventoryKey:
			payload, err := json.Marshal(r.Inventory())
			if err != nil || link.Send(transport.Frame{Key: InventoryKey, Payload: payload}) != nil {
				return
			}
		case MetricsKey:
			payload, err := json.Marshal(metrics.AllSnapshots())
			if err != nil || link.Send(transport.Frame{Key: MetricsKey, Payload: payload}) != nil {
				return
			}
		default:
			r.handleFrame(link, f, pending)
		}
	}
}

// handleFrame routes one ingest frame into the per-connection stream
// assembly state.
func (r *Relay) handleFrame(link *transport.TCPLink, f transport.Frame, pending map[string]*building) {
	model := f.Meta["model"]
	if model == "" {
		r.n.StrayFrames.Inc()
		return
	}
	switch {
	case transport.IsChunkHeader(f) || transport.IsManifestHeader(f):
		want, err := strconv.Atoi(f.Meta[transport.MetaChunkCount])
		// Versions count from 1, here as in every other layer: a header
		// numbered 0 — the tag absent or unparsable — opens nothing.
		vnum, verr := strconv.ParseUint(f.Meta["version"], 10, 64)
		if err != nil || want < 0 || verr != nil || vnum == 0 {
			r.n.StrayFrames.Inc()
			return
		}
		if old := pending[model]; old != nil {
			delete(pending, model)
			old.abandon()
			r.n.SupersededBuilds.Inc()
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
		b := pending[model]
		if b == nil || f.Key != b.v.key {
			r.n.StrayFrames.Inc()
			return
		}
		if !vformat.VerifyChunkRecord(f.Payload) {
			// One corrupt chunk poisons the whole version: drop the
			// build rather than cache (and fan out) a stream consumers
			// would reject chunk-by-chunk.
			delete(pending, model)
			b.abandon()
			r.n.CorruptChunks.Inc()
			return
		}
		r.addRecord(link, f, b, pending)
	default:
		// Neither a stream header nor a chunk record: nothing the relay
		// caches, stores or serves.
		r.n.StrayFrames.Inc()
	}
}

// startDeltaBuild opens a build from a manifest frame: the version's
// hash list comes from the manifest (so it is bounded by the payload),
// positions whose chunks the relay already has are prefilled — from the
// model's newest version, or read through from the store — and only the
// rest wait on record frames. Prefilled records go to the build's store
// handle like received ones — dedupe hits there, which pin the entries
// until the version commits. A manifest that prefills completely commits
// on the spot; one whose sender will push nothing (want == 0) but that
// still has gaps — the producer planned against a have-list of a version
// the relay no longer has — asks for the gaps immediately.
func (r *Relay) startDeltaBuild(link *transport.TCPLink, f transport.Frame, model string, vnum uint64, want int, pending map[string]*building) {
	man, err := vformat.ParseManifest(f.Payload)
	if err != nil {
		r.n.CorruptChunks.Inc()
		return
	}
	hf := reopen(f, man.Header, transport.ChunkRoleHeader, len(man.Hashes))
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
	// Whatever the relay already has covers its position now — the newest
	// version's records taken, demoted ones read through from the store —
	// so a delta push right after a restart (or against a demoted shell)
	// completes without a need-list round trip. A record taken from the
	// newest version stays covered when that version is demoted before
	// this build commits: the build has the slice.
	recs, _ := r.resolve(r.cat.newest(model), man.Hashes)
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

// addRecord folds one verified chunk record into its build — keying it
// once (a delta record by its content hash, which the manifest names; a
// full stream's by recordKey) and appending it to the durable store; the
// catalogue lock is not taken — and commits the version once every
// position is covered. A full-stream record whose index is past the
// announced count, or already covered, is a stray. On a delta build that
// received every announced record and still has gaps, the missing hashes
// are requested from the producer (the relay let them go after
// advertising).
func (r *Relay) addRecord(link *transport.TCPLink, f transport.Frame, b *building, pending map[string]*building) {
	var h vformat.ChunkHash
	var pos int
	if b.v.delta {
		h = hashRecord(f.Payload)
		p, ok := b.missing[h]
		if !ok {
			// A record the manifest does not miss (duplicate or stale):
			// drop it, it covers nothing.
			b.got++
			r.n.StrayFrames.Inc()
			r.maybeNeed(link, b)
			return
		}
		delete(b.missing, h)
		pos = p
	} else {
		pos = transport.ChunkRecordIndex(f.Payload)
		if _, dup := b.recs[pos]; dup || pos < 0 || pos >= b.size {
			r.n.StrayFrames.Inc()
			return
		}
		h = r.recordKey(b, pos, f.Payload)
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
	r.n.NeedResends.Inc()
	link.Send(transport.NewNeedFrame(b.v.key, need))
}

// commit publishes a finished build: it completes the version (the last
// writes the object ever sees), makes it durable, and enters it into the
// catalogue (catalogue.insert, which also wakes every consumer session).
// After that it advertises the version's chunk hashes upstream (so the
// producer can push the next version as a delta), and — when the version
// is the model's newest — records relay-served metadata and republishes
// the update channel.
func (r *Relay) commit(link *transport.TCPLink, b *building) {
	v := b.v
	// Every position is covered, so b.size records really arrived: this is
	// the first allocation the announced count sizes. The version's logical
	// size is the header plus every record.
	v.recs = make([][]byte, b.size)
	if !v.delta {
		v.hashes = make([]vformat.ChunkHash, b.size)
	}
	v.bytes = int64(len(v.head.Payload))
	for pos, rc := range b.recs {
		v.recs[pos], v.hashes[pos] = rc.payload, rc.key
		v.bytes += int64(len(rc.payload))
	}
	v.meta = r.metaFor(v)
	// Persist before the catalogue insert: once consumers can discover the
	// version its durability status is already settled, and the store's
	// own retention has run so the delegation in insert sees fresh state.
	// The store's version set is snapshotted here, not under the
	// catalogue's lock: the call can wait behind another connection's
	// fsync, and every serve session needs that lock. A version retired in
	// the gap leaves the catalogue at the next commit. There is no handle
	// without a store, for a build whose appends already failed (and were
	// counted), and for a version with no chunks, which has nothing to
	// make durable: those stay memory-only.
	if b.w != nil {
		r.persistVersion(v, b.w)
	}
	deduped, released, demoted, newest := r.cat.insert(v, r.storeVersions(v.model))
	r.n.DedupedChunks.Add(int64(deduped))
	r.n.ReleasedVersions.Add(int64(released))
	r.n.DemotedVersions.Add(int64(demoted))
	if v.delta {
		r.n.DeltaVersions.Inc()
	}
	r.n.CachedVersions.Inc() // last: observers wait on it
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
		r.n.MetaErrors.Inc()
		return
	}
	if r.kv != nil {
		if err := r.kv.Set(core.MetaKey(v.model), encoded); err != nil {
			r.n.MetaErrors.Inc()
		}
	}
	if r.ps != nil {
		if _, err := r.ps.Publish(core.UpdateChannel(v.model), encoded); err != nil {
			r.n.MetaErrors.Inc()
		}
	}
}

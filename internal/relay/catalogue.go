package relay

import (
	"sort"
	"sync"

	"viper/internal/core"
	"viper/internal/transport"
	"viper/internal/vformat"
)

// chunkEntry is one resident chunk record: the encoded record bytes
// (index, span, payload, CRC — exactly as a producer sent them) and how
// often the versions of the resident window list its key. payload is a
// GC-owned slice, immutable from the moment it is entered, so whoever
// copied the slice header out under the lock may keep reading it after the
// entry is gone. listed is written by enterWindow and leaveWindow and
// nowhere else.
type chunkEntry struct {
	payload []byte
	listed  int
}

// version is one catalogued (model, version): its header frame plus the
// ordered keys of its records — their content hashes when the version is
// keyed by content (reconcile; recordKey). It is an immutable value: the
// build that gathered it fills every field before insert enters it into
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
	reconcile bool  // sender is delta-capable: keyed by content, hashes advertised back (false on a hydrated shell)
	stored    bool  // persisted in (or hydrated from) the attached chunkstore
	meta      *core.ModelMeta
}

// modelCache is one model's catalogue, ascending by vnum. versions[lo:]
// is the resident window — at most retained versions, each listed in the
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

// catalogue is what the relay has committed — every model's versions and
// the chunk table, which is a function of them: it counts, per hash, how
// often the versions of the resident windows list it, and only a version
// entering or leaving a window moves a count (DESIGN §9). mu guards every
// field below it and nothing else; only the methods in this file touch
// them. No method calls the store, sends on a link or records a statistic
// under mu: what the caller counts is returned to it. cacheBytes is the
// resident payloads plus every catalogued header. wake is closed and
// replaced by every insert.
type catalogue struct {
	retained int

	mu         sync.Mutex
	models     map[string]*modelCache
	chunks     map[vformat.ChunkHash]*chunkEntry
	cacheBytes int64
	wake       chan struct{}
}

func newCatalogue(retained int) *catalogue {
	return &catalogue{
		retained: retained,
		models:   make(map[string]*modelCache),
		chunks:   make(map[vformat.ChunkHash]*chunkEntry),
		wake:     make(chan struct{}),
	}
}

// setGauges publishes the catalogue's levels (c.mu held): the gauges are
// set here, where the state they report changes, by whichever node in the
// process changed last.
func (c *catalogue) setGauges() {
	cacheBytesGauge.Set(c.cacheBytes)
	modelsGauge.Set(int64(len(c.models)))
	uniqueChunksGauge.Set(int64(len(c.chunks)))
}

// hydrate enters model's store-backed versions, ascending, as disk shells:
// only their headers are resident, all of them below the window.
func (c *catalogue) hydrate(model string, shells []*version) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, v := range shells {
		c.cacheBytes += int64(len(v.head.Payload))
	}
	c.models[model] = &modelCache{versions: shells, lo: len(shells)}
	c.setGauges()
}

// enterWindow lists a version that joins the resident window in the chunk
// table (c.mu held): every position raises its hash's count, and a hash
// the table did not know becomes resident with the build's copy recs[i].
// It returns how many positions found their record already resident — the
// version's dedup count; the build's duplicate bytes are dropped here.
func (c *catalogue) enterWindow(hashes []vformat.ChunkHash, recs [][]byte) (deduped int) {
	for i, h := range hashes {
		e := c.chunks[h]
		if e == nil {
			e = &chunkEntry{payload: recs[i]}
			c.chunks[h] = e
			c.cacheBytes += int64(len(recs[i]))
		} else {
			deduped++
		}
		e.listed++
	}
	return deduped
}

// leaveWindow is the inverse (c.mu held), for a version that leaves the
// window — evicted, demoted to a disk shell, or replaced by a re-push:
// every position lowers its hash's count and a chunk nobody in the window
// lists any more leaves the table. The payload slice itself is not
// touched: a fan-out that snapshotted it keeps it alive and intact.
func (c *catalogue) leaveWindow(hashes []vformat.ChunkHash) {
	for _, h := range hashes {
		e := c.chunks[h]
		if e.listed--; e.listed == 0 {
			delete(c.chunks, h)
			c.cacheBytes -= int64(len(e.payload))
		}
	}
}

// insert enters a finished version — recs its records by position — into
// the chunk table and the catalogue, slides the model's resident window
// and wakes every parked session, all under one acquisition of mu.
// storeHas is the set of the model's versions the store holds (nil without
// a store): retention is delegated to it, so a version that falls out of
// the window stays catalogued as a disk shell while the store has it and
// leaves entirely otherwise. It returns what the caller counts: chunks of
// v that were already resident, versions that left the catalogue, versions
// demoted to shells, and whether v is now the model's newest.
func (c *catalogue) insert(v *version, recs [][]byte, storeHas map[uint64]bool) (deduped, released, demoted int, newest bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	mc := c.models[v.model]
	if mc == nil {
		mc = &modelCache{}
		c.models[v.model] = mc
	}
	// v is listed before anything leaves, so what it shares with a version
	// it replaces or pushes out is counted as dedup and never re-entered.
	// Only the header is charged to the cache beyond the chunk table.
	deduped = c.enterWindow(v.hashes, recs)
	v.deduped = deduped
	c.cacheBytes += int64(len(v.head.Payload))
	// Insert sorted by version; a re-pushed version replaces its entry. The
	// replaced object is only unlisted: a session still fanning it out
	// serves on from its snapshot.
	i := sort.Search(len(mc.versions), func(i int) bool { return mc.versions[i].vnum >= v.vnum })
	if i < len(mc.versions) && mc.versions[i].vnum == v.vnum {
		old := mc.versions[i]
		if i >= mc.lo {
			c.leaveWindow(old.hashes)
		}
		c.cacheBytes -= int64(len(old.head.Payload))
		released++
	} else {
		mc.versions = append(mc.versions, nil)
		copy(mc.versions[i+1:], mc.versions[i:])
		if i < mc.lo {
			mc.lo++
		}
	}
	mc.versions[i] = v
	// Slide the window: it is the newest retained versions above the disk
	// shells. What is listed right now is the old window plus v (which may
	// have landed among the shells); whatever of that falls below the new
	// edge is unlisted and then shares the shells' fate.
	lo := len(mc.versions) - c.retained
	if lo < mc.lo {
		lo = mc.lo
	}
	kept := make([]*version, 0, len(mc.versions))
	for j, old := range mc.versions[:lo] {
		listed := j >= mc.lo || old == v
		if listed {
			c.leaveWindow(old.hashes)
		}
		if !old.stored || !storeHas[old.vnum] {
			c.cacheBytes -= int64(len(old.head.Payload))
			released++
			continue
		}
		if listed {
			demoted++
		}
		kept = append(kept, old)
	}
	mc.lo = len(kept)
	mc.versions = append(kept, mc.versions[lo:]...)
	c.setGauges()
	// Close-and-replace, so every session holding the old channel observes
	// the commit.
	close(c.wake)
	c.wake = make(chan struct{})
	return deduped, released, demoted, mc.newest() == v
}

// plan snapshots where the records of hashes — leaving out the ones in
// skip (a consumer's have-set) — can be served from (c.mu held): want
// lists them in order and recs holds each one's resident payload, nil
// where the chunk table has none (the record is then on disk, or nowhere).
// The snapshot holds the payload slices themselves, which are immutable
// and GC-owned, so it stays readable after the lock drops whatever the
// catalogue does next.
func (c *catalogue) plan(hashes []vformat.ChunkHash, skip map[vformat.ChunkHash]bool) (want []vformat.ChunkHash, recs [][]byte) {
	want = make([]vformat.ChunkHash, 0, len(hashes))
	recs = make([][]byte, 0, len(hashes))
	for _, h := range hashes {
		if skip[h] {
			continue
		}
		var rec []byte
		if e := c.chunks[h]; e != nil {
			rec = e.payload
		}
		want = append(want, h)
		recs = append(recs, rec)
	}
	return want, recs
}

// resolve returns the resident record bytes of hashes, in order; nil
// where the chunk table has none.
func (c *catalogue) resolve(hashes []vformat.ChunkHash) [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, recs := c.plan(hashes, nil)
	return recs
}

// next finds a model whose newest complete version is ahead of what the
// session already fanned out and returns it with the snapshot of where
// its records — the ones not in have, the session's advertised set — can
// be served from (plan). The snapshot is taken under the same lock
// acquisition that picked v, so there is no window between pick and
// borrow: whatever the catalogue does to v next, the session serves the
// version it picked. When there is no such version v is nil and wake is
// the channel the next insert closes — read under the very acquisition
// that found nothing, so an insert that lands after the lookup closes the
// channel the session then parks on: none is missed.
func (c *catalogue) next(sent map[string]uint64, have map[vformat.ChunkHash]bool) (v *version, want []vformat.ChunkHash, recs [][]byte, wake <-chan struct{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for model, mc := range c.models {
		if v := mc.newest(); v != nil && v.vnum > sent[model] {
			want, recs = c.plan(v.hashes, have)
			return v, want, recs, nil
		}
	}
	return nil, nil, nil, c.wake
}

// newestVnum returns the newest catalogued version number for model (0 if
// none).
func (c *catalogue) newestVnum(model string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if mc := c.models[model]; mc != nil {
		if v := mc.newest(); v != nil {
			return v.vnum
		}
	}
	return 0
}

// inventory lists every catalogued version, sorted by model then version.
func (c *catalogue) inventory() []VersionInfo {
	c.mu.Lock()
	inv := make([]VersionInfo, 0, 8)
	for _, mc := range c.models {
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
	c.mu.Unlock()
	sort.Slice(inv, func(i, j int) bool {
		if inv[i].Model != inv[j].Model {
			return inv[i].Model < inv[j].Model
		}
		return inv[i].Version < inv[j].Version
	})
	return inv
}

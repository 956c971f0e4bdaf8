package relay

import (
	"sort"
	"sync"

	"viper/internal/core"
	"viper/internal/transport"
	"viper/internal/vformat"
)

// version is one catalogued (model, version): its header frame, the
// ordered keys of its records — their content hashes when the version is
// keyed by content (reconcile; recordKey) — and, while it is its model's
// newest, the records themselves by position (exactly as a producer sent
// them: index, span, payload, CRC). It is an immutable value: the build
// that gathered it fills every field before insert enters it into the
// catalogue, and nothing is written afterwards — demotion puts a copy
// without recs in its place, and eviction and same-vnum replacement only
// remove the catalogue's pointer — so a session that picked it reads
// head, hashes and recs with no lock, whatever the catalogue does next.
// A shell (recs nil) has its records in the store.
type version struct {
	model     string
	vnum      uint64
	key       string
	head      transport.Frame // the stream's header frame
	hashes    []vformat.ChunkHash
	recs      [][]byte
	bytes     int64 // logical payload size (header + every record)
	deduped   int   // positions whose key the model's previous newest version held
	delta     bool  // ingested as manifest+missing rather than a full stream
	reconcile bool  // sender is delta-capable: keyed by content, hashes advertised back (false on a hydrated shell)
	stored    bool  // persisted in (or hydrated from) the attached chunkstore
	meta      *core.ModelMeta
}

// held is what v charges to the cache: its header, and its records when
// it holds them.
func (v *version) held() int64 {
	if v.recs == nil {
		return int64(len(v.head.Payload))
	}
	return v.bytes
}

// modelCache is one model's catalogue, ascending by vnum. Only the newest
// version may hold records; every other one is a disk shell (store-backed
// relays only) whose records read through from the store.
type modelCache struct {
	versions []*version
}

func (mc *modelCache) newest() *version {
	if len(mc.versions) == 0 {
		return nil
	}
	return mc.versions[len(mc.versions)-1]
}

// catalogue is what the relay has committed: every model's versions. mu
// guards every field below it and nothing else; only the methods in this
// file touch them. No method calls the store, sends on a link or records a
// statistic under mu: what the caller counts is returned to it. cacheBytes
// is the newest versions' records plus every catalogued header. wake is
// closed and replaced by every insert.
type catalogue struct {
	mu         sync.Mutex
	models     map[string]*modelCache
	cacheBytes int64
	wake       chan struct{}
}

func newCatalogue() *catalogue {
	return &catalogue{
		models: make(map[string]*modelCache),
		wake:   make(chan struct{}),
	}
}

// setGauges publishes the catalogue's levels (c.mu held): the gauges are
// set here, where the state they report changes, by whichever node in the
// process changed last.
func (c *catalogue) setGauges() {
	records := 0
	for _, mc := range c.models {
		records += len(mc.newest().recs)
	}
	cacheBytesGauge.Set(c.cacheBytes)
	modelsGauge.Set(int64(len(c.models)))
	uniqueChunksGauge.Set(int64(records))
}

// hydrate enters model's store-backed versions, ascending, as disk shells:
// only their headers are resident.
func (c *catalogue) hydrate(model string, shells []*version) {
	if len(shells) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, v := range shells {
		c.cacheBytes += v.held()
	}
	c.models[model] = &modelCache{versions: shells}
	c.setGauges()
}

// insert enters a finished version, records and all, into the catalogue
// and wakes every parked session, under one acquisition of mu. Only the
// model's newest version keeps its records: every other one becomes a disk
// shell while the store holds it (storeHas, the store's set of the model's
// versions; nil without a store) and leaves the catalogue otherwise. It
// returns what the caller counts: positions of v whose key the model's
// previous newest version held, versions that left the catalogue, versions
// demoted to shells, and whether v is now the model's newest.
func (c *catalogue) insert(v *version, storeHas map[uint64]bool) (deduped, released, demoted int, newest bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	mc := c.models[v.model]
	if mc == nil {
		mc = &modelCache{}
		c.models[v.model] = mc
	}
	if prev := mc.newest(); prev != nil {
		for i, h := range v.hashes {
			if i < len(prev.hashes) && prev.hashes[i] == h {
				deduped++
			}
		}
	}
	v.deduped = deduped
	c.cacheBytes += v.held()
	// Insert sorted by version; a re-pushed version replaces its entry. The
	// replaced object is only unlisted: a session still fanning it out
	// serves on from it.
	i := sort.Search(len(mc.versions), func(i int) bool { return mc.versions[i].vnum >= v.vnum })
	if i < len(mc.versions) && mc.versions[i].vnum == v.vnum {
		c.cacheBytes -= mc.versions[i].held()
		released++
	} else {
		mc.versions = append(mc.versions, nil)
		copy(mc.versions[i+1:], mc.versions[i:])
	}
	mc.versions[i] = v
	// Everything below the newest — the one it superseded, or v itself when
	// it landed among the shells — is demoted to a shell the store backs or
	// leaves. The list is rebuilt rather than filtered in place, so no
	// released version stays reachable from a stale tail.
	top := mc.newest()
	kept := make([]*version, 0, len(mc.versions))
	for _, old := range mc.versions[:len(mc.versions)-1] {
		if !old.stored || !storeHas[old.vnum] {
			c.cacheBytes -= old.held()
			released++
			continue
		}
		if old.recs != nil {
			shell := *old
			shell.recs = nil
			c.cacheBytes -= old.held() - shell.held()
			old = &shell
			demoted++
		}
		kept = append(kept, old)
	}
	mc.versions = append(kept, top)
	c.setGauges()
	// Close-and-replace, so every session holding the old channel observes
	// the commit.
	close(c.wake)
	c.wake = make(chan struct{})
	return deduped, released, demoted, top == v
}

// next finds a model whose newest complete version is ahead of the one
// the session last fanned out (sent, by model) and returns it; the
// session reads it with no lock from here on. When there is no such
// version v is nil and wake is the channel the next insert closes — read
// under the very acquisition that found nothing, so an insert that lands
// after the lookup closes the channel the session then parks on: none is
// missed.
func (c *catalogue) next(sent map[string]*version) (v *version, wake <-chan struct{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for model, mc := range c.models {
		v := mc.newest()
		if s := sent[model]; s == nil || v.vnum > s.vnum {
			return v, nil
		}
	}
	return nil, c.wake
}

// newest returns model's newest catalogued version (nil if none).
func (c *catalogue) newest(model string) *version {
	c.mu.Lock()
	defer c.mu.Unlock()
	if mc := c.models[model]; mc != nil {
		return mc.newest()
	}
	return nil
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

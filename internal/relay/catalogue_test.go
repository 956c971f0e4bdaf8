package relay

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"viper/internal/transport"
	"viper/internal/vformat"
)

// check recomputes, under c.mu, what the chunk table must be from the
// catalogue alone and compares: every chunk's count is the number of
// times the resident windows' versions list its key (so no chunk sits at
// zero and no listed key is absent), a key some content-keyed version
// lists still hashes to its payload and any other key is listed exactly
// once (an untagged build's keys are its own), cacheBytes is the resident
// payloads plus every catalogued header, every window fits retained, and
// only store-backed versions sit below one. It holds whenever c.mu is
// free — a session frozen mid-fan-out or a build half arrived changes
// nothing it reads — so tests call it at any point, on a live relay's
// catalogue and on a bare one.
func (c *catalogue) check(hasStore bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	listed := make(map[vformat.ChunkHash]int)
	byContent := make(map[vformat.ChunkHash]bool)
	var bytes int64
	for model, mc := range c.models {
		if mc.lo < 0 || mc.lo > len(mc.versions) || len(mc.versions)-mc.lo > c.retained {
			return fmt.Errorf("model %q: window [%d:%d] with Retained %d", model, mc.lo, len(mc.versions), c.retained)
		}
		for i, v := range mc.versions {
			if i > 0 && mc.versions[i-1].vnum >= v.vnum {
				return fmt.Errorf("model %q: catalogue not ascending at v%d", model, v.vnum)
			}
			bytes += int64(len(v.head.Payload))
			switch {
			case i >= mc.lo:
				for _, h := range v.hashes {
					listed[h]++
					byContent[h] = byContent[h] || v.reconcile
				}
			case !v.stored || !hasStore:
				return fmt.Errorf("model %q: v%d is below the window but not in a store", model, v.vnum)
			}
		}
	}
	for h, e := range c.chunks {
		if e.listed != listed[h] || e.listed == 0 {
			return fmt.Errorf("chunk %s: count %d, the windows list it %d times", h, e.listed, listed[h])
		}
		switch {
		case byContent[h] && vformat.HashChunkRecord(e.payload) != h:
			return fmt.Errorf("chunk %s: resident payload does not hash to its content key", h)
		case !byContent[h] && e.listed != 1:
			return fmt.Errorf("chunk %s: no content-keyed version lists it, and %d positions do", h, e.listed)
		}
		bytes += int64(len(e.payload))
	}
	if len(c.chunks) != len(listed) {
		return fmt.Errorf("%d chunks resident, the windows list %d distinct hashes", len(c.chunks), len(listed))
	}
	if c.cacheBytes != bytes {
		return fmt.Errorf("cacheBytes %d, resident payloads + catalogued headers are %d", c.cacheBytes, bytes)
	}
	return nil
}

// residentChunks is the size of the chunk table.
func (c *catalogue) residentChunks() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.chunks)
}

// catalogueModel drives a bare catalogue — no sockets, no store, no
// goroutines — through seeded inserts and keeps the little it needs to
// say what the catalogue must answer: the newest records, and which
// versions a store with MaxVersions retention would still hold.
type catalogueModel struct {
	t        *testing.T
	c        *catalogue
	keys     Relay // names the records of untagged pushes (recordKey)
	rng      *rand.Rand
	stored   bool // versions are store-backed; the store keeps the newest storeKeeps
	recs     [][]byte
	pushed   map[uint64]bool // every vnum pushed so far
	nextVnum uint64
	// borrowedRecs is a snapshot a "session" took with next and still
	// reads; borrowedCopy the bytes it held when taken.
	borrowedRecs, borrowedCopy [][]byte
}

const storeKeeps = 4

// storeHas is what a store with MaxVersions storeKeeps holds after vnum
// was committed to it.
func (m *catalogueModel) storeHas() map[uint64]bool {
	if !m.stored {
		return nil
	}
	var vnums []uint64
	for vn := range m.pushed {
		vnums = append(vnums, vn)
	}
	sort.Slice(vnums, func(i, j int) bool { return vnums[i] > vnums[j] })
	has := make(map[uint64]bool)
	for _, vn := range vnums[:min(storeKeeps, len(vnums))] {
		has[vn] = true
	}
	return has
}

// push inserts vnum with records that mostly repeat the previous push's
// (so versions share chunks), keyed as ingest keys them — by content
// when the push is tagged, by build otherwise — and checks what insert
// reports.
func (m *catalogueModel) push(vnum uint64) {
	recs := make([][]byte, len(m.recs))
	copy(recs, m.recs)
	for i := 0; i < 1+m.rng.Intn(3); i++ {
		rec := make([]byte, 16+m.rng.Intn(48))
		m.rng.Read(rec)
		recs[m.rng.Intn(len(recs))] = rec
	}
	m.recs = recs
	v := &version{
		model: "m", vnum: vnum, stored: m.stored, reconcile: m.rng.Intn(2) == 0,
		head: transport.Frame{Payload: make([]byte, 8+m.rng.Intn(8))},
	}
	b := &building{v: v}
	hashes := make([]vformat.ChunkHash, len(recs))
	for i, rec := range recs {
		hashes[i] = m.keys.recordKey(b, i, rec)
	}
	v.hashes = hashes
	before := m.c.resolve(hashes)
	wasNewest := m.c.newestVnum("m")
	m.pushed[vnum] = true
	deduped, _, _, newest := m.c.insert(v, recs, m.storeHas())
	want := 0
	seen := make(map[vformat.ChunkHash]bool)
	for i, h := range hashes {
		if before[i] != nil || seen[h] {
			want++
		}
		seen[h] = true
	}
	if deduped != want || v.deduped != want || (!v.reconcile && deduped != 0) {
		m.t.Fatalf("v%d (tagged %v): insert counted %d deduped chunks, %d were resident", vnum, v.reconcile, deduped, want)
	}
	if newest != (vnum >= wasNewest) {
		m.t.Fatalf("v%d inserted over newest v%d: newest=%v", vnum, wasNewest, newest)
	}
}

func (m *catalogueModel) step() {
	switch op := m.rng.Intn(8); {
	case m.nextVnum == 1 || op <= 2:
		m.push(m.nextVnum)
		m.nextVnum++
	case op == 3:
		m.push(m.c.newestVnum("m")) // same-vnum replacement
	case op == 4:
		m.push(1 + uint64(m.rng.Int63n(int64(m.nextVnum-1)))) // an older one, maybe among the shells
	case op == 5:
		m.nextVnum += 2 // a gap: versions skipped by latest-wins
		m.push(m.nextVnum - 1)
	case op == 6:
		// A session picks the newest version; what it borrowed stays
		// readable whatever is inserted next.
		v, _, recs, _ := m.c.next(map[string]uint64{}, nil)
		if v == nil || v.vnum != m.c.newestVnum("m") {
			m.t.Fatalf("next picked %v, newest is v%d", v, m.c.newestVnum("m"))
		}
		m.borrowedRecs, m.borrowedCopy = recs, make([][]byte, len(recs))
		for i, rec := range recs {
			if rec == nil {
				m.t.Fatalf("newest v%d: record %d is not resident", v.vnum, i)
			}
			m.borrowedCopy[i] = bytes.Clone(rec)
		}
	default:
		// A caught-up session parks: it gets the channel the next insert
		// closes.
		_, _, _, wake := m.c.next(map[string]uint64{"m": m.c.newestVnum("m")}, nil)
		m.push(m.nextVnum)
		m.nextVnum++
		select {
		case <-wake:
		default:
			m.t.Fatal("an insert did not wake a parked session")
		}
	}
	for i, rec := range m.borrowedRecs {
		if !bytes.Equal(rec, m.borrowedCopy[i]) {
			m.t.Fatalf("borrowed record %d changed under the session", i)
		}
	}
}

// TestCatalogueModel is the seeded insert / replace / evict / demote
// sequence on the bare type: 10 000 steps, the invariants after each.
func TestCatalogueModel(t *testing.T) {
	for _, stored := range []bool{false, true} {
		for seed := int64(1); seed <= 5; seed++ {
			t.Run(fmt.Sprintf("store=%v/seed=%d", stored, seed), func(t *testing.T) {
				m := &catalogueModel{
					t: t, c: newCatalogue(2), rng: rand.New(rand.NewSource(seed)),
					stored: stored, pushed: make(map[uint64]bool), nextVnum: 1,
					recs: make([][]byte, 8),
				}
				for i := range m.recs {
					m.recs[i] = []byte{byte(seed), byte(i)}
				}
				for i := 0; i < 1000; i++ {
					m.step()
					if err := m.c.check(stored); err != nil {
						t.Fatalf("seed %d step %d: %v", seed, i, err)
					}
				}
				inv := m.c.inventory()
				if newest := m.c.newestVnum("m"); len(inv) == 0 || inv[len(inv)-1].Version != newest {
					t.Fatalf("inventory ends at %+v, newest is v%d", inv[len(inv)-1], newest)
				}
				if !stored && len(inv) > 2 {
					t.Fatalf("%d versions catalogued without a store, Retained is 2", len(inv))
				}
				if stored && len(inv) > storeKeeps {
					t.Fatalf("%d versions catalogued, the store keeps %d", len(inv), storeKeeps)
				}
			})
		}
	}
}

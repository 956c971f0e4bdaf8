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

// check recomputes, under c.mu, what the catalogue must be and
// compares: every model's versions ascend; only a model's newest version
// holds records, one per position; a content-keyed version's records hash
// to their keys; every other version — and a newest one without records —
// is a store-backed shell; and cacheBytes is the records held plus every
// catalogued header. It holds whenever c.mu is free — a session frozen
// mid-fan-out or a build half arrived changes nothing it reads — so tests
// call it at any point, on a live relay's catalogue and on a bare one.
func (c *catalogue) check(hasStore bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var bytes int64
	for model, mc := range c.models {
		if len(mc.versions) == 0 {
			return fmt.Errorf("model %q: catalogued without a version", model)
		}
		for i, v := range mc.versions {
			if i > 0 && mc.versions[i-1].vnum >= v.vnum {
				return fmt.Errorf("model %q: catalogue not ascending at v%d", model, v.vnum)
			}
			bytes += int64(len(v.head.Payload))
			switch {
			case v.recs == nil:
				if !v.stored || !hasStore {
					return fmt.Errorf("model %q: v%d holds no records and is not in a store", model, v.vnum)
				}
				continue
			case v != mc.newest():
				return fmt.Errorf("model %q: v%d holds records below the newest, v%d", model, v.vnum, mc.newest().vnum)
			case len(v.recs) != len(v.hashes):
				return fmt.Errorf("model %q: v%d holds %d records for %d positions", model, v.vnum, len(v.recs), len(v.hashes))
			}
			for j, rec := range v.recs {
				switch {
				case rec == nil:
					return fmt.Errorf("model %q: v%d holds no record at position %d", model, v.vnum, j)
				case v.reconcile && vformat.HashChunkRecord(rec) != v.hashes[j]:
					return fmt.Errorf("model %q: v%d's record %d does not hash to its content key", model, v.vnum, j)
				}
				bytes += int64(len(rec))
			}
		}
	}
	if c.cacheBytes != bytes {
		return fmt.Errorf("cacheBytes %d, records held + catalogued headers are %d", c.cacheBytes, bytes)
	}
	return nil
}

// residentChunks is the number of records the catalogue holds.
func (c *catalogue) residentChunks() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, mc := range c.models {
		n += len(mc.newest().recs)
	}
	return n
}

// residentOf counts the keys of hashes under which a catalogued version
// holds a record.
func (c *catalogue) residentOf(hashes []vformat.ChunkHash) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	held := make(map[vformat.ChunkHash]bool)
	for _, mc := range c.models {
		v := mc.newest()
		for i := range v.recs {
			held[v.hashes[i]] = true
		}
	}
	n := 0
	for _, h := range hashes {
		if held[h] {
			n++
		}
	}
	return n
}

// newestVnum is the number of model's newest catalogued version (0 if
// none).
func (c *catalogue) newestVnum(model string) uint64 {
	if v := c.newest(model); v != nil {
		return v.vnum
	}
	return 0
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
	// borrowedRecs are the records of the version a "session" picked with
	// next and still reads; borrowedCopy the bytes they held when picked.
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
		recs: recs,
	}
	v.bytes = int64(len(v.head.Payload))
	b := &building{v: v}
	hashes := make([]vformat.ChunkHash, len(recs))
	for i, rec := range recs {
		hashes[i] = m.keys.recordKey(b, i, rec)
		v.bytes += int64(len(rec))
	}
	v.hashes = hashes
	want := 0
	if prev := m.c.newest("m"); prev != nil {
		for i, h := range hashes {
			if prev.hashes[i] == h {
				want++
			}
		}
	}
	wasNewest := m.c.newestVnum("m")
	m.pushed[vnum] = true
	deduped, _, _, newest := m.c.insert(v, m.storeHas())
	if deduped != want || v.deduped != want || (!v.reconcile && deduped != 0) {
		m.t.Fatalf("v%d (tagged %v): insert counted %d deduped positions, the previous newest held %d", vnum, v.reconcile, deduped, want)
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
		// A session picks the newest version, which holds its records;
		// they stay readable whatever is inserted next.
		v, _ := m.c.next(map[string]*version{})
		if v == nil || v.vnum != m.c.newestVnum("m") || v.recs == nil {
			m.t.Fatalf("next picked %v, newest is v%d with its records", v, m.c.newestVnum("m"))
		}
		m.borrowedRecs, m.borrowedCopy = v.recs, make([][]byte, len(v.recs))
		for i, rec := range v.recs {
			m.borrowedCopy[i] = bytes.Clone(rec)
		}
	default:
		// A caught-up session parks: it gets the channel the next insert
		// closes.
		_, wake := m.c.next(map[string]*version{"m": m.c.newest("m")})
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
					t: t, c: newCatalogue(), rng: rand.New(rand.NewSource(seed)),
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
				if !stored && len(inv) != 1 {
					t.Fatalf("%d versions catalogued without a store, want only the newest", len(inv))
				}
				if stored && len(inv) > storeKeeps {
					t.Fatalf("%d versions catalogued, the store keeps %d", len(inv), storeKeeps)
				}
			})
		}
	}
}

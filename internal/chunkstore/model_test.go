package chunkstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"viper/internal/faults"
	"viper/internal/simclock"
	"viper/internal/vformat"
)

// opGate is the clock of a fault injector whose every op is "delayed":
// the delay is nothing, except that the one op that follows arm parks
// inside it until release — for ReadChunk that is after the segment is
// pinned and before it is read, outside the store's lock.
type opGate struct {
	simclock.Clock
	mu      sync.Mutex
	armed   bool
	entered chan struct{}
	resume  chan struct{}
}

func newOpGate() *opGate {
	return &opGate{Clock: simclock.NewWall(), entered: make(chan struct{}), resume: make(chan struct{})}
}

func (g *opGate) Sleep(time.Duration) {
	g.mu.Lock()
	armed := g.armed
	g.armed = false
	g.mu.Unlock()
	if armed {
		g.entered <- struct{}{}
		<-g.resume
	}
}

// hold runs op on a goroutine of its own and returns once it is parked at
// the gate; the returned func lets it go and waits for it to finish.
func (g *opGate) hold(op func()) (release func()) {
	g.mu.Lock()
	g.armed = true
	g.mu.Unlock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		op()
	}()
	<-g.entered
	return func() {
		g.resume <- struct{}{}
		<-done
	}
}

// gated returns injector settings that route every op through g.
func (g *opGate) gated(cfg faults.Config) faults.Config {
	cfg.DelayRate, cfg.Delay, cfg.Clock = 1, time.Nanosecond, g
	return cfg
}

// recordPool returns n distinct valid chunk records (each over 1 KiB, so
// with 512-byte segments every record rotates into a segment of its own)
// and the keys to append them under: the content hash of every even one,
// a key unrelated to the bytes for every odd one — the store indexes the
// key it was given, at append and after any reopen, and never derives one.
func recordPool(t *testing.T, n int) (recs [][]byte, hashes []vformat.ChunkHash) {
	t.Helper()
	for seed := int64(500); len(recs) < n; seed++ {
		err := vformat.WalkChunkRecords(testBlob(t, seed, 512, 1), func(rec []byte) error {
			if len(recs) < n {
				h := vformat.HashChunkRecord(rec)
				if len(recs)%2 == 1 {
					h = otherKey("pool", len(recs))
				}
				recs = append(recs, append([]byte(nil), rec...))
				hashes = append(hashes, h)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return recs, hashes
}

// modelHandle is one open Writer in the model run and the version it is
// building.
type modelHandle struct {
	w       *Writer
	model   string
	version uint64
	plan    []int // record-pool indices, in order
	done    int   // how many of plan are appended
}

// modelRun drives one store through a seeded random schedule of
// interleaved write handles, retires, GCs and injected crashes, checking
// it against an in-memory reference after every catalog change.
type modelRun struct {
	t      *testing.T
	rng    *rand.Rand
	dir    string
	opts   Options
	s      *Store
	recs   [][]byte
	hashes []vformat.ChunkHash

	ref     map[string]map[uint64][]byte // committed versions → expected LoadVersion bytes
	nextVer map[string]uint64
	open    []*modelHandle
	crashes int

	gate *opGate
	held *heldRead // the read parked between its pin and its pread, if any
	// reads counts ReadChunk outcomes: hits, misses, and held reads that
	// returned after the version holding their record was gone.
	hits, misses, outlived int
	// loadFaults counts LoadVersion calls that failed on an injected read
	// fault and returned nothing.
	loadFaults int
}

// heldRead is one ReadChunk parked at the gate.
type heldRead struct {
	idx     int // record-pool index
	release func()
	got     []byte
	err     error
	crashed bool // the store it reads from was killed while it was parked
}

const modelKeep = 3 // Retention.MaxVersions in the model run

func (m *modelRun) reopen() {
	m.opts.Injector = faults.New(m.gate.gated(faults.Config{Seed: m.rng.Int63(), FailRate: 0.03, SkipFirst: 3}))
	m.s = mustOpen(m.t, m.dir, m.opts)
}

// mustHold reports whether the store owes a hit for pool record i: a
// committed version or an open handle's appended prefix includes it.
func (m *modelRun) mustHold(i int) bool {
	for _, versions := range m.ref {
		for _, want := range versions {
			if bytes.Contains(want, m.recs[i]) {
				return true
			}
		}
	}
	for _, h := range m.open {
		for _, j := range h.plan[:h.done] {
			if j == i {
				return true
			}
		}
	}
	return false
}

// checkRead judges one ReadChunk result for pool record i: the exact
// stored bytes, a miss or an injected read fault — never other bytes, a
// checksum failure, or a miss of a record the store owes.
func (m *modelRun) checkRead(when string, i int, owed bool, got []byte, err error) {
	m.t.Helper()
	switch {
	case err == nil:
		if !bytes.Equal(got, m.recs[i]) {
			m.t.Fatalf("%s: ReadChunk(record %d) returned other bytes", when, i)
		}
		m.hits++
	case errors.Is(err, faults.ErrInjected):
	case errors.Is(err, ErrMissingChunk) && !owed:
		m.misses++
	default:
		m.t.Fatalf("%s: ReadChunk(record %d), owed = %v: %v", when, i, owed, err)
	}
}

// finishHeld lets the parked read go and judges it. Its segment was
// pinned when it parked, so unless the store was killed since, whatever
// was committed, retired, reclaimed and compacted around it, it returns
// the record.
func (m *modelRun) finishHeld() {
	m.t.Helper()
	h := m.held
	if h == nil {
		return
	}
	m.held = nil
	owed := m.mustHold(h.idx)
	h.release()
	switch {
	case h.crashed:
		if h.err == nil && !bytes.Equal(h.got, m.recs[h.idx]) {
			m.t.Fatalf("held read of record %d outlived a crash and returned other bytes", h.idx)
		}
	case errors.Is(h.err, ErrMissingChunk):
		m.t.Fatalf("held read of record %d missed: its pinned segment was reclaimed under it", h.idx)
	default:
		m.checkRead("held read", h.idx, true, h.got, h.err)
		if h.err == nil && !owed {
			m.outlived++
		}
	}
}

// want builds the bytes LoadVersion must return for a version made of
// the given pool records.
func (m *modelRun) want(header []byte, plan []int) []byte {
	out := append([]byte(nil), header...)
	for _, i := range plan {
		out = append(out, m.recs[i]...)
	}
	return out
}

// victims lists the versions of model that retention retires when it
// keeps the newest modelKeep of the reference's versions plus extra
// (0 = none).
func (m *modelRun) victims(model string, extra uint64) []uint64 {
	var vs []uint64
	if extra != 0 {
		vs = append(vs, extra)
	}
	for v := range m.ref[model] {
		vs = append(vs, v)
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	if len(vs) <= modelKeep {
		return nil
	}
	return vs[:len(vs)-modelKeep]
}

// retain applies the retention policy to the reference.
func (m *modelRun) retain(model string) {
	for _, v := range m.victims(model, 0) {
		delete(m.ref[model], v)
	}
}

// versionKey names one committed version.
type versionKey struct {
	model   string
	version uint64
}

// committed lists the reference's versions in a fixed order, so a
// seeded pick reproduces.
func (m *modelRun) committed() []versionKey {
	var out []versionKey
	for model, versions := range m.ref {
		for v := range versions {
			out = append(out, versionKey{model, v})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].model != out[j].model {
			return out[i].model < out[j].model
		}
		return out[i].version < out[j].version
	})
	return out
}

// check compares every version the store holds with the reference, both
// ways.
func (m *modelRun) check(when string) {
	m.t.Helper()
	for model, versions := range m.ref {
		for v, want := range versions {
			got, err := m.s.LoadVersion(model, v)
			for errors.Is(err, faults.ErrInjected) { // a read fault: no blob, and the store stays usable
				m.loadFaults++
				got, err = m.s.LoadVersion(model, v)
			}
			if err != nil {
				m.t.Fatalf("%s: LoadVersion %s v%d: %v", when, model, v, err)
			}
			if !bytes.Equal(got, want) {
				m.t.Fatalf("%s: %s v%d differs from the reference", when, model, v)
			}
		}
	}
	for _, model := range m.s.Models() {
		for _, v := range m.s.Versions(model) {
			if _, ok := m.ref[model][v]; !ok {
				m.t.Fatalf("%s: store holds %s v%d, the reference does not", when, model, v)
			}
		}
	}
	if st := m.s.Stats(); st.CorruptChunks != 0 {
		m.t.Fatalf("%s: CorruptChunks = %d", when, st.CorruptChunks)
	}
}

// crash handles an injected fault: the store died mid-op. Every open
// handle is abandoned, the directory is reopened, and the reference
// adopts whichever side of the interrupted op the disk landed on —
// maybeAdded (a commit whose record may or may not have become durable)
// and maybeGone (versions the op may or may not have retired) are the
// only differences allowed.
func (m *modelRun) crash(err error, maybeAdded *modelHandle, maybeGone map[string][]uint64) {
	m.t.Helper()
	if !errors.Is(err, faults.ErrInjected) {
		m.t.Fatalf("store op failed without an injected fault: %v", err)
	}
	m.crashes++
	m.open = nil
	if m.held != nil {
		m.held.crashed = true
	}
	m.s.Close()
	m.reopen()
	if h := maybeAdded; h != nil {
		if _, ok := m.s.Meta(h.model, h.version); ok {
			m.commitRef(h)
		}
	}
	for model, vs := range maybeGone {
		for _, v := range vs {
			if _, ok := m.s.Meta(model, v); !ok {
				delete(m.ref[model], v)
			}
		}
	}
	m.check("after crash recovery")
}

func (m *modelRun) commitRef(h *modelHandle) {
	if m.ref[h.model] == nil {
		m.ref[h.model] = make(map[uint64][]byte)
	}
	m.ref[h.model][h.version] = m.want(m.header(h), h.plan[:h.done])
}

func (m *modelRun) header(h *modelHandle) []byte {
	return []byte(fmt.Sprintf("header %s v%d", h.model, h.version))
}

func (m *modelRun) drop(h *modelHandle) {
	for i, o := range m.open {
		if o == h {
			m.open = append(m.open[:i], m.open[i+1:]...)
			return
		}
	}
}

func (m *modelRun) step() {
	switch op := m.rng.Intn(12); {
	case op == 10: // ReadChunk, start to finish
		i := m.rng.Intn(len(m.recs))
		owed := m.mustHold(i)
		got, err := m.s.ReadChunk(m.hashes[i], make([]byte, 0, m.rng.Intn(2)*len(m.recs[i])))
		m.checkRead("read", i, owed, got, err)
	case op == 11: // park a ReadChunk between its pin and its pread, or let the parked one go
		if m.held != nil {
			m.finishHeld()
			return
		}
		i := m.rng.Intn(len(m.recs))
		if !m.s.Contains(m.hashes[i]) {
			return
		}
		h, s := &heldRead{idx: i}, m.s
		h.release = m.gate.hold(func() { h.got, h.err = s.ReadChunk(m.hashes[i], nil) })
		m.held = h
	case op < 2 && len(m.open) < 4: // Begin
		model := []string{"a", "b"}[m.rng.Intn(2)]
		m.nextVer[model]++
		h := &modelHandle{w: m.s.Begin(), model: model, version: m.nextVer[model]}
		for n := 1 + m.rng.Intn(4); n > 0; n-- {
			// A small pool, so handles keep deduping against each
			// other's pending entries and against retired versions'.
			h.plan = append(h.plan, m.rng.Intn(len(m.recs)))
		}
		m.open = append(m.open, h)
	case op < 6 && len(m.open) > 0: // Append
		h := m.open[m.rng.Intn(len(m.open))]
		if h.done == len(h.plan) {
			return
		}
		i := h.plan[h.done]
		if err := h.w.Append(m.hashes[i], m.recs[i]); err != nil {
			m.crash(err, nil, nil)
			return
		}
		h.done++
	case op < 8 && len(m.open) > 0: // Commit (whatever prefix is appended)
		h := m.open[m.rng.Intn(len(m.open))]
		if h.done == 0 {
			return
		}
		m.drop(h)
		hashes := make([]vformat.ChunkHash, h.done)
		for j, i := range h.plan[:h.done] {
			hashes[j] = m.hashes[i]
		}
		// Never ErrMissingChunk: every hash was appended through this
		// handle, so it is pinned whatever the other handles did — crash
		// accepts an injected fault only.
		if err := h.w.Commit(h.model, h.version, "k", m.header(h), hashes); err != nil {
			m.crash(err, h, map[string][]uint64{h.model: m.victims(h.model, h.version)})
			return
		}
		m.commitRef(h)
		m.retain(h.model)
		m.check("after commit")
	case op == 8 && len(m.open) > 0: // Abort
		h := m.open[m.rng.Intn(len(m.open))]
		m.drop(h)
		h.w.Abort()
	default: // Retire or GC
		if c := m.committed(); len(c) > 0 && m.rng.Intn(2) == 0 {
			pick := c[m.rng.Intn(len(c))]
			if err := m.s.Retire(pick.model, pick.version); err != nil {
				m.crash(err, nil, map[string][]uint64{pick.model: {pick.version}})
				return
			}
			delete(m.ref[pick.model], pick.version)
			m.check("after retire")
			return
		}
		if err := m.s.GC(); err != nil {
			gone := make(map[string][]uint64)
			for model := range m.ref {
				gone[model] = m.victims(model, 0)
			}
			m.crash(err, nil, gone)
			return
		}
		for model := range m.ref {
			m.retain(model)
		}
		m.check("after GC")
	}
}

// TestWriterModel is the model check of the write handles: N handles
// doing random Begin/Append/Commit/Abort interleaved with Retire, GC and
// retention, every record in a segment of its own (so every pending
// entry sits in a sealed, reclaimable segment), the store killed at
// random fault taps and reopened. Every committed version must equal
// the in-memory reference at every step, no Commit may miss a chunk its
// handle appended — including one it only deduplicated against, dead or
// alive — and once every handle has finished, the bytes of aborted and
// abandoned handles must all have been reclaimed. ReadChunk steps run
// between the writes, some parked between their pin and their pread while
// the schedule goes on: a read returns the exact stored bytes, a miss of
// a record nothing references, or an injected fault — and a parked read's
// segment is neither deleted nor compacted until it returns. The version
// check itself loads through the read tap: a faulted load returns nothing
// and is repeated.
func TestWriterModel(t *testing.T) {
	recs, hashes := recordPool(t, 10)
	totalCrashes, hits, misses, outlived, loadFaults := 0, 0, 0, 0, 0
	for seed := int64(1); seed <= 12; seed++ {
		m := &modelRun{
			t: t, rng: rand.New(rand.NewSource(seed)), dir: t.TempDir(),
			opts:   Options{SegmentBytes: 512, Retention: Retention{MaxVersions: modelKeep}},
			recs:   recs,
			hashes: hashes,
			ref:    make(map[string]map[uint64][]byte), nextVer: make(map[string]uint64),
			gate: newOpGate(),
		}
		m.reopen()
		for i := 0; i < 400; i++ {
			m.step()
			// The store's count of open handles is the schedule's own: a
			// crash reopens the store and abandons them all.
			if n := m.s.Stats().OpenWriters; n != len(m.open) {
				t.Fatalf("seed %d step %d: OpenWriters = %d, the schedule holds %d handles", seed, i, n, len(m.open))
			}
		}
		m.finishHeld()
		for _, h := range m.open {
			h.w.Abort()
			h.w.Abort() // a second Abort is a no-op, for the count too
		}
		if n := m.s.Stats().OpenWriters; n != 0 {
			t.Fatalf("seed %d: OpenWriters = %d with every handle finished", seed, n)
		}
		m.s.mu.Lock()
		for _, seg := range m.s.segs {
			if seg.pins != 0 {
				t.Errorf("seed %d: segment %d keeps %d pins with every handle finished and every read returned", seed, seg.id, seg.pins)
			}
		}
		m.s.mu.Unlock()
		totalCrashes += m.crashes
		hits, misses, outlived = hits+m.hits, misses+m.misses, outlived+m.outlived
		loadFaults += m.loadFaults

		// With every handle finished, one fault-free put seals the last
		// segment and a GC reclaims: nothing dead may be left behind.
		m.s.Close()
		m.opts.Injector = nil
		m.s = mustOpen(t, m.dir, m.opts)
		m.check("final reopen")
		sentinel := testBlob(t, 900+seed, 256, 1)
		if err := m.s.PutBlob("sentinel", 1, "k", sentinel); err != nil {
			t.Fatalf("seed %d: sentinel put: %v", seed, err)
		}
		m.ref["sentinel"] = map[uint64][]byte{1: sentinel}
		if err := m.s.GC(); err != nil {
			t.Fatalf("seed %d: final GC: %v", seed, err)
		}
		for model := range m.ref {
			m.retain(model)
		}
		m.check("end")
		if st := m.s.Stats(); st.DeadBytes != 0 {
			t.Fatalf("seed %d: %d dead bytes survive after every handle finished (stats %+v)", seed, st.DeadBytes, st)
		}
		m.s.Close()
	}
	if totalCrashes == 0 {
		t.Fatal("no fault tap ever fired: the kill points were not exercised")
	}
	if hits == 0 || misses == 0 || outlived == 0 {
		t.Fatalf("reads: %d hits, %d misses, %d parked reads that outlived their record's last reference; the schedule must exercise all three", hits, misses, outlived)
	}
	if loadFaults == 0 {
		t.Fatal("no LoadVersion ever hit a read fault: its unpin-on-error path was not exercised")
	}
}

// TestPutBlobLeavesNoWriterOpen kills PutBlob at each of its fault taps in
// turn — every Append, then the commit — and refuses it a corrupt record
// and a blob that is not chunked: whichever way it returns, the handle it
// began is finished. A handle dropped on the floor is what the count is
// for: it shows, and stays until the handle is finished.
func TestPutBlobLeavesNoWriterOpen(t *testing.T) {
	blob := testBlob(t, 840, 512, 1)
	put := func(what string, inj *faults.Injector, blob []byte) error {
		t.Helper()
		s := mustOpen(t, t.TempDir(), Options{SegmentBytes: 512, Injector: inj})
		defer s.Close()
		err := s.PutBlob("m", 1, "k", blob)
		if n := s.Stats().OpenWriters; n != 0 {
			t.Fatalf("%s: PutBlob returned %v with %d write handles open", what, err, n)
		}
		return err
	}
	died := make(map[string]int)
	for skip := 0; ; skip++ {
		err := put(fmt.Sprintf("fault at op %d", skip), faults.New(faults.Config{Seed: 1, FailRate: 1, SkipFirst: skip}), blob)
		if err == nil {
			break // every op of the put was exempt
		}
		if !errors.Is(err, faults.ErrInjected) {
			t.Fatalf("fault at op %d: %v", skip, err)
		}
		died[err.Error()]++
	}
	if len(died) != 2 || died["chunkstore: "+faults.ErrInjected.Error()+": chunkstore/commit"] != 1 {
		t.Fatalf("PutBlob died at %v, want several appends and the one commit", died)
	}
	torn := append([]byte(nil), blob...)
	torn[len(torn)-9] ^= 0xFF // inside the last record's payload
	if err := put("corrupt record", nil, torn); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt record: %v", err)
	}
	if err := put("not chunked", nil, []byte("VPRF0001 lean")); !errors.Is(err, ErrNotChunked) {
		t.Fatalf("not chunked: %v", err)
	}

	s := mustOpen(t, t.TempDir(), Options{})
	defer s.Close()
	w := s.Begin()
	if n := s.Stats().OpenWriters; n != 1 {
		t.Fatalf("OpenWriters = %d with one handle begun and dropped", n)
	}
	w.Abort()
	if n := s.Stats().OpenWriters; n != 0 {
		t.Fatalf("OpenWriters = %d after the handle was aborted", n)
	}
}

// TestReadChunkHoldsNoLockAcrossTheRead parks one ReadChunk between its
// pin and its pread and runs a second read, a whole put (append, both
// fsyncs, commit) and a retire + reclaim to completion beside it: none of
// them may wait for the parked read, and the parked read still returns
// its record although the only version referencing it is gone.
func TestReadChunkHoldsNoLockAcrossTheRead(t *testing.T) {
	recs, hashes := recordPool(t, 2)
	gate := newOpGate()
	s := mustOpen(t, t.TempDir(), Options{
		SegmentBytes: 512,
		Injector:     faults.New(gate.gated(faults.Config{})),
	})
	defer s.Close()
	for i := range recs {
		w := s.Begin()
		if err := w.Append(hashes[i], recs[i]); err != nil {
			t.Fatal(err)
		}
		if err := w.Commit("m", uint64(i+1), "k", []byte("hdr"), hashes[i:i+1]); err != nil {
			t.Fatal(err)
		}
	}
	var got []byte
	var err error
	release := gate.hold(func() { got, err = s.ReadChunk(hashes[0], nil) })
	if other, oerr := s.ReadChunk(hashes[1], nil); oerr != nil || !bytes.Equal(other, recs[1]) {
		t.Fatalf("a second read beside the parked one: err = %v", oerr)
	}
	if perr := s.PutBlob("other", 1, "k", testBlob(t, 720, 256, 1)); perr != nil {
		t.Fatalf("a put beside the parked read: %v", perr)
	}
	if rerr := s.Retire("m", 1); rerr != nil {
		t.Fatalf("retiring the parked read's version: %v", rerr)
	}
	if !s.Contains(hashes[0]) {
		t.Fatal("the segment a read had pinned was reclaimed under it")
	}
	release()
	if err != nil || !bytes.Equal(got, recs[0]) {
		t.Fatalf("the parked read: err = %v, exact bytes = %v", err, bytes.Equal(got, recs[0]))
	}
	if gerr := s.GC(); gerr != nil {
		t.Fatal(gerr)
	}
	if s.Contains(hashes[0]) {
		t.Fatal("the record survived a reclaim pass after its last reader returned")
	}
}

// TestLoadVersionHoldsNoLockAcrossItsReads parks a LoadVersion between
// pinning the version's segments and its first pread and runs an Append and
// a Commit on another handle, a Contains and a retire + reclaim of the very
// version being loaded to completion beside it: none may wait for the
// parked load, and the load still returns the whole version. A read fault
// at any record's tap is an error — never a blob, short or otherwise — and
// neither outcome leaves a pin behind.
func TestLoadVersionHoldsNoLockAcrossItsReads(t *testing.T) {
	recs, hashes := recordPool(t, 3)
	gate := newOpGate()
	s := mustOpen(t, t.TempDir(), Options{
		SegmentBytes: 512,
		Injector:     faults.New(gate.gated(faults.Config{})),
	})
	defer s.Close()
	w := s.Begin()
	for i := range recs[:2] {
		if err := w.Append(hashes[i], recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit("m", 1, "k", []byte("hdr"), hashes[:2]); err != nil {
		t.Fatal(err)
	}
	want := append(append([]byte("hdr"), recs[0]...), recs[1]...)

	var got []byte
	var err error
	release := gate.hold(func() { got, err = s.LoadVersion("m", 1) })
	other := s.Begin()
	if aerr := other.Append(hashes[2], recs[2]); aerr != nil {
		t.Fatalf("an Append beside the parked load: %v", aerr)
	}
	if cerr := other.Commit("other", 1, "k", []byte("hdr"), hashes[2:]); cerr != nil {
		t.Fatalf("a Commit beside the parked load: %v", cerr)
	}
	if rerr := s.Retire("m", 1); rerr != nil {
		t.Fatalf("retiring the version being loaded: %v", rerr)
	}
	if !s.Contains(hashes[0]) || !s.Contains(hashes[1]) {
		t.Fatal("a segment the load had pinned was reclaimed under it")
	}
	release()
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("the parked load: err = %v, exact bytes = %v", err, bytes.Equal(got, want))
	}
	if gerr := s.GC(); gerr != nil {
		t.Fatal(gerr)
	}
	if s.Contains(hashes[0]) || s.Contains(hashes[1]) {
		t.Fatal("the version's records survived a reclaim pass after its last reader returned: a pin was left behind")
	}

	// The read fault: the first load's first tap passes and its second
	// fails, mid-blob; the second load fails at its first.
	blob := testBlob(t, 860, 512, 1)
	dir := t.TempDir()
	clean := mustOpen(t, dir, Options{})
	if err := clean.PutBlob("m", 1, "k", blob); err != nil {
		t.Fatal(err)
	}
	clean.Close()
	faulty := mustOpen(t, dir, Options{Injector: faults.New(faults.Config{Seed: 1, FailRate: 1, SkipFirst: 1})})
	defer faulty.Close()
	for range 2 {
		if got, err := faulty.LoadVersion("m", 1); !errors.Is(err, faults.ErrInjected) || got != nil {
			t.Fatalf("a load with a faulted read returned %d bytes, err = %v; want no blob and the injected error", len(got), err)
		}
	}
	faulty.mu.Lock()
	defer faulty.mu.Unlock()
	for _, seg := range faulty.segs {
		if seg.pins != 0 {
			t.Errorf("segment %d keeps %d pins after a faulted load", seg.id, seg.pins)
		}
	}
}

// TestWriterPinsDedupedDeadEntry: a handle that only deduplicated
// against an entry — here one no version references and whose appender
// has aborted — keeps it on disk until it finishes, and the entry is
// reclaimed once nobody pins it.
func TestWriterPinsDedupedDeadEntry(t *testing.T) {
	recs, hashes := recordPool(t, 2)
	s := mustOpen(t, t.TempDir(), Options{SegmentBytes: 512, Retention: Retention{MaxVersions: 1}})
	defer s.Close()

	w1, w2 := s.Begin(), s.Begin()
	if err := w1.Append(hashes[0], recs[0]); err != nil {
		t.Fatal(err)
	}
	if err := w2.Append(hashes[0], recs[0]); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.DedupedChunks != 1 {
		t.Fatalf("DedupedChunks = %d, want w2's append to dedupe against w1's pending entry", st.DedupedChunks)
	}
	w1.Abort()

	// Other writers commit, retire and reclaim; the entry's segment is
	// sealed, holds nothing live, and only w2's pin protects it.
	for v := uint64(1); v <= 2; v++ {
		if err := s.PutBlob("other", v, "k", testBlob(t, 700+int64(v), 256, v)); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Contains(hashes[0]) {
		t.Fatal("entry reclaimed while a handle that deduplicated against it was still open")
	}
	if err := w2.Commit("m", 1, "k", []byte("hdr"), hashes[:1]); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if got, err := s.LoadVersion("m", 1); err != nil || !bytes.Equal(got, append([]byte("hdr"), recs[0]...)) {
		t.Fatalf("LoadVersion after commit (err=%v)", err)
	}

	// An aborted handle's bytes go once their segment seals and the next
	// reclaim pass runs.
	w3 := s.Begin()
	if err := w3.Append(hashes[1], recs[1]); err != nil {
		t.Fatal(err)
	}
	w3.Abort()
	if err := w3.Append(hashes[1], recs[1]); !errors.Is(err, ErrWriterFinished) {
		t.Fatalf("Append on a finished handle: err = %v, want ErrWriterFinished", err)
	}
	if err := s.PutBlob("other", 3, "k", testBlob(t, 710, 256, 3)); err != nil {
		t.Fatal(err)
	}
	if s.Contains(hashes[1]) {
		t.Fatal("aborted handle's entry survived a reclaim pass after its segment sealed")
	}
}

// TestConcurrentWriters drives whole puts from several goroutines at
// once (run under -race): each keeps one version, so every commit
// retires, reclaims and compacts around the other writers' pending
// appends.
func TestConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SegmentBytes: 512, Retention: Retention{MaxVersions: 1}}
	s := mustOpen(t, dir, opts)
	const writers, versions = 4, 12
	last := make([][]byte, writers)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			model := fmt.Sprintf("m%d", g)
			for v := uint64(1); v <= versions; v++ {
				blob := testBlob(t, int64(1000*g)+int64(v), 512, v)
				if err := s.PutBlob(model, v, "k", blob); err != nil {
					t.Errorf("%s v%d: %v", model, v, err)
					return
				}
				last[g] = blob
			}
		}(g)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, opts)
	defer s2.Close()
	for g := 0; g < writers; g++ {
		got, err := s2.LoadVersion(fmt.Sprintf("m%d", g), versions)
		if err != nil || !bytes.Equal(got, last[g]) {
			t.Fatalf("m%d v%d after reopen (err=%v)", g, versions, err)
		}
	}
}

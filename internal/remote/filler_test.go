package remote

import (
	"context"
	"testing"
	"time"

	"viper/internal/core"
	"viper/internal/nn"
	"viper/internal/transport"
	"viper/internal/vformat"
)

// The tests below script what the cache filler sees. The consumer's end
// of the link goes through a connGate, and the only thing a consumer
// writes there is reconciliation traffic, so holding the gate parks the
// filler inside a have-list write: from then on one fill is running, the
// next install's fill waits, and the test decides what happens before the
// filler moves again. Nothing sleeps; the consumer's clock is the manual
// one of builder_test.go.

// recordHashes hashes the chunk records of a scripted stream (frames[0]
// is its header).
func recordHashes(frames []transport.Frame) []vformat.ChunkHash {
	hashes := make([]vformat.ChunkHash, 0, len(frames)-1)
	for _, f := range frames[1:] {
		hashes = append(hashes, vformat.HashChunkRecord(f.Payload))
	}
	return hashes
}

// cachedOf counts how many of hashes the consumer's cache holds.
func (s *script) cachedOf(hashes []vformat.ChunkHash) int {
	held := make(map[vformat.ChunkHash]bool)
	for _, h := range s.cons.cache.Hashes() {
		held[h] = true
	}
	n := 0
	for _, h := range hashes {
		if held[h] {
			n++
		}
	}
	return n
}

// deliver streams version, announces it and waits for Next to install it
// from the link.
func (s *script) deliver(version uint64, snap nn.Snapshot) []vformat.ChunkHash {
	s.t.Helper()
	frames, _ := s.stream(version, snap)
	s.send(frames...)
	res := s.next()
	s.notify(version, true)
	s.install(res, version, snap)
	return recordHashes(frames)
}

// parkFiller holds the gate, delivers a small version and returns once
// the filler — that version's records cached — is parked inside its
// have-list write.
func (s *script) parkFiller(gate *connGate, version uint64) []vformat.ChunkHash {
	s.t.Helper()
	gate.hold()
	hashes := s.deliver(version, flatSnapshot(int64(100+version), 1<<10))
	gate.waitBlocked(s.t)
	if n := s.cachedOf(hashes); n != len(hashes) {
		s.t.Fatalf("the filler reached its have-list write with %d of v%d's %d records cached", n, version, len(hashes))
	}
	return hashes
}

// recvHave reads the next frame the consumer wrote on the link, which
// must be a have-list, and returns the version it advertises and whether
// it names all of each given hash list.
func (s *script) recvHave(lists ...[]vformat.ChunkHash) (version uint64, covers []bool) {
	s.t.Helper()
	f, err := s.peer.Recv()
	if err != nil {
		s.t.Fatalf("waiting for a have-list: %v", err)
	}
	_, version, hashes, err := transport.ParseHaveFrame(f)
	if err != nil {
		s.t.Fatalf("frame %q from the consumer: %v", f.Key, err)
	}
	named := make(map[vformat.ChunkHash]bool, len(hashes))
	for _, h := range hashes {
		named[h] = true
	}
	for _, list := range lists {
		all := true
		for _, h := range list {
			all = all && named[h]
		}
		covers = append(covers, all)
	}
	return version, covers
}

// noMoreFrames closes the consumer and checks it wrote nothing further
// on the link.
func (s *script) noMoreFrames() {
	s.t.Helper()
	s.cons.Close()
	if f, err := s.peer.Recv(); err == nil {
		s.t.Fatalf("the consumer wrote a further frame %q (%v)", f.Key, f.Meta)
	}
}

// TestFillRunsBehindTheInstall: Next returns a verified full-stream
// install while not one of its records has been hashed into the cache and
// no have-list has reached the wire; once the filler moves, exactly one
// have-list names the version's records, every one of them keyed by the
// hash of the bytes the assembler verified.
func TestFillRunsBehindTheInstall(t *testing.T) {
	gate := newConnGate()
	s := startScriptDial(t, gate.dial)
	fills, lags := Metrics().Histogram("consumer_cache_fill_ms"), Metrics().Histogram("consumer_have_list_lag_ms")
	fillsBefore, lagsBefore := fills.Count(), lags.Count()
	prime := s.parkFiller(gate, 1)
	before := s.cons.cache.Len()

	v2 := s.deliver(2, flatSnapshot(2, 2<<10))
	if n := s.cachedOf(v2); n != 0 || s.cons.cache.Len() != before {
		t.Fatalf("Next returned v2 with %d of its records already cached (cache %d → %d entries)", n, before, s.cons.cache.Len())
	}
	if n := gate.passed.Load(); n != 0 {
		t.Fatalf("%d bytes of reconciliation traffic reached the wire before the gate opened", n)
	}

	gate.release()
	if v, covers := s.recvHave(prime, v2); v != 1 || !covers[0] || covers[1] {
		t.Fatalf("first have-list: version %d, names v1 %v, names v2 %v; want v1's alone", v, covers[0], covers[1])
	}
	if v, covers := s.recvHave(prime, v2); v != 2 || !covers[0] || !covers[1] {
		t.Fatalf("second have-list: version %d, names v1 %v, names v2 %v; want all of both", v, covers[0], covers[1])
	}
	if n := s.cachedOf(v2); n != len(v2) {
		t.Fatalf("a have-list named v2 with %d of its %d records cached", n, len(v2))
	}
	s.noMoreFrames()
	if f, l := fills.Count()-fillsBefore, lags.Count()-lagsBefore; f != 2 || l != 2 {
		t.Fatalf("consumer_cache_fill_ms observed %d times, consumer_have_list_lag_ms %d; want 2 each (v1, v2)", f, l)
	}
}

// TestDroppedParkedBuildIsNeverHashed: a complete, verified build that a
// newer announcement supersedes before its own arrives never reaches the
// cache or a have-list — only installed versions are hashed.
func TestDroppedParkedBuildIsNeverHashed(t *testing.T) {
	s := startScript(t)
	snaps := []nn.Snapshot{nil, flatSnapshot(1, 2<<10), flatSnapshot(2, 2<<10), flatSnapshot(3, 2<<10)}
	var hashes [4][]vformat.ChunkHash
	for v := uint64(1); v <= 3; v++ {
		frames, _ := s.stream(v, snaps[v])
		s.send(frames...)
		hashes[v] = recordHashes(frames)
	}
	s.waitBuilder("three builds parked", parkedAre(1, 2, 3))
	if n := s.cons.cache.Len(); n != 0 {
		t.Fatalf("%d records cached with nothing installed", n)
	}
	res := s.next()
	s.notify(1, true)
	s.install(res, 1, snaps[1])
	if v, covers := s.recvHave(hashes[1]); v != 1 || !covers[0] {
		t.Fatalf("have-list after v1: version %d, names v1 %v", v, covers[0])
	}
	res = s.next()
	s.notify(3, true) // v2 is dropped as superseded
	s.install(res, 3, snaps[3])
	if v, covers := s.recvHave(hashes[1], hashes[2], hashes[3]); v != 3 || !covers[0] || covers[1] || !covers[2] {
		t.Fatalf("have-list after v3: version %d, names v1 %v, v2 %v, v3 %v", v, covers[0], covers[1], covers[2])
	}
	if got, want := s.cons.cache.Len(), len(hashes[1])+len(hashes[3]); got != want || s.cachedOf(hashes[2]) != 0 {
		t.Fatalf("cache holds %d records (%d of the dropped v2's), want the %d of v1 and v3", got, s.cachedOf(hashes[2]), want)
	}
}

// TestWaitingFillIsSuperseded: with one fill running, a second install's
// fill waits and a third install replaces it — the newest version's
// records are cached and advertised, the superseded one's never hashed.
func TestWaitingFillIsSuperseded(t *testing.T) {
	gate := newConnGate()
	s := startScriptDial(t, gate.dial)
	superseded := Metrics().Counter("consumer_fill_superseded")
	before := superseded.Value()
	prime := s.parkFiller(gate, 1)
	v2 := s.deliver(2, flatSnapshot(2, 2<<10))
	v3 := s.deliver(3, flatSnapshot(3, 2<<10))
	if d := superseded.Value() - before; d != 1 {
		t.Fatalf("consumer_fill_superseded moved by %d, want 1", d)
	}
	gate.release()
	if v, _ := s.recvHave(); v != 1 {
		t.Fatalf("first have-list advertises v%d, want the one that was parked (v1)", v)
	}
	if v, covers := s.recvHave(prime, v2, v3); v != 3 || !covers[0] || covers[1] || !covers[2] {
		t.Fatalf("second have-list: version %d, names v1 %v, v2 %v, v3 %v; want v1 and v3", v, covers[0], covers[1], covers[2])
	}
	if n := s.cachedOf(v2); n != 0 {
		t.Fatalf("%d records of the superseded fill were cached", n)
	}
	s.noMoreFrames()
	if got := s.cons.Stats(); got.LinkLoads != 3 {
		t.Fatalf("consumer stats %+v, want all three versions installed from the link", got)
	}
}

// TestCloseAbandonsTheFill: Close with one fill parked and one waiting
// returns as soon as the parked write does, without hashing a record of
// the waiting one; the package's leak check sees the filler gone.
func TestCloseAbandonsTheFill(t *testing.T) {
	gate := newConnGate()
	s := startScriptDial(t, gate.dial)
	s.parkFiller(gate, 1)
	v2 := s.deliver(2, flatSnapshot(2, 2<<10))
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		s.cons.Close()
	}()
	<-s.cons.closed // Close has begun; the filler is still inside the gate
	gate.release()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return once the parked write did")
	}
	if n := s.cachedOf(v2); n != 0 {
		t.Fatalf("the filler hashed %d records of the waiting fill after Close", n)
	}
}

// TestStagedInstallFillsBehind: a version that installs from its staging
// copy is returned before any of its records is cached; the filler caches
// them — by copy, they are sub-slices of the staged blob — and advertises
// them afterwards.
func TestStagedInstallFillsBehind(t *testing.T) {
	gate := newConnGate()
	s := startScriptDial(t, gate.dial)
	prime := s.parkFiller(gate, 1)
	snap := flatSnapshot(2, 2<<10)
	frames, blob := s.stream(2, snap)
	v2 := recordHashes(frames)
	s.send(stray(2)) // the link reaches v2 without a stream for it
	s.stage(2, blob)
	res := s.next()
	s.notify(2, false)
	s.install(res, 2, snap)
	if got := s.cons.Stats(); got.StagedLoads != 1 {
		t.Fatalf("consumer stats %+v, want v2 from staging", got)
	}
	if n := s.cachedOf(v2); n != 0 {
		t.Fatalf("Next returned the staged v2 with %d of its records already cached", n)
	}
	gate.release()
	s.recvHave()
	if v, covers := s.recvHave(prime, v2); v != 2 || !covers[0] || !covers[1] {
		t.Fatalf("have-list after the staged install: version %d, names v1 %v, v2 %v", v, covers[0], covers[1])
	}
	for _, h := range v2 {
		if rec, ok := s.cons.cache.Get(h); !ok || vformat.HashChunkRecord(rec) != h {
			t.Fatalf("cached record %s does not hash to its key", h)
		}
	}
}

// TestLateHaveListCostsOneFullStream: the producer publishes v2 while the
// consumer's have-list for v1 is still held up. v2 travels whole and
// installs bit for bit; once the advertisement lands v3 travels as a
// delta. What a sender may assume between an install and its have-list is
// nothing.
func TestLateHaveListCostsOneFullStream(t *testing.T) {
	gate := newConnGate()
	prod, cons := startChunkedPair(t, nil, chunkedPairConfig{chunkSize: 64, linkDial: gate.dial})
	publish := func(version uint64, snap nn.Snapshot) {
		t.Helper()
		if _, err := prod.Publish(snap, version, 0.5); err != nil {
			t.Fatal(err)
		}
		ckpt, err := cons.Next(10 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if ckpt.Version != version || !snapshotsEqual(ckpt.Weights, snap) {
			t.Fatalf("installed v%d (equal=%v), want bit-identical v%d", ckpt.Version, snapshotsEqual(ckpt.Weights, snap), version)
		}
	}
	snap := nn.TakeSnapshot(testModel(72))
	gate.hold()
	publish(1, snap)
	gate.waitBlocked(t) // v1 is cached; its have-list is stuck in the gate
	snap[0].Data[0] += 1
	publish(2, snap)
	if s := cons.Stats(); s.LinkLoads != 2 || s.DeltaLoads != 0 {
		t.Fatalf("stats %+v: with no have-list absorbed, v2 must travel whole", s)
	}
	gate.release()
	waitFor(t, "both have-lists", func() bool { return prod.Stats().HaveLists == 2 })
	snap[0].Data[1] += 1
	publish(3, snap)
	if s := cons.Stats(); s.LinkLoads != 3 || s.DeltaLoads != 1 || s.StagedLoads != 0 {
		t.Fatalf("stats %+v: after the have-lists landed, v3 must travel as a delta", s)
	}
}

// TestParkedBudgetCountsWireRecords: a parked full-stream build pins its
// wire records (for the filler) as well as its decoded weights, and the
// 64 MiB budget bounds both — three unannounced versions of just under
// 16 MiB are 93 MiB parked, so the oldest is dropped (counting weights
// alone, all three would stay).
func TestParkedBudgetCountsWireRecords(t *testing.T) {
	s := startScript(t)
	const elems = 2<<20 - 64<<10 // 15.5 MiB of float64
	for v := uint64(1); v <= 3; v++ {
		frames, _ := s.streamChunks(v, flatSnapshot(int64(v), elems), 256<<10)
		s.send(frames...)
	}
	s.waitBuilder("v3 parked", func(c *Consumer) bool {
		return c.building == 0 && len(c.parked) > 0 && c.parked[len(c.parked)-1].version == 3
	})
	s.cons.mu.Lock()
	parked, bytes := parkedVersions(s.cons), s.cons.parkedBytes
	s.cons.mu.Unlock()
	if len(parked) != 2 || parked[0] != 2 || bytes > parkedBudget || bytes < 4*8*elems {
		t.Fatalf("parked %v holding %d bytes; want v2 and v3, weights and wire records both counted, within %d", parked, bytes, parkedBudget)
	}
}

// corrupted returns f with one payload byte flipped: the link delivers it
// (a record frame's payload is the record CRC's to vouch for, not the
// frame's), and the chunk record's own CRC does not match.
func corrupted(f transport.Frame) transport.Frame {
	f.Payload = append([]byte(nil), f.Payload...)
	f.Payload[len(f.Payload)/2] ^= 0xff
	return f
}

// TestOnlyVerifiedRecordsAreCached: a record that fails the assembler's
// check is never cached, on either kind of stream — a full stream's
// records wait for the install (and the torn build never gets one), a
// delta stream's go in as they are added, after the check. The builder
// used to cache every record as it passed, before anything verified it.
func TestOnlyVerifiedRecordsAreCached(t *testing.T) {
	s := startScript(t)
	snap1 := flatSnapshot(1, 2<<10)
	frames, blob := s.stream(1, snap1)
	s.send(frames[:3]...)
	s.send(corrupted(frames[3]))
	s.send(frames[4:]...)
	s.waitBuilder("v1 torn", func(c *Consumer) bool {
		return c.linkVersion == 1 && c.building == 0 && len(c.parked) == 0
	})
	if n := s.cons.cache.Len(); n != 0 {
		t.Fatalf("%d records of a torn full stream were cached", n)
	}
	s.stage(1, blob)
	res := s.next()
	s.notify(1, false)
	s.install(res, 1, snap1)
	v1 := recordHashes(frames)
	if v, covers := s.recvHave(v1); v != 1 || !covers[0] || s.cons.cache.Len() != len(v1) {
		t.Fatalf("have-list after the staged v1: version %d, names v1 %v, cache %d entries", v, covers[0], s.cons.cache.Len())
	}

	// v2 moves two chunks and travels as a delta whose second record is
	// corrupt.
	snap2 := flatSnapshot(1, 2<<10)
	snap2[0].Data[0]++
	snap2[1].Data[len(snap2[1].Data)-1]++
	_, blob2 := s.stream(2, snap2)
	held := make(map[vformat.ChunkHash]bool)
	for _, h := range v1 {
		held[h] = true
	}
	manifest, records, hashes2, _, err := vformat.PlanDelta(blob2, func(h vformat.ChunkHash) bool { return held[h] })
	if err != nil || len(records) != 2 {
		t.Fatalf("PlanDelta: %d records to ship, err %v; want 2", len(records), err)
	}
	var sink frameSink
	tags := map[string]string{"model": "m", "version": "2"}
	if err := transport.SendChunkedDelta(context.Background(), transport.WithMeta(&sink, tags), core.CheckpointKey("m", 2), manifest, records, len(hashes2), len(blob2), 0); err != nil {
		t.Fatal(err)
	}
	s.send(sink.frames[0], sink.frames[1], corrupted(sink.frames[2]))
	s.waitBuilder("v2 torn", func(c *Consumer) bool {
		return c.linkVersion == 2 && c.building == 0 && len(c.parked) == 0
	})
	good, bad := vformat.HashChunkRecord(sink.frames[1].Payload), vformat.HashChunkRecord(corrupted(sink.frames[2]).Payload)
	if s.cachedOf([]vformat.ChunkHash{good}) != 1 || s.cachedOf([]vformat.ChunkHash{bad}) != 0 || s.cons.cache.Len() != len(v1)+1 {
		t.Fatalf("after the torn delta the cache holds %d entries (verified record: %d, corrupt record: %d); want v1's %d plus the verified one",
			s.cons.cache.Len(), s.cachedOf([]vformat.ChunkHash{good}), s.cachedOf([]vformat.ChunkHash{bad}), len(v1))
	}
}

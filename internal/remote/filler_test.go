package remote

import (
	"slices"
	"testing"
	"time"

	"viper/internal/nn"
	"viper/internal/transport"
	"viper/internal/vformat"
)

// The tests below script what the filler sees. The consumer's end of the
// link goes through a connGate, and the only thing a consumer writes there
// is reconciliation traffic, so holding the gate parks the filler inside a
// have-list write: from then on one fill is running, the next install's
// fill waits, and the test decides what happens before the filler moves
// again. Nothing sleeps; the consumer's clock is the manual one of
// builder_test.go.

// recordHashes hashes the chunk records of a scripted stream (frames[0]
// is its header).
func recordHashes(frames []transport.Frame) []vformat.ChunkHash {
	hashes := make([]vformat.ChunkHash, 0, len(frames)-1)
	for _, f := range frames[1:] {
		hashes = append(hashes, vformat.HashChunkRecord(f.Payload))
	}
	return hashes
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
// the filler — that version hashed into the span source — is parked inside
// its have-list write.
func (s *script) parkFiller(gate *connGate, version uint64) []vformat.ChunkHash {
	s.t.Helper()
	gate.hold()
	hashes := s.deliver(version, flatSnapshot(int64(100+version), 1<<10))
	gate.waitBlocked(s.t)
	if got := sourceVersion(s.cons); got != version || !slices.Equal(sourceHashes(s.cons), hashes) {
		s.t.Fatalf("the filler reached its have-list write with the span source at v%d, want v%d's hashes", got, version)
	}
	return hashes
}

// recvHave reads the next frame the consumer wrote on the link, which
// must be a have-list, and returns the version it advertises and the
// hashes it names.
func (s *script) recvHave() (version uint64, hashes []vformat.ChunkHash) {
	s.t.Helper()
	f, err := s.peer.Recv()
	if err != nil {
		s.t.Fatalf("waiting for a have-list: %v", err)
	}
	_, version, hashes, err = transport.ParseHaveFrame(f)
	if err != nil {
		s.t.Fatalf("frame %q from the consumer: %v", f.Key, err)
	}
	return version, hashes
}

// haveIs reads the next have-list and fails unless it advertises version
// and names exactly hashes, position by position: a span source's.
func (s *script) haveIs(version uint64, hashes []vformat.ChunkHash) {
	s.t.Helper()
	if v, got := s.recvHave(); v != version || !slices.Equal(got, hashes) {
		s.t.Fatalf("have-list of v%d naming %d hashes, want v%d naming exactly its %d", v, len(got), version, len(hashes))
	}
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
// install while not one of its records has been hashed and no have-list
// has reached the wire; once the filler moves, exactly one have-list per
// install names that version's records and nothing else: the hash of the
// record each chunk of the installed weights was decoded from.
func TestFillRunsBehindTheInstall(t *testing.T) {
	gate := newConnGate()
	s := startScriptDial(t, gate.dial)
	fills, lags := Metrics().Histogram("consumer_cache_fill_ms"), Metrics().Histogram("consumer_have_list_lag_ms")
	fillsBefore, lagsBefore := fills.Count(), lags.Count()
	prime := s.parkFiller(gate, 1)

	v2 := s.deliver(2, flatSnapshot(2, 2<<10))
	if got := sourceVersion(s.cons); got != 1 {
		t.Fatalf("Next returned v2 with the span source at v%d: its weights were hashed first", got)
	}
	if n := gate.passed.Load(); n != 0 {
		t.Fatalf("%d bytes of reconciliation traffic reached the wire before the gate opened", n)
	}

	gate.release()
	s.haveIs(1, prime)
	s.haveIs(2, v2)
	s.noMoreFrames()
	if f, l := fills.Count()-fillsBefore, lags.Count()-lagsBefore; f != 2 || l != 2 {
		t.Fatalf("consumer_cache_fill_ms observed %d times, consumer_have_list_lag_ms %d; want 2 each (v1, v2)", f, l)
	}
}

// TestDroppedParkedBuildIsNeverHashed: a complete, verified build that a
// newer announcement supersedes before its own arrives never reaches the
// span source or a have-list — only installed versions are hashed.
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
	if got := sourceVersion(s.cons); got != 0 {
		t.Fatalf("the span source is v%d with nothing installed", got)
	}
	res := s.next()
	s.notify(1, true)
	s.install(res, 1, snaps[1])
	s.haveIs(1, hashes[1])
	res = s.next()
	s.notify(3, true) // v2 is dropped as superseded
	s.install(res, 3, snaps[3])
	s.haveIs(3, hashes[3])
}

// TestWaitingFillIsSuperseded: with one fill running, a second install's
// fill waits and a third install replaces it — the newest version is
// hashed and advertised, the superseded one never.
func TestWaitingFillIsSuperseded(t *testing.T) {
	gate := newConnGate()
	s := startScriptDial(t, gate.dial)
	superseded := Metrics().Counter("consumer_fill_superseded")
	before := superseded.Value()
	prime := s.parkFiller(gate, 1)
	s.deliver(2, flatSnapshot(2, 2<<10))
	v3 := s.deliver(3, flatSnapshot(3, 2<<10))
	if d := superseded.Value() - before; d != 1 {
		t.Fatalf("consumer_fill_superseded moved by %d, want 1", d)
	}
	gate.release()
	s.haveIs(1, prime)
	s.haveIs(3, v3)
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
	s.deliver(2, flatSnapshot(2, 2<<10))
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
	if got := sourceVersion(s.cons); got != 1 {
		t.Fatalf("the span source is v%d after Close: the filler hashed the waiting fill", got)
	}
}

// TestStagedInstallFillsBehind: a version that installs from its staging
// copy is returned before any of its chunks is hashed; the filler hashes the
// installed weights — it keeps the stream header, not the staged blob — and
// advertises them afterwards.
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
	if got := sourceVersion(s.cons); got != 1 {
		t.Fatalf("Next returned the staged v2 with the span source at v%d", got)
	}
	gate.release()
	s.haveIs(1, prime)
	s.haveIs(2, v2)
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
	gate.waitBlocked(t) // v1 is hashed; its have-list is stuck in the gate
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

// TestParkedBudgetCountsWeights: the 64 MiB budget bounds the decoded
// weights of the parked builds, the only model-sized thing a parked build
// holds (its records went back to the pool as they were decoded) — three
// unannounced versions of 24 MiB are 72 MiB parked, so the oldest is
// dropped and the other two, 48 MiB, stay.
func TestParkedBudgetCountsWeights(t *testing.T) {
	s := startScript(t)
	const elems = 3 << 20 // 24 MiB of float64
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
	if len(parked) != 2 || parked[0] != 2 || bytes != 2*8*elems {
		t.Fatalf("parked %v holding %d bytes; want v2 and v3, their weights alone (%d), within %d", parked, bytes, 2*8*elems, parkedBudget)
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

// TestOnlyVerifiedRecordsAreHashed: a record that fails the assembler's
// check never reaches the span source, on either kind of stream — a full
// stream's weights are hashed after the install (and the torn build never
// gets one), a delta build offers its manifest's hashes only once every
// record verified.
func TestOnlyVerifiedRecordsAreHashed(t *testing.T) {
	s := startScript(t)
	snap1 := flatSnapshot(1, 2<<10)
	frames, blob := s.stream(1, snap1)
	s.send(frames[:3]...)
	s.send(corrupted(frames[3]))
	s.send(frames[4:]...)
	s.waitBuilder("v1 torn", func(c *Consumer) bool {
		return c.linkVersion == 1 && c.building == 0 && len(c.parked) == 0
	})
	if got := sourceVersion(s.cons); got != 0 {
		t.Fatalf("a torn full stream became the span source (v%d)", got)
	}
	s.stage(1, blob)
	res := s.next()
	s.notify(1, false)
	s.install(res, 1, snap1)
	v1 := recordHashes(frames)
	s.haveIs(1, v1)

	// v2 moves two chunks and travels as a delta whose second record is
	// corrupt.
	snap2 := flatSnapshot(1, 2<<10)
	snap2[0].Data[0]++
	snap2[1].Data[len(snap2[1].Data)-1]++
	v2 := s.deltaFrames(2, snap2, v1)
	if len(v2) != 3 {
		t.Fatalf("set-up: v2 is %d frames, want a manifest and two records", len(v2))
	}
	s.send(v2[0], v2[1], corrupted(v2[2]))
	s.waitBuilder("v2 torn", func(c *Consumer) bool {
		return c.linkVersion == 2 && c.building == 0 && len(c.parked) == 0
	})
	if got := sourceVersion(s.cons); got != 1 || !slices.Equal(sourceHashes(s.cons), v1) {
		t.Fatalf("after the torn delta the span source is v%d; want v1's hashes, not one of either record", got)
	}
}

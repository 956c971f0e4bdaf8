package remote

import (
	"context"
	"slices"
	"strconv"
	"testing"
	"time"

	"viper/internal/core"
	"viper/internal/nn"
	"viper/internal/transport"
	"viper/internal/vformat"
)

// The tests below cover the span source: which build the consumer's
// builder copies unchanged chunks out of, when it knows that build's
// hashes, and that whatever it cannot vouch for still goes through the
// need-list.

// sourceVersion reads the version of the consumer's span source (0 =
// none).
func sourceVersion(c *Consumer) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sourceVersion
}

// sourceHashes reads the hashes of the consumer's span source (nil =
// none): what its next have-list names.
func sourceHashes(c *Consumer) []vformat.ChunkHash {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.source == nil {
		return nil
	}
	return c.source.Hashes()
}

// inheritedNow samples consumer_inherited_chunks.
func inheritedNow() int64 { return Metrics().Counter("consumer_inherited_chunks").Value() }

// TestABADrillKeepsTheNeedListPath: chunk 0 holds content A in v1 and v3
// and B in v2. The scripted sender ships v3 against everything the consumer
// has advertised — v1's have-list and v2's — so it elides chunk 0, whose
// record v1's list named. The span source is v2, which holds B there: the
// position is the one that cannot be inherited, so it is need-listed, the
// sender re-sends the record, and v3 installs bit for bit as a delta,
// patched into v2's clone, never from staging. Every other position is
// inherited.
func TestABADrillKeepsTheNeedListPath(t *testing.T) {
	s := startScript(t)
	a := flatSnapshot(1, 2<<10)
	b := bump(a, 0, 0) // element 0 lives in chunk 0
	v1 := s.deliver(1, a)
	s.haveIs(1, v1)
	s.deliverDelta(2, b)
	v3 := s.deltaFrames(3, a, append(sourceHashes(s.cons), v1...))
	if len(v3) != 1 {
		t.Fatalf("set-up: v3 is %d frames, want a bare manifest", len(v3))
	}
	before := inheritedNow()
	s.send(v3...)
	f, err := s.peer.Recv()
	if err != nil {
		t.Fatal(err)
	}
	key, need, err := transport.ParseNeedFrame(f)
	if err != nil || key != core.CheckpointKey("m", 3) || !slices.Equal(need, v1[:1]) {
		t.Fatalf("the consumer wrote %q for %q naming %d hashes (%v); want the need-list of v3's chunk 0", f.Key, key, len(need), err)
	}
	full, _ := s.stream(3, a)
	for _, rf := range full[1:] {
		if vformat.HashChunkRecord(rf.Payload) == need[0] {
			s.send(rf) // the re-send
		}
	}
	res := s.next()
	s.notify(3, true)
	s.install(res, 3, a)
	if got, want := inheritedNow()-before, int64(len(v1)-1); got != want {
		t.Fatalf("v3 inherited %d positions, want %d", got, want)
	}
	if got := s.cons.Stats(); got.DeltaLoads != 2 || got.PreparedInstalls != 1 || got.StagedLoads != 0 {
		t.Fatalf("consumer stats %+v, want v3 patched into v2's clone as a delta from the link", got)
	}
}

// deltaFrames scripts the delta stream a producer holding the have-list
// have would send for snap: the manifest frame, then the records have
// does not name.
func (s *script) deltaFrames(version uint64, snap nn.Snapshot, have []vformat.ChunkHash) []transport.Frame {
	s.t.Helper()
	_, blob := s.stream(version, snap)
	held := make(map[vformat.ChunkHash]bool, len(have))
	for _, h := range have {
		held[h] = true
	}
	manifest, records, hashes, _, err := vformat.PlanDelta(blob, func(h vformat.ChunkHash) bool { return held[h] })
	if err != nil {
		s.t.Fatal(err)
	}
	var sink frameSink
	tags := map[string]string{"model": "m", "version": strconv.FormatUint(version, 10)}
	if err := transport.SendChunkedDelta(context.Background(), transport.WithMeta(&sink, tags), core.CheckpointKey("m", version), manifest, records, len(hashes), len(blob)); err != nil {
		s.t.Fatal(err)
	}
	return sink.frames
}

// TestSupersededFillOffersNoSource: v1 is installed and hashed, so it is
// the span source, and the filler is parked inside its have-list write.
// v2 and v3 then install from full streams: v2's fill is superseded, v3's
// waits, and neither has offered anything — the source is still v1, the
// newest build whose hashes are known. A delta on v1's content that lands
// now is assembled from that: no record of v2 or v3 was ever hashed, the
// consumer's side of the link is shut (a need-list would park the build
// there), and the install is bit for bit. When the filler moves again, v3
// — hashed at last — becomes the source; v2 never does.
func TestSupersededFillOffersNoSource(t *testing.T) {
	gate := newConnGate()
	s := startScriptDial(t, gate.dial)
	defer gate.release() // before the script's cleanup: Close joins the parked filler
	superseded := Metrics().Counter("consumer_fill_superseded")
	supersededBefore := superseded.Value()
	snap1 := flatSnapshot(1, 2<<10)
	gate.hold()
	v1 := s.deliver(1, snap1)
	gate.waitBlocked(t) // v1 hashed and offered; its have-list is stuck in the gate
	if got := sourceVersion(s.cons); got != 1 {
		t.Fatalf("with v1 hashed the span source is v%d, want v1", got)
	}
	s.deliver(2, flatSnapshot(2, 2<<10))
	s.deliver(3, flatSnapshot(3, 2<<10))
	if d := superseded.Value() - supersededBefore; d != 1 {
		t.Fatalf("consumer_fill_superseded moved by %d, want v2's fill superseded by v3's", d)
	}
	if got := sourceVersion(s.cons); got != 1 {
		t.Fatalf("the span source is v%d; neither the superseded v2 nor the waiting v3 has hashes to offer", got)
	}

	snap4 := snap1.Clone()
	snap4[1].Data[5] += 1
	before := inheritedNow()
	s.send(s.deltaFrames(4, snap4, v1)...)
	res := s.next()
	s.notify(4, true)
	s.install(res, 4, snap4)
	if got, want := inheritedNow()-before, int64(len(v1)-1); got != want {
		t.Fatalf("v4 over the v1 source inherited %d positions, want %d", got, want)
	}
	if got := s.cons.Stats(); got.DeltaLoads != 1 || got.StagedLoads != 0 {
		t.Fatalf("consumer stats %+v, want v4 installed as a delta from the link", got)
	}
	if got := sourceVersion(s.cons); got != 4 {
		t.Fatalf("the span source is v%d, want the delta build v4 (its manifest names every hash)", got)
	}
}

// TestReaderHoldsActiveWhileBuilderInherits (run under -race): a serving
// thread keeps reading the checkpoint Active returns — read-only, and valid
// until the next Next returns — while the next version is published and the
// builder assembles it against the span source that shares those weights,
// or patches the clone made of them. The thread stops before Next is
// called; every walk reads the version it expects, and every install is bit
// for bit.
func TestReaderHoldsActiveWhileBuilderInherits(t *testing.T) {
	const chunkSize = 1 << 10
	prod, cons := startChunkedPair(t, nil, chunkedPairConfig{chunkSize: chunkSize})
	snap := flatSnapshot(5, 8<<10)
	before := inheritedNow()
	const versions = 12
	walks := 0
	for v := uint64(1); v <= versions; v++ {
		stop := readActive(cons, snap.Clone())
		snap[1].Data[int(v)*700%len(snap[1].Data)] += 1
		if _, err := prod.Publish(snap, v, 0.5); err != nil {
			t.Fatal(err)
		}
		n, ok := stop()
		if !ok {
			t.Fatalf("a serving thread saw v%d change while v%d was published", v-1, v)
		}
		walks += n
		ckpt, err := cons.Next(10 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if ckpt != cons.Active() {
			t.Fatal("Next and Active hand out different objects")
		}
		if ckpt.Version != v || !snapshotsEqual(ckpt.Weights, snap) {
			t.Fatalf("installed v%d (equal=%v), want bit-identical v%d", ckpt.Version, snapshotsEqual(ckpt.Weights, snap), v)
		}
		waitFor(t, "the have-list", func() bool { return prod.Stats().HaveLists >= int64(v) })
	}
	if walks == 0 {
		t.Fatal("the serving thread never read a checkpoint")
	}
	chunks := int64(snap.NumBytes() / chunkSize)
	if got, want := inheritedNow()-before, (versions-1)*(chunks-1); got != want {
		t.Fatalf("%d deltas of one changed chunk inherited %d positions, want %d", versions-1, got, want)
	}
}

package remote

import (
	"fmt"
	"testing"
	"time"

	"viper/internal/nn"
	"viper/internal/transport"
)

// waitPeerHave polls until the producer's pump has recorded a chunk
// advertisement of at least n hashes from the receiver.
func waitPeerHave(t *testing.T, prod *Producer, n int) {
	t.Helper()
	waitFor(t, fmt.Sprintf("a have-list of ≥%d hashes", n), func() bool {
		prod.mu.Lock()
		defer prod.mu.Unlock()
		return len(prod.peerHave) >= n
	})
}

// TestPublishDeltaAndReceive: after the consumer installs v1 and
// advertises its hashes, v2 — one drifted element — travels the
// link as a manifest plus only the changed chunks, and still installs
// byte-identically.
func TestPublishDeltaAndReceive(t *testing.T) {
	prod, cons := startChunkedPair(t, nil, chunkedPairConfig{chunkSize: 64})
	snap1 := nn.TakeSnapshot(testModel(71))
	if _, err := prod.Publish(snap1, 1, 0.9); err != nil {
		t.Fatal(err)
	}
	if _, err := cons.Next(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitPeerHave(t, prod, 2)

	dedupBefore := transport.Metrics().Counter("chunks_deduped_total").Value()
	snap2 := nn.TakeSnapshot(testModel(71))
	snap2[0].Data[0] += 1
	if _, err := prod.Publish(snap2, 2, 0.8); err != nil {
		t.Fatal(err)
	}
	ckpt, err := cons.Next(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if ckpt.Version != 2 || !snapshotsEqual(ckpt.Weights, snap2) {
		t.Fatalf("delta install delivered v%d (equal=%v), want byte-identical v2",
			ckpt.Version, snapshotsEqual(ckpt.Weights, snap2))
	}
	if s := cons.Stats(); s.LinkLoads != 2 || s.DeltaLoads != 1 || s.StagedLoads != 0 {
		t.Fatalf("stats = %+v, want both loads via the link, the second a delta", s)
	}
	if d := transport.Metrics().Counter("chunks_deduped_total").Value() - dedupBefore; d <= 0 {
		t.Fatalf("chunks_deduped_total moved by %d, want elided chunks on the wire", d)
	}
}

// TestDeltaDisabledKeepsFullStreams: with reconciliation off, the same
// interleaved publish/consume sequence ships every version whole.
func TestDeltaDisabledKeepsFullStreams(t *testing.T) {
	prod, cons := startChunkedPair(t, nil, chunkedPairConfig{chunkSize: 64, noDelta: true})
	for v := 1; v <= 2; v++ {
		snap := nn.TakeSnapshot(testModel(81))
		if v == 2 {
			snap[0].Data[0] += 1
		}
		if _, err := prod.Publish(snap, uint64(v), 0.5); err != nil {
			t.Fatal(err)
		}
		ckpt, err := cons.Next(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if ckpt.Version != uint64(v) || !snapshotsEqual(ckpt.Weights, snap) {
			t.Fatalf("v%d arrived wrong", v)
		}
	}
	if s := cons.Stats(); s.DeltaLoads != 0 || s.LinkLoads != 2 {
		t.Fatalf("stats = %+v, want two full link loads and no deltas", s)
	}
	prod.mu.Lock()
	have := len(prod.peerHave)
	prod.mu.Unlock()
	if have != 0 {
		t.Fatalf("disabled producer recorded a %d-hash have-list", have)
	}
}

// TestSourceMovedOnTakesTheNeedList is the chaos drill at the remote
// layer, with a real producer: the span source moves on between the
// advertisement the producer plans against and the manifest. Chunk 0 holds
// A in v1 and v3 and B in v2. v2's have-list is held up on the consumer's
// side of the link, so the producer plans v3 against v1's and elides every
// record — but the source is v2 by then, which holds B at chunk 0. That
// position is need-listed once the link opens, answered from the
// producer's retained blob, and v3 installs bit for bit as a delta with
// every other position inherited and nothing from staging.
func TestSourceMovedOnTakesTheNeedList(t *testing.T) {
	const chunkSize = 64
	gate := newConnGate()
	defer gate.release() // before the pair's cleanup: Close joins a filler that may be parked there
	prod, cons := startChunkedPair(t, nil, chunkedPairConfig{chunkSize: chunkSize, linkDial: gate.dial})
	a := nn.TakeSnapshot(testModel(93))
	b := a.Clone()
	b[0].Data[0] += 1 // element 0 lives in chunk 0
	chunks := int64((a.NumBytes() + chunkSize - 1) / chunkSize)
	publish := func(version uint64, snap nn.Snapshot) {
		t.Helper()
		if _, err := prod.Publish(snap, version, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	install := func(version uint64, snap nn.Snapshot) {
		t.Helper()
		ckpt, err := cons.Next(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if ckpt.Version != version || !snapshotsEqual(ckpt.Weights, snap) {
			t.Fatalf("installed v%d (equal=%v), want bit-identical v%d", ckpt.Version, snapshotsEqual(ckpt.Weights, snap), version)
		}
	}
	publish(1, a)
	install(1, a)
	waitFor(t, "v1's have-list", func() bool { return prod.Stats().HaveLists == 1 })

	gate.hold()
	publish(2, b)
	install(2, b)
	gate.waitBlocked(t) // v2 is the source; its have-list is stuck in the gate
	sentBefore, before := transport.Metrics().Counter("chunks_sent_total").Value(), inheritedNow()
	publish(3, a)
	if d := transport.Metrics().Counter("chunks_sent_total").Value() - sentBefore; d != 0 {
		t.Fatalf("v3's stream shipped %d records; it was planned against v1's have-list, which names them all", d)
	}
	gate.release()
	install(3, a)
	// Nothing shipped and chunk 0 not in the source, and yet installed bit
	// for bit without the staging copy: only a need-list answered from the
	// producer's retained blob can have supplied it.
	if got := inheritedNow() - before; got != chunks-1 {
		t.Fatalf("v3 inherited %d positions, want %d", got, chunks-1)
	}
	if s := cons.Stats(); s.DeltaLoads != 2 || s.StagedLoads != 0 || s.LinkLoads != 3 {
		t.Fatalf("consumer stats %+v, want v2 and v3 as deltas from the link and nothing from staging", s)
	}
}

// TestDeltaEpsSuppressesDrift models the steady-state training regime:
// every element drifts a hair between versions and one element moves
// for real. With DeltaEps set, the producer re-encodes drifted elements
// at their previous wire values, so only the chunk holding the real
// move ships — and the install deviates from the raw snapshot by at
// most eps.
func TestDeltaEpsSuppressesDrift(t *testing.T) {
	const eps = 1e-6
	prod, cons := startChunkedPair(t, nil, chunkedPairConfig{chunkSize: 64, deltaEps: eps})
	snap1 := nn.TakeSnapshot(testModel(101))
	if _, err := prod.Publish(snap1, 1, 0.9); err != nil {
		t.Fatal(err)
	}
	if _, err := cons.Next(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitPeerHave(t, prod, 2)

	sentBefore := transport.Metrics().Counter("chunks_sent_total").Value()
	snap2 := snap1.Clone()
	for _, nt := range snap2 {
		for i := range nt.Data {
			nt.Data[i] += 1e-9 // sub-eps drift everywhere
		}
	}
	snap2[0].Data[0] += 1 // one real move
	if _, err := prod.Publish(snap2, 2, 0.8); err != nil {
		t.Fatal(err)
	}
	ckpt, err := cons.Next(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if ckpt.Version != 2 {
		t.Fatalf("got v%d, want v2", ckpt.Version)
	}
	// The install holds v1's wire values for drifted elements and the
	// real move exactly — never more than eps from the raw snapshot.
	if got, want := ckpt.Weights[0].Data[0], snap2[0].Data[0]; got != want {
		t.Fatalf("moved element = %v, want %v", got, want)
	}
	for ti := range snap2 {
		for i := range snap2[ti].Data {
			if d := ckpt.Weights[ti].Data[i] - snap2[ti].Data[i]; d > eps || d < -eps {
				t.Fatalf("element %d/%d deviates by %v, beyond eps %v", ti, i, d, eps)
			}
		}
	}
	// Only the chunk holding the real move shipped.
	if d := transport.Metrics().Counter("chunks_sent_total").Value() - sentBefore; d != 1 {
		t.Fatalf("chunks_sent_total moved by %d, want exactly the one changed chunk", d)
	}
	if s := prod.Stats(); s.DeltaSends != 1 || s.HaveLists < 1 {
		t.Fatalf("producer stats = %+v, want one delta send after at least one have-list", s)
	}
}

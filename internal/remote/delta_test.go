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
// advertises its chunk cache, v2 — one drifted element — travels the
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

// TestDeltaCacheEvictionRecovers is the chaos drill at the remote
// layer: the consumer advertises its cache, then loses every entry
// before the delta arrives. The unchanged chunks need no record — the
// builder copies them out of the version it installed, whose hashes it
// knows position by position — so the version installs byte-identically
// with no need-list and no re-send: the consumer's side of the link is
// held shut throughout, and a need-list would have parked the build there.
// (A chunk the installed version does not hold either still takes the
// need-list path: TestABADrillKeepsTheNeedListPath.)
func TestDeltaCacheEvictionRecovers(t *testing.T) {
	gate := newConnGate()
	defer gate.release() // before the pair's cleanup: Close joins a filler that may be parked there
	prod, cons := startChunkedPair(t, nil, chunkedPairConfig{chunkSize: 64, linkDial: gate.dial})
	snap1 := nn.TakeSnapshot(testModel(91))
	if _, err := prod.Publish(snap1, 1, 0.9); err != nil {
		t.Fatal(err)
	}
	if _, err := cons.Next(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitPeerHave(t, prod, 2)

	// Evict everything the consumer just advertised.
	advertised := cons.cache.Hashes()
	for _, h := range advertised {
		cons.cache.Drop(h)
	}
	gate.hold()
	written := gate.passed.Load()
	before := sampleDeltaCounters()

	snap2 := nn.TakeSnapshot(testModel(91))
	snap2[0].Data[0] += 1
	if _, err := prod.Publish(snap2, 2, 0.8); err != nil {
		t.Fatal(err)
	}
	ckpt, err := cons.Next(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if ckpt.Version != 2 || !snapshotsEqual(ckpt.Weights, snap2) {
		t.Fatalf("recovered install delivered v%d (equal=%v), want byte-identical v2",
			ckpt.Version, snapshotsEqual(ckpt.Weights, snap2))
	}
	if s := cons.Stats(); s.DeltaLoads != 1 || s.StagedLoads != 0 {
		t.Fatalf("stats = %+v, want the recovery to finish as a delta load", s)
	}
	if n := gate.passed.Load() - written; n != 0 {
		t.Fatalf("the consumer wrote %d bytes on the link before v2 installed: a need-list went out", n)
	}
	if got, want := sampleDeltaCounters().since(before), (deltaCounters{inherited: int64(len(advertised) - 1)}); got != want {
		t.Fatalf("v2: %+v, want %+v — every unchanged chunk inherited, no cached record decoded", got, want)
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

package relay

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"viper/internal/chunkstore"
	"viper/internal/nn"
	"viper/internal/remote"
	"viper/internal/transport"
	"viper/internal/vformat"
)

// storeRelay starts a relay with a durable chunk store attached.
func storeRelay(t *testing.T, dir string, ret chunkstore.Retention) *Relay {
	t.Helper()
	r, err := New(Config{
		IngestAddr: "127.0.0.1:0", ServeAddr: "127.0.0.1:0",
		Retry:    quickPolicy(1),
		StoreDir: dir, StoreRetention: ret,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeChecked(t, r) })
	return r
}

// TestRelayRestartServesFromStore is the durability acceptance drill:
// a producer pushes versions through a store-backed relay, the relay
// dies, a fresh relay on the same directory hydrates the full
// inventory, and a late joiner loads byte-identical weights straight
// from the recovered cache — zero staged loads, no producer alive.
func TestRelayRestartServesFromStore(t *testing.T) {
	metaAddr, notifyAddr := testServices(t)
	dir := t.TempDir()
	r1, err := New(Config{
		IngestAddr: "127.0.0.1:0", ServeAddr: "127.0.0.1:0",
		MetaAddr: metaAddr, NotifyAddr: notifyAddr, Retry: quickPolicy(2),
		StoreDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}

	prod, err := remote.NewProducer(remote.ProducerConfig{
		Model: "m", MetaAddr: metaAddr, NotifyAddr: notifyAddr,
		RelayAddr: r1.IngestAddr(), Retry: quickPolicy(3), ChunkSize: 128,
	})
	if err != nil {
		r1.Close()
		t.Fatal(err)
	}

	const versions = 3
	published := make(map[uint64]nn.Snapshot, versions)
	for v := 1; v <= versions; v++ {
		snap := nn.TakeSnapshot(testModel(int64(200 + v)))
		meta, err := prod.Publish(snap, uint64(v*10), float64(v))
		if err != nil {
			prod.Close()
			r1.Close()
			t.Fatalf("publish %d: %v", v, err)
		}
		published[meta.Version] = snap
	}
	waitFor(t, 10*time.Second, func() bool { return r1.Stats().StoredVersions == versions }, "versions persisted")

	// Kill both the producer and the relay: the store directory is all
	// that survives.
	prod.Close()
	r1.Close()

	r2 := storeRelay(t, dir, chunkstore.Retention{})
	if st := r2.Stats(); st.HydratedVersions != versions {
		t.Fatalf("HydratedVersions = %d after restart, want %d", st.HydratedVersions, versions)
	}
	inv, err := FetchInventory(r2.IngestAddr())
	if err != nil {
		t.Fatal(err)
	}
	if len(inv) != versions {
		t.Fatalf("inventory after restart has %d entries, want %d: %+v", len(inv), versions, inv)
	}
	for _, vi := range inv {
		if !vi.Stored || vi.Chunks < 2 {
			t.Fatalf("hydrated inventory entry: %+v", vi)
		}
	}

	late, err := remote.NewConsumer(remote.ConsumerConfig{
		Model: "m", MetaAddr: metaAddr, NotifyAddr: notifyAddr,
		ProducerAddr: r2.ServeAddr(), Retry: quickPolicy(9),
		LinkWait: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	ckpt, err := late.Next(20 * time.Second)
	if err != nil {
		t.Fatalf("late joiner after restart: %v (stats %+v)", err, late.Stats())
	}
	if ckpt.Version != versions || !snapshotsEqual(ckpt.Weights, published[versions]) {
		t.Fatalf("late joiner installed v%d (equal=%v), want byte-identical v%d",
			ckpt.Version, snapshotsEqual(ckpt.Weights, published[versions]), versions)
	}
	if st := late.Stats(); st.StagedLoads != 0 || st.LinkLoads != 1 {
		t.Fatalf("late joiner did not load from the hydrated cache: %+v", st)
	}
}

// TestStoreRetentionDelegation: with a store attached, only the newest
// version holds its records; history is governed by the store's
// retention. Versions the store still holds stay in the catalog as
// demoted shells, versions the store retired leave entirely.
func TestStoreRetentionDelegation(t *testing.T) {
	r := storeRelay(t, t.TempDir(), chunkstore.Retention{MaxVersions: 2})
	link, err := transport.DialTCP(r.IngestAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()

	for v := uint64(1); v <= 4; v++ {
		pushChunked(t, link, "m", v, nn.TakeSnapshot(testModel(int64(300+v))), 128)
	}
	// The catalog is what the inventory lists, and a version enters it
	// (CachedVersions) only after the store has committed it.
	waitFor(t, 10*time.Second, func() bool { return r.Stats().CachedVersions == 4 }, "4 versions stored and catalogued")

	inv, err := FetchInventory(r.IngestAddr())
	if err != nil {
		t.Fatal(err)
	}
	if len(inv) != 2 || inv[0].Version != 3 || inv[1].Version != 4 {
		t.Fatalf("inventory = %+v, want store-retained [3 4]", inv)
	}
	for _, vi := range inv {
		if !vi.Stored {
			t.Fatalf("retained version not marked stored: %+v", vi)
		}
	}
	st := r.Stats()
	if st.DemotedVersions == 0 {
		t.Fatalf("no version was demoted to a disk-backed shell: %+v", st)
	}

	// v3 is a disk shell: catalogued without records, which v4 alone
	// holds.
	r.cat.mu.Lock()
	mc := r.cat.models["m"]
	shell, top := mc.versions[0], mc.versions[1]
	r.cat.mu.Unlock()
	if shell.vnum != 3 || shell.recs != nil || top.recs == nil {
		t.Fatalf("v%d holds %d records and v%d %d, want v3 as a shell below v4", shell.vnum, len(shell.recs), top.vnum, len(top.recs))
	}
}

// TestEvictedVersionServedFromDisk is the regression drill for the
// cache-evicted-but-disk-served late joiner: a consumer need-list for
// chunks that left memory (the referencing version, pushed by a
// reconciling producer and so keyed by content, was demoted) must be
// answered from the store, not refused with a resend notice.
func TestEvictedVersionServedFromDisk(t *testing.T) {
	r := storeRelay(t, t.TempDir(), chunkstore.Retention{})
	link, err := transport.DialTCP(r.IngestAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()

	snap1 := nn.TakeSnapshot(testModel(31))
	snap2 := nn.TakeSnapshot(testModel(32))
	blob1, hashes1 := encodeVersion(t, "m", 1, snap1, 128)
	pushReconcile(t, link, "m", 1, snap1, 128)
	waitFor(t, 5*time.Second, func() bool { return r.Stats().StoredVersions == 1 }, "v1 stored")
	pushReconcile(t, link, "m", 2, snap2, 128)
	waitFor(t, 5*time.Second, func() bool { return r.Stats().DemotedVersions == 1 }, "v1 demoted")

	// v1's chunks are disjoint from v2's and gone from memory now.
	if inMemory := r.cat.residentOf(hashes1); inMemory != 0 {
		t.Fatalf("%d of v1's chunks still resident, want all on disk only", inMemory)
	}

	cons, err := transport.DialTCP(r.ServeAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()
	if err := cons.Send(transport.NewNeedFrame("m/v00000001", hashes1)); err != nil {
		t.Fatal(err)
	}
	got := make(map[vformat.ChunkHash][]byte, len(hashes1))
	deadline := time.Now().Add(10 * time.Second)
	for len(got) < len(hashes1) {
		if time.Now().After(deadline) {
			t.Fatalf("collected %d of %d re-sent records", len(got), len(hashes1))
		}
		f, err := cons.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if f.Key == RejectKey {
			t.Fatalf("need-list refused (%v), want disk-served records", f.Meta)
		}
		if f.Key != "m/v00000001" || transport.IsChunkHeader(f) {
			continue // v2 catch-up traffic
		}
		got[vformat.HashChunkRecord(f.Payload)] = append([]byte(nil), f.Payload...)
	}
	// Every record must be the byte-exact one v1 was encoded from.
	want := make(map[vformat.ChunkHash][]byte, len(hashes1))
	if err := vformat.WalkChunkRecords(blob1, func(rec []byte) error {
		want[vformat.HashChunkRecord(rec)] = append([]byte(nil), rec...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for h, rec := range got {
		if !bytes.Equal(rec, want[h]) {
			t.Fatalf("disk-served record %s differs from the ingested bytes", h)
		}
	}
}

// TestUntaggedRePushServesTheNewBytes: an untagged push of a version the
// relay already holds, with other bytes in the same layout, replaces it —
// and the new bytes are what is served, from memory and, after a
// restart, from the store. The new version enters the store while the
// one it replaces is still there, so keys that named only (model,
// version, position) would dedup against the old bytes.
func TestUntaggedRePushServesTheNewBytes(t *testing.T) {
	dir := t.TempDir()
	r1 := storeRelay(t, dir, chunkstore.Retention{})
	link, err := transport.DialTCP(r1.IngestAddr())
	if err != nil {
		t.Fatal(err)
	}
	old, repushed := wideSnapshot(33), wideSnapshot(34)
	pushChunked(t, link, "m", 1, old, 128)
	waitFor(t, 5*time.Second, func() bool { return r1.Stats().CachedVersions == 1 }, "v1 cached")
	pushChunked(t, link, "m", 1, repushed, 128)
	waitFor(t, 5*time.Second, func() bool { return r1.Stats().CachedVersions == 2 }, "v1 re-pushed")
	if st := r1.Stats(); st.DedupedChunks != 0 || st.StoredVersions != 2 || st.ReleasedVersions != 1 {
		t.Fatalf("relay stats %+v, want nothing deduped, two stores and the old v1 released", st)
	}
	if ckpt := collectVersion(t, r1); ckpt.Version != 1 || !snapshotsEqual(ckpt.Weights, repushed) {
		t.Fatalf("served v%d (re-pushed bytes: %v, old bytes: %v), want the re-push bit for bit",
			ckpt.Version, snapshotsEqual(ckpt.Weights, repushed), snapshotsEqual(ckpt.Weights, old))
	}
	link.Close()
	r1.Close()

	r2 := storeRelay(t, dir, chunkstore.Retention{})
	if ckpt := collectVersion(t, r2); ckpt.Version != 1 || !snapshotsEqual(ckpt.Weights, repushed) {
		t.Fatalf("served v%d from the store after a restart (re-pushed bytes: %v, old bytes: %v), want the re-push bit for bit",
			ckpt.Version, snapshotsEqual(ckpt.Weights, repushed), snapshotsEqual(ckpt.Weights, old))
	}
}

// TestDeltaAfterRestartPrefillsFromStore: a delta push planned against
// a have-list the relay advertised before it died must still commit
// after a restart — the elided chunks read through from the store into
// the new build, with no need-list round trip.
func TestDeltaAfterRestartPrefillsFromStore(t *testing.T) {
	dir := t.TempDir()
	r1 := storeRelay(t, dir, chunkstore.Retention{})
	link, err := transport.DialTCP(r1.IngestAddr())
	if err != nil {
		t.Fatal(err)
	}
	snap1 := nn.TakeSnapshot(testModel(41))
	pushReconcile(t, link, "m", 1, snap1, 128)
	_, _, have := recvHave(t, link)
	link.Close()
	r1.Close()

	r2 := storeRelay(t, dir, chunkstore.Retention{})
	if r2.Stats().HydratedVersions != 1 {
		t.Fatalf("v1 not hydrated: %+v", r2.Stats())
	}
	snap2 := nn.TakeSnapshot(testModel(41))
	snap2[0].Data[0] += 1
	blob2, hashes2 := encodeVersion(t, "m", 2, snap2, 128)
	held := make(map[vformat.ChunkHash]bool, len(have))
	for _, h := range have {
		held[h] = true
	}
	manifest, records, _, _, err := vformat.PlanDelta(blob2, func(h vformat.ChunkHash) bool { return held[h] })
	if err != nil {
		t.Fatal(err)
	}
	if len(records) >= len(hashes2) {
		t.Fatalf("delta ships all %d records, want elision to exercise the prefill", len(records))
	}
	link2, err := transport.DialTCP(r2.IngestAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer link2.Close()
	tags := ingestTags(t, "m", 2, int64(len(blob2)), true)
	if err := transport.SendChunkedDelta(context.Background(), transport.WithMeta(link2, tags), "m/v00000002", manifest, records, len(hashes2), len(blob2)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool {
		s := r2.Stats()
		return s.CachedVersions == 1 && s.DeltaVersions == 1
	}, "post-restart delta commit")
	if st := r2.Stats(); st.NeedResends != 0 {
		t.Fatalf("delta needed a resend round trip (%+v), want store prefill", st)
	}

	cons, err := transport.DialTCP(r2.ServeAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()
	var hf transport.Frame
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("no v2 header frame")
		}
		f, err := cons.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if transport.IsChunkHeader(f) && f.Meta["version"] == "2" {
			hf = f
			break
		}
	}
	ckpt, _, err := transport.CollectChunked(context.Background(), hf, nil, cons.Recv)
	if err != nil {
		t.Fatal(err)
	}
	if ckpt.Version != 2 || !snapshotsEqual(ckpt.Weights, snap2) {
		t.Fatalf("post-restart delta assembled v%d (equal=%v), want byte-identical v2",
			ckpt.Version, snapshotsEqual(ckpt.Weights, snap2))
	}
}

// TestMonolithicRestartReload: a plain (non-chunked) frame pushed at a
// store-backed relay is a counted stray — nothing reaches the store, so
// a restart on the same directory hydrates nothing and serves nothing.
func TestMonolithicRestartReload(t *testing.T) {
	dir := t.TempDir()
	r1 := storeRelay(t, dir, chunkstore.Retention{})
	link, err := transport.DialTCP(r1.IngestAddr())
	if err != nil {
		t.Fatal(err)
	}
	ckpt := &vformat.Checkpoint{ModelName: "m", Version: 1, Weights: nn.TakeSnapshot(testModel(51))}
	payload, err := ckpt.Encode()
	if err != nil {
		t.Fatal(err)
	}
	err = link.Send(transport.Frame{
		Key: "m/v00000001", Payload: payload,
		Meta: map[string]string{"model": "m", "version": "1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return r1.Stats().StrayFrames == 1 }, "stray frame counted")
	if st := r1.Stats(); st.CachedVersions != 0 || st.StoredVersions != 0 || st.StoreErrors != 0 {
		t.Fatalf("plain frame reached the cache or the store: %+v", st)
	}
	link.Close()
	r1.Close()

	r2 := storeRelay(t, dir, chunkstore.Retention{})
	inv, err := FetchInventory(r2.IngestAddr())
	if err != nil {
		t.Fatal(err)
	}
	if st := r2.Stats(); st.HydratedVersions != 0 || len(inv) != 0 {
		t.Fatalf("restart found something to serve: inventory %+v, stats %+v", inv, st)
	}
}

// TestHeaderOnlyVersionStaysMemoryOnly: a stream announcing zero chunks
// (an empty model) has nothing to make durable. It is cached and served
// from memory, costs no store write and no store error, and a restart
// does not bring it back.
func TestHeaderOnlyVersionStaysMemoryOnly(t *testing.T) {
	dir := t.TempDir()
	r1 := storeRelay(t, dir, chunkstore.Retention{})
	link, err := transport.DialTCP(r1.IngestAddr())
	if err != nil {
		t.Fatal(err)
	}
	pushChunked(t, link, "m", 1, nn.Snapshot{}, 128)
	waitFor(t, 5*time.Second, func() bool { return r1.Stats().CachedVersions == 1 }, "header-only version cached")
	if st := r1.Stats(); st.StoredVersions != 0 || st.StoreErrors != 0 {
		t.Fatalf("header-only version touched the store: %+v", st)
	}
	cons, err := transport.DialTCP(r1.ServeAddr())
	if err != nil {
		t.Fatal(err)
	}
	f, err := cons.Recv()
	cons.Close()
	if err != nil || !transport.IsChunkHeader(f) || f.Meta[transport.MetaChunkCount] != "0" {
		t.Fatalf("served frame %+v (err=%v), want the zero-chunk header", f.Meta, err)
	}
	link.Close()
	r1.Close()

	if r2 := storeRelay(t, dir, chunkstore.Retention{}); r2.Stats().HydratedVersions != 0 {
		t.Fatalf("header-only version survived the restart: %+v", r2.Stats())
	}
}

// TestConcurrentProducersPersist: every ingest connection streams its
// version into the store through a write handle of its own, so two
// producers pushing at once are two concurrent store writers with no
// relay-level serialization. Each handle pins what it appended, so
// writer B's commit (retention, reclaim, compaction) cannot delete
// writer A's appended-but-uncommitted chunks — without that, A's Commit
// fails with ErrMissingChunk: a StoreErrors tick and a cached version
// that is silently not durable. The producer link sheds frames under
// backpressure, so not every publish reaches the relay — the invariant
// is that every version the relay *commits* also persists.
func TestConcurrentProducersPersist(t *testing.T) {
	concurrentProducersPersist(t, []int64{100, 200})
}

// TestConcurrentProducersPersistOverlapping has both producers publish
// the same weights under different model names, so their records are
// the same chunks: each handle's appends dedupe against the other's
// pending or committed entries, and retention on one model keeps
// killing entries the other model's open handle has only pinned.
func TestConcurrentProducersPersistOverlapping(t *testing.T) {
	concurrentProducersPersist(t, []int64{100, 100})
}

// concurrentProducersPersist runs one producer per seed, concurrently,
// against one store-backed relay; producer i publishes testModel(seed+v)
// as model i's version v.
func concurrentProducersPersist(t *testing.T, seeds []int64) {
	metaAddr, notifyAddr := testServices(t)
	r := New2(t, Config{
		IngestAddr: "127.0.0.1:0", ServeAddr: "127.0.0.1:0",
		MetaAddr: metaAddr, NotifyAddr: notifyAddr, Retry: quickPolicy(5),
		StoreDir: t.TempDir(),
		// A tiny retention budget keeps Commit's reclaim pass busy, the
		// window the race needs.
		StoreRetention: chunkstore.Retention{MaxVersions: 2},
		// Constant segment rotation puts appended-but-uncommitted chunks
		// into sealed segments, the ones an interleaved Commit's reclaim
		// can delete or compact away.
		StoreSegmentBytes: 1 << 10,
	})

	const versions = 40
	errs := make(chan error, len(seeds))
	for i, seed := range seeds {
		go func(seed int64, model string) {
			prod, err := remote.NewProducer(remote.ProducerConfig{
				Model: model, MetaAddr: metaAddr, NotifyAddr: notifyAddr,
				RelayAddr: r.IngestAddr(), Retry: quickPolicy(seed), ChunkSize: 128,
			})
			if err != nil {
				errs <- err
				return
			}
			defer prod.Close()
			for v := 1; v <= versions; v++ {
				if _, err := prod.Publish(nn.TakeSnapshot(testModel(seed+int64(v))), uint64(v), 0.5); err != nil {
					errs <- err
					return
				}
				// A short gap lets most pushes through the link's
				// backpressure shedding, maximizing interleaved commits.
				time.Sleep(time.Millisecond)
			}
			errs <- nil
		}(seed, fmt.Sprintf("m%d", i))
	}
	for range seeds {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	// Producers are closed; wait for the ingest pipeline to drain. A
	// commit counts its store write before its catalog insert, so a
	// snapshot with more stored than cached versions is mid-commit, not
	// drained.
	var st Stats
	waitFor(t, 20*time.Second, func() bool {
		prev := st
		st = r.Stats()
		return st.CachedVersions > int64(len(seeds)) && st == prev && st.StoredVersions <= st.CachedVersions
	}, "ingest pipeline drained")
	if st.StoreErrors != 0 || st.StoredVersions != st.CachedVersions {
		t.Fatalf("concurrent persists lost durability: StoredVersions=%d CachedVersions=%d StoreErrors=%d (stats %+v)",
			st.StoredVersions, st.CachedVersions, st.StoreErrors, st)
	}
}

// New2 builds a relay from cfg with cleanup registered.
func New2(t *testing.T, cfg Config) *Relay {
	t.Helper()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeChecked(t, r) })
	return r
}

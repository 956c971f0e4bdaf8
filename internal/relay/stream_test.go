package relay

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"viper/internal/chunkstore"
	"viper/internal/faults"
	"viper/internal/nn"
	"viper/internal/transport"
	"viper/internal/vformat"
)

// wideSnapshot is a model big enough to span well over 16 chunks at the
// tests' 128-byte chunk size.
func wideSnapshot(seed int64) nn.Snapshot {
	rng := rand.New(rand.NewSource(seed))
	return nn.TakeSnapshot(nn.NewSequential("m",
		nn.NewDense("d1", 16, 16, rng), nn.NewTanh("t"), nn.NewDense("d2", 16, 2, rng)))
}

// streamFrames encodes one version and returns it as the tagged frames a
// relay-mode producer would send — header first, then one frame per
// record — with the records' content hashes, so a test can stop
// anywhere in the stream.
func streamFrames(t *testing.T, model string, version uint64, snap nn.Snapshot) (head transport.Frame, recs []transport.Frame, hashes []vformat.ChunkHash) {
	t.Helper()
	blob, hashes := encodeVersion(t, model, version, snap, 128)
	_, _, headerLen, err := vformat.ParseChunkHeader(blob)
	if err != nil {
		t.Fatal(err)
	}
	key := fmt.Sprintf("%s/v%08d", model, version)
	tag := func(f transport.Frame) transport.Frame {
		f.Meta["model"] = model
		f.Meta["version"] = strconv.FormatUint(version, 10)
		return f
	}
	head = tag(transport.Frame{Key: key, Payload: blob[:headerLen], Meta: map[string]string{
		transport.MetaChunkRole:  transport.ChunkRoleHeader,
		transport.MetaChunkCount: strconv.Itoa(len(hashes)),
	}})
	err = vformat.WalkChunkRecords(blob, func(rec []byte) error {
		recs = append(recs, tag(transport.ChunkRecordFrame(key, rec)))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return head, recs, hashes
}

func sendFrames(t *testing.T, link *transport.TCPLink, frames ...transport.Frame) {
	t.Helper()
	for _, f := range frames {
		if err := link.Send(f); err != nil {
			t.Fatal(err)
		}
	}
}

// waitOnDisk polls until the relay's store indexes n records. An
// untagged build's keys are its own and known to nobody outside it, so a
// build still arriving is watched by count, on a store that held nothing
// before it.
func waitOnDisk(t *testing.T, r *Relay, n int) {
	t.Helper()
	waitFor(t, 10*time.Second, func() bool { return r.store.Stats().Chunks == n }, fmt.Sprintf("%d records on disk", n))
}

// storedKeys returns the keys the store lists for model/version — the
// version's own, whatever it was keyed by.
func storedKeys(t *testing.T, r *Relay, model string, version uint64) []vformat.ChunkHash {
	t.Helper()
	m, ok := r.store.Meta(model, version)
	if !ok {
		t.Fatalf("the store holds no %s v%d", model, version)
	}
	return m.Hashes
}

// collectVersion dials the serve address and assembles the first
// version the relay fans out.
func collectVersion(t *testing.T, r *Relay) *vformat.Checkpoint {
	t.Helper()
	cons, err := transport.DialTCP(r.ServeAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()
	for {
		f, err := cons.Recv()
		if err != nil {
			t.Fatalf("waiting for a header frame: %v", err)
		}
		if !transport.IsChunkHeader(f) {
			continue
		}
		ckpt, _, err := transport.CollectChunked(context.Background(), f, nil, cons.Recv)
		if err != nil {
			t.Fatal(err)
		}
		return ckpt
	}
}

// TestStreamingWriteAheadOfCommit pins the mechanism without a clock:
// records reach the store while the stream is still arriving — before
// the version exists anywhere a consumer or a restart could see it — so
// the last record leaves only the commit barrier.
func TestStreamingWriteAheadOfCommit(t *testing.T) {
	r := storeRelay(t, t.TempDir(), chunkstore.Retention{})
	link, err := transport.DialTCP(r.IngestAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()

	snap := wideSnapshot(61)
	head, recs, _ := streamFrames(t, "m", 1, snap)
	if len(recs) < 16 {
		t.Fatalf("model too small: %d records", len(recs))
	}
	last := len(recs) - 1
	sendFrames(t, link, head)
	sendFrames(t, link, recs[:last]...)
	waitOnDisk(t, r, last)
	if vs := r.store.Versions("m"); len(vs) != 0 {
		t.Fatalf("store already holds versions %v with one record outstanding", vs)
	}
	if st := r.Stats(); st.CachedVersions != 0 || st.StoredVersions != 0 {
		t.Fatalf("version visible with one record outstanding: %+v", st)
	}
	if inv := r.Inventory(); len(inv) != 0 {
		t.Fatalf("catalog entry with one record outstanding: %+v", inv)
	}

	sendFrames(t, link, recs[last])
	waitFor(t, 10*time.Second, func() bool { return r.Stats().StoredVersions == 1 }, "v1 stored")
	if st := r.Stats(); st.StoreErrors != 0 {
		t.Fatalf("StoreErrors = %d", st.StoreErrors)
	}
	// The records on disk before the commit are the version's: it lists
	// them, and the last one beside them.
	keys := storedKeys(t, r, "m", 1)
	if n := r.store.Stats().Chunks; n != len(keys) || len(keys) != len(recs) {
		t.Fatalf("the store indexes %d records, v1 lists %d keys, the stream had %d records", n, len(keys), len(recs))
	}
	for i, k := range keys {
		if got, err := r.store.ReadChunk(k, nil); err != nil || !bytes.Equal(got, recs[i].Payload) {
			t.Fatalf("record %d under v1's key %s: err %v, want the pushed bytes", i, k, err)
		}
	}
	ckpt := collectVersion(t, r)
	if ckpt.Version != 1 || !snapshotsEqual(ckpt.Weights, snap) {
		t.Fatalf("installed v%d (equal=%v), want bit-identical v1", ckpt.Version, snapshotsEqual(ckpt.Weights, snap))
	}
}

// TestProducerDiesMidStream: a connection dropped partway through a
// version leaves no catalog entry and no store version, and its store
// handle is aborted — the orphaned bytes go with the next commit's
// reclaim pass, which a still-pinned handle would prevent. The next
// full push commits and serves as if nothing had happened.
func TestProducerDiesMidStream(t *testing.T) {
	r := New2(t, Config{
		IngestAddr: "127.0.0.1:0", ServeAddr: "127.0.0.1:0", Retry: quickPolicy(1),
		StoreDir: t.TempDir(),
		// Every record rotates, so the orphans sit in sealed segments.
		StoreSegmentBytes: 64,
	})
	link, err := transport.DialTCP(r.IngestAddr())
	if err != nil {
		t.Fatal(err)
	}
	head, recs, _ := streamFrames(t, "m", 1, wideSnapshot(62))
	const k = 5
	sendFrames(t, link, head)
	sendFrames(t, link, recs[:k]...)
	waitOnDisk(t, r, k)
	link.Close()
	waitFor(t, 10*time.Second, func() bool { return r.Stats().AbandonedBuilds == 1 }, "build abandoned")
	if inv := r.Inventory(); len(inv) != 0 {
		t.Fatalf("torn stream reached the catalog: %+v", inv)
	}
	if vs := r.store.Versions("m"); len(vs) != 0 {
		t.Fatalf("torn stream reached the store: %v", vs)
	}

	link2, err := transport.DialTCP(r.IngestAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer link2.Close()
	snap2 := wideSnapshot(63)
	pushChunked(t, link2, "m", 2, snap2, 128)
	waitFor(t, 10*time.Second, func() bool { return r.Stats().StoredVersions == 1 }, "v2 stored")
	if n, keys := r.store.Stats().Chunks, storedKeys(t, r, "m", 2); n != len(keys) {
		t.Fatalf("the store indexes %d records, v2 lists %d: the dead connection's %d orphans survived v2's reclaim pass — its handle still pins them", n, len(keys), n-len(keys))
	}
	ckpt := collectVersion(t, r)
	if ckpt.Version != 2 || !snapshotsEqual(ckpt.Weights, snap2) {
		t.Fatalf("installed v%d (equal=%v), want bit-identical v2", ckpt.Version, snapshotsEqual(ckpt.Weights, snap2))
	}
	if st := r.Stats(); st.StoreErrors != 0 {
		t.Fatalf("StoreErrors = %d", st.StoreErrors)
	}
}

// TestStoreFaultMidBuildServesFromMemory: the store dies on the seventh
// record of a stream. The ingest must not fail — the version commits to
// memory and serves — and the failure is counted once, not once per
// remaining record; nothing partial is visible after a restart.
func TestStoreFaultMidBuildServesFromMemory(t *testing.T) {
	dir := t.TempDir()
	r := storeRelay(t, dir, chunkstore.Retention{})
	// Swap in a store that consults an injector, before any connection
	// exists (under r.life, which orders the write before every ingest
	// goroutine the accept loop goes on to start).
	r.life.Lock()
	r.store.Close()
	faulty, err := chunkstore.Open(dir, chunkstore.Options{
		Injector: faults.New(faults.Config{Seed: 1, FailRate: 1, SkipFirst: 6}),
	})
	if err == nil {
		r.store = faulty
	}
	r.life.Unlock()
	if err != nil {
		t.Fatal(err)
	}

	link, err := transport.DialTCP(r.IngestAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	snap := wideSnapshot(64)
	pushChunked(t, link, "m", 1, snap, 128)
	waitFor(t, 10*time.Second, func() bool { return r.Stats().CachedVersions == 1 }, "v1 cached")
	if st := r.Stats(); st.StoreErrors != 1 || st.StoredVersions != 0 {
		t.Fatalf("StoreErrors = %d, StoredVersions = %d, want one counted failure and a memory-only version", st.StoreErrors, st.StoredVersions)
	}
	inv := r.Inventory()
	if len(inv) != 1 || inv[0].Stored || inv[0].Chunks < 10 {
		t.Fatalf("inventory = %+v, want one unstored version of at least 10 chunks", inv)
	}
	ckpt := collectVersion(t, r)
	if ckpt.Version != 1 || !snapshotsEqual(ckpt.Weights, snap) {
		t.Fatalf("installed v%d (equal=%v), want bit-identical v1 from memory", ckpt.Version, snapshotsEqual(ckpt.Weights, snap))
	}
	link.Close()
	r.Close()

	st, err := chunkstore.Open(dir, chunkstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if models := st.Models(); len(models) != 0 {
		t.Fatalf("reopened store shows %v after a failed build, want nothing", models)
	}
	if s := st.Stats(); s.CorruptChunks != 0 {
		t.Fatalf("CorruptChunks = %d after reopen", s.CorruptChunks)
	}
}

// TestCloseDuringInFlightStream closes the relay while a producer is
// mid-version and still sending: the connection's reader and handler
// must both exit (Close returns; the package's leakcheck TestMain fails
// the run if either goroutine survives).
func TestCloseDuringInFlightStream(t *testing.T) {
	r, err := New(Config{
		IngestAddr: "127.0.0.1:0", ServeAddr: "127.0.0.1:0", Retry: quickPolicy(1),
		StoreDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	link, err := transport.DialTCP(r.IngestAddr())
	if err != nil {
		r.Close()
		t.Fatal(err)
	}
	defer link.Close()
	head, recs, _ := streamFrames(t, "m", 1, wideSnapshot(65))
	sendFrames(t, link, head)
	sendFrames(t, link, recs[:4]...)
	waitFor(t, 10*time.Second, func() bool { return r.Stats().IngestFrames == 5 }, "stream in flight")

	// Keep frames coming (strays, once the build is gone) until the
	// relay hangs up, so Close races a busy reader and a busy handler.
	sender := make(chan struct{})
	go func() {
		defer close(sender)
		for link.Send(recs[3]) == nil {
		}
	}()
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		r.Close()
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return with a stream in flight")
	}
	<-sender
	if st := r.Stats(); st.CachedVersions != 0 {
		t.Fatalf("incomplete stream committed: %+v", st)
	}
}

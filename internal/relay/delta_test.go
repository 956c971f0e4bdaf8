package relay

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"testing"
	"time"

	"viper/internal/core"
	"viper/internal/nn"
	"viper/internal/remote"
	"viper/internal/transport"
	"viper/internal/vformat"
)

// encodeVersion fully encodes one checkpoint the way a relay-mode
// producer does and returns the packed blob plus per-chunk hashes.
func encodeVersion(t *testing.T, model string, version uint64, snap nn.Snapshot, chunkBytes int) ([]byte, []vformat.ChunkHash) {
	t.Helper()
	ckpt := &vformat.Checkpoint{ModelName: model, Version: version, Iteration: version * 10, TrainLoss: 0.5, Weights: snap}
	enc, err := vformat.NewChunkEncoder(ckpt, vformat.ChunkOptions{ChunkBytes: chunkBytes})
	if err != nil {
		t.Fatal(err)
	}
	defer enc.Release()
	if err := enc.EncodeStream(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	blob, err := enc.Blob()
	if err != nil {
		t.Fatal(err)
	}
	hashes, err := enc.Hashes()
	if err != nil {
		t.Fatal(err)
	}
	cp := make([]byte, len(blob))
	copy(cp, blob)
	return cp, append([]vformat.ChunkHash(nil), hashes...)
}

// ingestTags builds the per-frame metadata a relay-mode producer
// attaches; reconcile marks the sender delta-capable.
func ingestTags(t *testing.T, model string, version uint64, size int64, reconcile bool) map[string]string {
	t.Helper()
	tags := map[string]string{"model": model, "version": strconv.FormatUint(version, 10)}
	if reconcile {
		tags[transport.MetaReconcile] = "1"
	}
	meta := core.ModelMeta{
		Name: model, Version: version, Iteration: version * 10,
		Location: core.RouteRelay, Path: fmt.Sprintf("%s/v%08d", model, version),
		Size: size, Format: "vchunk",
	}
	if encoded, err := meta.Encode(); err == nil {
		tags[core.RelayMetaTag] = encoded
	}
	return tags
}

// pushReconcile streams one full chunked version flagged delta-capable.
func pushReconcile(t *testing.T, link *transport.TCPLink, model string, version uint64, snap nn.Snapshot, chunkBytes int) {
	t.Helper()
	ckpt := &vformat.Checkpoint{ModelName: model, Version: version, Iteration: version * 10, TrainLoss: 0.5, Weights: snap}
	enc, err := vformat.NewChunkEncoder(ckpt, vformat.ChunkOptions{ChunkBytes: chunkBytes})
	if err != nil {
		t.Fatal(err)
	}
	defer enc.Release()
	tags := ingestTags(t, model, version, int64(enc.EncodedSize()), true)
	key := fmt.Sprintf("%s/v%08d", model, version)
	if err := transport.SendChunked(context.Background(), transport.WithMeta(link, tags), key, enc, 0); err != nil {
		t.Fatalf("push v%d: %v", version, err)
	}
}

// recvHave reads frames off the producer link until a have-frame
// arrives and returns its parsed content.
func recvHave(t *testing.T, link *transport.TCPLink) (string, uint64, []vformat.ChunkHash) {
	t.Helper()
	for {
		f, err := link.Recv()
		if err != nil {
			t.Fatalf("recv have: %v", err)
		}
		if !transport.IsHaveFrame(f) {
			continue
		}
		model, version, hashes, err := transport.ParseHaveFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		return model, version, hashes
	}
}

// waitSessionHave polls until some consumer session has processed a
// have-list of at least n hashes.
func waitSessionHave(t *testing.T, r *Relay, n int) {
	t.Helper()
	waitFor(t, 5*time.Second, func() bool {
		r.life.Lock()
		defer r.life.Unlock()
		for s := range r.sessions {
			s.mu.Lock()
			got := len(s.have)
			s.mu.Unlock()
			if got >= n {
				return true
			}
		}
		return false
	}, "session have-list")
}

// TestDeltaIngestUpstreamHaveAndDedup: a delta-capable producer pushes
// v1 full, receives the relay's have-list, and ships v2 as
// manifest+missing. The relay prefills the overlap from its
// content-addressed store, commits a byte-complete version, and a fresh
// consumer can fetch it whole.
func TestDeltaIngestUpstreamHaveAndDedup(t *testing.T) {
	r := testRelay(t)
	link, err := transport.DialTCP(r.IngestAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()

	snap1 := nn.TakeSnapshot(testModel(7))
	pushReconcile(t, link, "m", 1, snap1, 128)
	model, vnum, have := recvHave(t, link)
	if model != "m" || vnum != 1 || len(have) < 2 {
		t.Fatalf("upstream have = %s v%d ×%d, want m v1 with several chunks", model, vnum, len(have))
	}

	// v2 drifts one element; plan a delta against the advertised store.
	snap2 := nn.TakeSnapshot(testModel(7))
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
	if len(records) == 0 || len(records) >= len(hashes2) {
		t.Fatalf("delta ships %d of %d records, want a strict subset", len(records), len(hashes2))
	}
	tags := ingestTags(t, "m", 2, int64(len(blob2)), true)
	key := "m/v00000002"
	if err := transport.SendChunkedDelta(context.Background(), transport.WithMeta(link, tags), key, manifest, records, len(hashes2), len(blob2)); err != nil {
		t.Fatal(err)
	}
	elided := len(hashes2) - len(records)
	waitFor(t, 5*time.Second, func() bool {
		s := r.Stats()
		return s.CachedVersions == 2 && s.DeltaVersions == 1 && s.DedupedChunks == int64(elided)
	}, "delta version committed with dedup")
	if _, vnum, _ := recvHave(t, link); vnum != 2 {
		t.Fatalf("second upstream have advertises v%d, want v2", vnum)
	}

	inv, err := FetchInventory(r.IngestAddr())
	if err != nil {
		t.Fatal(err)
	}
	var v2 *VersionInfo
	for i := range inv {
		if inv[i].Version == 2 {
			v2 = &inv[i]
		}
	}
	if v2 == nil || !v2.Delta || v2.Deduped != elided || len(v2.Hashes) != len(hashes2) {
		t.Fatalf("v2 inventory = %+v, want delta with %d deduped and %d hashes", v2, elided, len(hashes2))
	}

	// A fresh consumer (no have-list) must receive the delta-ingested
	// version as a classic full stream, byte-identical to a full decode.
	cons, err := transport.DialTCP(r.ServeAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()
	f, err := cons.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !transport.IsChunkHeader(f) {
		t.Fatalf("fresh consumer got %q meta %v, want a plain chunk header", f.Key, f.Meta)
	}
	ckpt, _, err := transport.CollectChunked(context.Background(), f, nil, cons.Recv)
	if err != nil {
		t.Fatal(err)
	}
	if ckpt.Version != 2 || !snapshotsEqual(ckpt.Weights, snap2) {
		t.Fatalf("assembled v%d (equal=%v), want byte-identical v2", ckpt.Version, snapshotsEqual(ckpt.Weights, snap2))
	}
}

// TestDeltaIngestNeedResend: the producer planned against a have-list
// the relay can no longer honor (the chunk left the store). The relay
// must ask for the gap with a need-list and commit only once the
// re-sent record lands — whole or not at all.
func TestDeltaIngestNeedResend(t *testing.T) {
	r := testRelay(t)
	link, err := transport.DialTCP(r.IngestAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()

	snap := nn.TakeSnapshot(testModel(9))
	blob, hashes := encodeVersion(t, "m", 1, snap, 128)
	if len(hashes) < 3 {
		t.Fatalf("model too small: %d chunks", len(hashes))
	}
	// Pretend the relay advertised one chunk it does not actually hold
	// (it evicted between the advert and this push).
	stale := hashes[1]
	manifest, records, _, _, err := vformat.PlanDelta(blob, func(h vformat.ChunkHash) bool { return h == stale })
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != len(hashes)-1 {
		t.Fatalf("planned %d records, want %d", len(records), len(hashes)-1)
	}
	tags := ingestTags(t, "m", 1, int64(len(blob)), true)
	key := "m/v00000001"
	conn := transport.WithMeta(link, tags)
	if err := transport.SendChunkedDelta(context.Background(), conn, key, manifest, records, len(hashes), len(blob)); err != nil {
		t.Fatal(err)
	}

	// The relay must come back asking for exactly the stale chunk.
	f, err := link.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !transport.IsNeedFrame(f) {
		t.Fatalf("got %q meta %v, want the relay's need-list", f.Key, f.Meta)
	}
	needKey, needHashes, err := transport.ParseNeedFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	if needKey != key || len(needHashes) != 1 || needHashes[0] != stale {
		t.Fatalf("need-list = %s %v, want the stale hash for %s", needKey, needHashes, key)
	}
	if r.Stats().CachedVersions != 0 {
		t.Fatal("version committed before the gap was filled")
	}
	err = vformat.WalkChunkRecords(blob, func(rec []byte) error {
		if vformat.HashChunkRecord(rec) == stale {
			return conn.Send(transport.ChunkRecordFrame(key, rec))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		s := r.Stats()
		return s.CachedVersions == 1 && s.NeedResends >= 1
	}, "gap refilled and committed")

	cons, err := transport.DialTCP(r.ServeAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()
	hf, err := cons.Recv()
	if err != nil {
		t.Fatal(err)
	}
	ckpt, _, err := transport.CollectChunked(context.Background(), hf, nil, cons.Recv)
	if err != nil {
		t.Fatal(err)
	}
	if !snapshotsEqual(ckpt.Weights, snap) {
		t.Fatal("recovered version is not byte-identical")
	}
}

// TestDeltaFanoutToAdvertisingConsumer: a consumer that advertises its
// span source is served manifest+missing deltas of the versions a
// reconciling producer pushed (keyed by content); a position its source
// moved on from since is recovered via need-list from the relay's store;
// an unsatisfiable need-list is refused off-stream so the consumer can
// tear cleanly.
func TestDeltaFanoutToAdvertisingConsumer(t *testing.T) {
	r := testRelay(t)
	link, err := transport.DialTCP(r.IngestAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()

	snap := nn.TakeSnapshot(testModel(11))
	blob, hashes := encodeVersion(t, "m", 1, snap, 128)
	dec, err := vformat.DecodeChunked(context.Background(), blob, 0)
	if err != nil {
		t.Fatal(err)
	}
	src, err := vformat.NewSpanSource(blob, hashes, dec.Weights)
	if err != nil {
		t.Fatal(err)
	}

	cons, err := transport.DialTCP(r.ServeAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()
	if err := cons.Send(transport.NewHaveFrame("m", 0, src.Hashes())); err != nil {
		t.Fatal(err)
	}
	waitSessionHave(t, r, len(hashes))

	pushReconcile(t, link, "m", 1, snap, 128)
	mf, err := cons.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !transport.IsManifestHeader(mf) {
		t.Fatalf("advertising consumer got %q meta %v, want a manifest header", mf.Key, mf.Meta)
	}
	asm, err := vformat.NewManifestAssembler(mf.Payload, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	ckpt, _, err := transport.CollectChunkedDeltaInto(context.Background(), mf, asm, cons.Recv, cons.Send)
	if err != nil {
		t.Fatal(err)
	}
	if inherited := asm.Inherited(); inherited != len(hashes) || ckpt.Version != 1 || !snapshotsEqual(ckpt.Weights, snap) {
		t.Fatalf("delta fan-out inherited %d/%d, version %d", inherited, len(hashes), ckpt.Version)
	}
	waitFor(t, 5*time.Second, func() bool { return r.Stats().DeltaFanouts == 1 }, "delta fan-out counted")

	// Chaos: the consumer's source moved on at chunk 0 since it advertised
	// it. The next delta omits the chunk, so the collect must need-list it
	// back from the relay's store and still finish bit-exact.
	moved := slices.Clone(hashes)
	moved[0] = vformat.ChunkHash{0xee}
	src2, err := vformat.NewSpanSource(blob, moved, dec.Weights)
	if err != nil {
		t.Fatal(err)
	}
	snap2 := nn.TakeSnapshot(testModel(11))
	pushReconcile(t, link, "m", 2, snap2, 128)
	mf2, err := cons.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !transport.IsManifestHeader(mf2) {
		t.Fatalf("second fan-out got %q meta %v, want a manifest header", mf2.Key, mf2.Meta)
	}
	asm2, err := vformat.NewManifestAssembler(mf2.Payload, src2, nil)
	if err != nil {
		t.Fatal(err)
	}
	ckpt2, _, err := transport.CollectChunkedDeltaInto(context.Background(), mf2, asm2, cons.Recv, cons.Send)
	if err != nil {
		t.Fatal(err)
	}
	if ckpt2.Version != 2 || !snapshotsEqual(ckpt2.Weights, snap2) {
		t.Fatalf("need-resend fan-out delivered v%d (equal=%v)", ckpt2.Version, snapshotsEqual(ckpt2.Weights, snap2))
	}
	waitFor(t, 5*time.Second, func() bool { return r.Stats().NeedResends >= 1 }, "need resend counted")

	// A need-list for a chunk the store never held is refused with an
	// off-stream resend notice, never partially answered.
	bogus := vformat.ChunkHash{0xde, 0xad, 0xbe, 0xef}
	if err := cons.Send(transport.NewNeedFrame("m/v00000002", []vformat.ChunkHash{bogus})); err != nil {
		t.Fatal(err)
	}
	rej, err := cons.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if rej.Key != RejectKey || rej.Meta["reason"] != rejectReasonResend {
		t.Fatalf("unsatisfiable need answered with %q meta %v, want a resend refusal", rej.Key, rej.Meta)
	}
}

// TestUntaggedVersionFansOutWhole: a version pushed without the reconcile
// tag is keyed per build, not by content, so a consumer that advertises
// exactly the version's chunks still receives it as a full stream — the
// trade an untagged push makes for an ingest that hashes nothing.
func TestUntaggedVersionFansOutWhole(t *testing.T) {
	r := testRelay(t)
	link, err := transport.DialTCP(r.IngestAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()

	snap := nn.TakeSnapshot(testModel(12))
	_, hashes := encodeVersion(t, "m", 1, snap, 128)
	cons, err := transport.DialTCP(r.ServeAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()
	if err := cons.Send(transport.NewHaveFrame("m", 0, hashes)); err != nil {
		t.Fatal(err)
	}
	waitSessionHave(t, r, len(hashes))

	pushChunked(t, link, "m", 1, snap, 128)
	hf, err := cons.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !transport.IsChunkHeader(hf) {
		t.Fatalf("advertising consumer got %q meta %v for an untagged version, want a plain chunk header", hf.Key, hf.Meta)
	}
	ckpt, _, err := transport.CollectChunked(context.Background(), hf, nil, cons.Recv)
	if err != nil || ckpt.Version != 1 || !snapshotsEqual(ckpt.Weights, snap) {
		t.Fatalf("untagged version assembled as v%d (err %v), want v1 bit for bit", ckpt.Version, err)
	}
	waitFor(t, 5*time.Second, func() bool { return r.Stats().ServedVersions == 1 }, "the fan-out counted")
	if st := r.Stats(); st.DeltaFanouts != 0 {
		t.Fatalf("untagged version served as a delta: %+v", st)
	}
}

// TestChunkStoreRefcountOnEvictAndSupersede: evicting a version takes
// its records out of memory and a superseded half-built one never put
// any in; what the relay holds converges to exactly the live version.
func TestChunkStoreRefcountOnEvictAndSupersede(t *testing.T) {
	r := testRelay(t)
	link, err := transport.DialTCP(r.IngestAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()

	snapA := nn.TakeSnapshot(testModel(20))
	blobA, hashesA := encodeVersion(t, "m", 1, snapA, 128)
	pushChunked(t, link, "m", 1, snapA, 128)
	waitFor(t, 5*time.Second, func() bool {
		r.Stats()
		return Metrics().Gauge("unique_chunks").Value() == int64(len(hashesA)) &&
			Metrics().Gauge("cache_bytes").Value() == int64(len(blobA))
	}, "store holds exactly v1")

	// Committing v2 evicts v1, whose chunks share nothing with v2's —
	// every one must leave memory.
	snapB := nn.TakeSnapshot(testModel(21))
	blobB, hashesB := encodeVersion(t, "m", 2, snapB, 128)
	pushChunked(t, link, "m", 2, snapB, 128)
	waitFor(t, 5*time.Second, func() bool {
		r.Stats()
		return Metrics().Gauge("unique_chunks").Value() == int64(len(hashesB)) &&
			Metrics().Gauge("cache_bytes").Value() == int64(len(blobB))
	}, "eviction released v1's chunks")

	// Half-push v3, then supersede it with a complete v4: the abandoned
	// build's records must leave nothing behind.
	snapC := nn.TakeSnapshot(testModel(22))
	blobC, hashesC := encodeVersion(t, "m", 3, snapC, 128)
	key3 := "m/v00000003"
	tags3 := ingestTags(t, "m", 3, int64(len(blobC)), false)
	conn3 := transport.WithMeta(link, tags3)
	if err := conn3.Send(transport.Frame{Key: key3, Payload: blobC[:len(blobC)-int(chunkBytesOf(t, blobC, hashesC))], Meta: map[string]string{
		transport.MetaChunkRole:  transport.ChunkRoleHeader,
		transport.MetaChunkCount: strconv.Itoa(len(hashesC)),
	}}); err != nil {
		t.Fatal(err)
	}
	sent := 0
	err = vformat.WalkChunkRecords(blobC, func(rec []byte) error {
		if sent >= 2 {
			return nil
		}
		sent++
		return conn3.Send(transport.ChunkRecordFrame(key3, rec))
	})
	if err != nil {
		t.Fatal(err)
	}

	snapD := nn.TakeSnapshot(testModel(23))
	blobD, hashesD := encodeVersion(t, "m", 4, snapD, 128)
	pushChunked(t, link, "m", 4, snapD, 128)
	waitFor(t, 5*time.Second, func() bool {
		s := r.Stats()
		return s.SupersededBuilds == 1 &&
			Metrics().Gauge("unique_chunks").Value() == int64(len(hashesD)) &&
			Metrics().Gauge("cache_bytes").Value() == int64(len(blobD))
	}, "supersede and eviction released every dead chunk")
}

// chunkBytesOf returns the total byte length of blob's packed chunk
// records (so callers can slice off the header prefix).
func chunkBytesOf(t *testing.T, blob []byte, hashes []vformat.ChunkHash) int64 {
	t.Helper()
	var n int64
	err := vformat.WalkChunkRecords(blob, func(rec []byte) error {
		n += int64(len(rec))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(hashes) == 0 {
		t.Fatal("no chunks")
	}
	return n
}

// TestEndToEndDeltaThroughRelay closes the loop: a relay-mode producer
// learns the relay's store from upstream have-lists and pushes deltas
// into it, while consumers that advertise their caches are served
// delta fan-outs — and every install stays byte-identical.
func TestEndToEndDeltaThroughRelay(t *testing.T) {
	metaAddr, notifyAddr := testServices(t)
	r, err := New(Config{
		IngestAddr: "127.0.0.1:0", ServeAddr: "127.0.0.1:0",
		MetaAddr: metaAddr, NotifyAddr: notifyAddr, Retry: quickPolicy(30),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeChecked(t, r) })

	prod, err := remote.NewProducer(remote.ProducerConfig{
		Model: "m", MetaAddr: metaAddr, NotifyAddr: notifyAddr,
		RelayAddr: r.IngestAddr(), Retry: quickPolicy(31), ChunkSize: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer prod.Close()

	const nConsumers = 2
	consumers := make([]*remote.Consumer, nConsumers)
	for i := range consumers {
		c, err := remote.NewConsumer(remote.ConsumerConfig{
			Model: "m", MetaAddr: metaAddr, NotifyAddr: notifyAddr,
			ProducerAddr: r.ServeAddr(), Retry: quickPolicy(int64(40 + i)),
			LinkWait: 500 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("consumer %d: %v", i, err)
		}
		defer c.Close()
		consumers[i] = c
	}

	// Drift the same base snapshot one element per version and walk the
	// pipeline until both delta directions have demonstrably engaged.
	var version uint64
	publish := func() nn.Snapshot {
		version++
		snap := nn.TakeSnapshot(testModel(55))
		snap[0].Data[0] += float64(version)
		if _, err := prod.Publish(snap, version*10, 0.5); err != nil {
			t.Fatalf("publish v%d: %v", version, err)
		}
		return snap
	}
	consume := func(want nn.Snapshot) {
		for i, c := range consumers {
			deadline := time.Now().Add(30 * time.Second)
			for {
				ckpt, err := c.Next(2 * time.Second)
				if err != nil {
					if time.Now().After(deadline) {
						t.Fatalf("consumer %d stuck before v%d: %v (stats %+v)", i, version, err, c.Stats())
					}
					continue
				}
				if ckpt.Version < version {
					continue
				}
				if ckpt.Version != version || !snapshotsEqual(ckpt.Weights, want) {
					t.Fatalf("consumer %d installed v%d (equal=%v), want byte-identical v%d",
						i, ckpt.Version, snapshotsEqual(ckpt.Weights, want), version)
				}
				break
			}
		}
	}
	consume(publish())
	deadline := time.Now().Add(30 * time.Second)
	for {
		consume(publish())
		s := r.Stats()
		if s.DeltaVersions >= 1 && s.DeltaFanouts >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("delta never engaged end to end: relay stats %+v", s)
		}
	}
	var deltaLoads int64
	for _, c := range consumers {
		deltaLoads += c.Stats().DeltaLoads
	}
	if deltaLoads == 0 {
		t.Fatalf("no consumer recorded a delta load; relay stats %+v", r.Stats())
	}
}

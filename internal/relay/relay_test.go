package relay

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"viper/internal/chunkstore"
	"viper/internal/core"
	"viper/internal/kvstore"
	"viper/internal/nn"
	"viper/internal/pubsub"
	"viper/internal/remote"
	"viper/internal/retry"
	"viper/internal/transport"
	"viper/internal/vformat"
)

// quickPolicy is a fast deterministic retry schedule for tests.
func quickPolicy(seed int64) retry.Policy {
	return retry.Policy{
		MaxAttempts: 8, BaseDelay: time.Millisecond,
		MaxDelay: 20 * time.Millisecond, Multiplier: 2,
		Jitter: 0.2, Seed: seed,
	}
}

// testServices starts a kvstore and a pubsub server on loopback.
func testServices(t *testing.T) (metaAddr, notifyAddr string) {
	t.Helper()
	kvSrv := kvstore.NewServer(kvstore.NewStore())
	metaAddr, err := kvSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { kvSrv.Close() })
	psSrv := pubsub.NewServer(pubsub.NewBroker(64))
	notifyAddr, err = psSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { psSrv.Close() })
	return metaAddr, notifyAddr
}

func testModel(seed int64) *nn.Sequential {
	rng := rand.New(rand.NewSource(seed))
	return nn.NewSequential("m", nn.NewDense("d1", 4, 8, rng), nn.NewTanh("t"), nn.NewDense("d2", 8, 2, rng))
}

// snapshotsEqual compares two weight snapshots bit-for-bit.
func snapshotsEqual(a, b nn.Snapshot) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || len(a[i].Data) != len(b[i].Data) {
			return false
		}
		for j := range a[i].Data {
			if a[i].Data[j] != b[i].Data[j] {
				return false
			}
		}
	}
	return true
}

// testRelay starts a relay without metadata/notification services.
func testRelay(t *testing.T) *Relay {
	t.Helper()
	r, err := New(Config{
		IngestAddr: "127.0.0.1:0", ServeAddr: "127.0.0.1:0",
		Retry: quickPolicy(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeChecked(t, r) })
	return r
}

// pushChunked streams one chunked version into the relay's ingest
// address the way a relay-mode producer does (model/version tags on
// every frame).
func pushChunked(t *testing.T, link *transport.TCPLink, model string, version uint64, snap nn.Snapshot, chunkBytes int) {
	t.Helper()
	ckpt := &vformat.Checkpoint{ModelName: model, Version: version, Iteration: version * 10, TrainLoss: 0.5, Weights: snap}
	enc, err := vformat.NewChunkEncoder(ckpt, vformat.ChunkOptions{ChunkBytes: chunkBytes})
	if err != nil {
		t.Fatal(err)
	}
	defer enc.Release()
	tags := map[string]string{"model": model, "version": strconv.FormatUint(version, 10)}
	key := fmt.Sprintf("%s/v%08d", model, version)
	meta := core.ModelMeta{
		Name: model, Version: version, Iteration: ckpt.Iteration,
		Location: core.RouteRelay, Path: key,
		Size: int64(enc.EncodedSize()), Format: "vchunk",
	}
	if encoded, err := meta.Encode(); err == nil {
		tags[core.RelayMetaTag] = encoded
	}
	if err := transport.SendChunked(context.Background(), transport.WithMeta(link, tags), key, enc, 0); err != nil {
		t.Fatalf("push v%d: %v", version, err)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestIngestCacheAndInventory pushes chunked versions and checks the
// cache content — without a store, only the newest version stays
// catalogued — and the inventory protocol end to end.
func TestIngestCacheAndInventory(t *testing.T) {
	r := testRelay(t)
	link, err := transport.DialTCP(r.IngestAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()

	snap := nn.TakeSnapshot(testModel(1))
	for v := uint64(1); v <= 3; v++ {
		pushChunked(t, link, "m", v, snap, 128)
	}
	waitFor(t, 5*time.Second, func() bool { return r.Stats().CachedVersions == 3 }, "3 cached versions")

	// Versions 1 and 2 were superseded: only the newest is catalogued.
	inv, err := FetchInventory(r.IngestAddr())
	if err != nil {
		t.Fatal(err)
	}
	if len(inv) != 1 || inv[0].Version != 3 {
		t.Fatalf("inventory after eviction: %+v", inv)
	}
	if st := r.Stats(); st.ReleasedVersions != 2 {
		t.Fatalf("superseded versions not released: %+v", st)
	}
	for _, vi := range inv {
		if vi.Model != "m" || vi.Chunks < 2 || vi.Bytes <= 0 {
			t.Fatalf("bad inventory entry: %+v", vi)
		}
		if vi.Key != fmt.Sprintf("m/v%08d", vi.Version) {
			t.Fatalf("bad inventory key: %+v", vi)
		}
	}
}

// TestMonolithicFrameCached: a plain (non-chunked) frame with
// model/version tags opens no stream, so it is a counted stray and
// nothing is cached for it. Nor does a stream whose header carries no
// usable version — absent, unparsable or 0 (versions count from 1): the
// header and the records behind it are strays, and nothing is built,
// stored or announced.
func TestMonolithicFrameCached(t *testing.T) {
	ckpt := &vformat.Checkpoint{ModelName: "m", Version: 1, Weights: nn.TakeSnapshot(testModel(2))}
	for name, tags := range map[string]map[string]string{
		"plain frame":        {"model": "m", "version": "1"},
		"version absent":     {"model": "m"},
		"version unparsable": {"model": "m", "version": "v1"},
		"version 0":          {"model": "m", "version": "0"},
	} {
		r := storeRelay(t, t.TempDir(), chunkstore.Retention{})
		link, err := transport.DialTCP(r.IngestAddr())
		if err != nil {
			t.Fatal(err)
		}
		defer link.Close()
		strays := int64(1)
		if name == "plain frame" {
			payload, err := ckpt.Encode()
			if err != nil {
				t.Fatal(err)
			}
			err = link.Send(transport.Frame{Key: "m/v00000001", Payload: payload, Meta: tags})
			if err != nil {
				t.Fatal(err)
			}
		} else {
			enc, err := vformat.NewChunkEncoder(ckpt, vformat.ChunkOptions{ChunkBytes: 128})
			if err != nil {
				t.Fatal(err)
			}
			defer enc.Release()
			if err := transport.SendChunked(context.Background(), transport.WithMeta(link, tags), "m/v00000000", enc, 0); err != nil {
				t.Fatal(err)
			}
			strays += int64(enc.NumChunks())
		}
		waitFor(t, 5*time.Second, func() bool { return r.Stats().StrayFrames == strays }, name+": stray frames counted")
		inv, err := FetchInventory(r.IngestAddr())
		if err != nil {
			t.Fatal(err)
		}
		if st := r.Stats(); len(inv) != 0 || st.CachedVersions != 0 || st.StoredVersions != 0 || len(r.store.Versions("m")) != 0 {
			t.Fatalf("%s was cached: inventory %+v, stored %v, stats %+v", name, inv, r.store.Versions("m"), st)
		}
	}
}

// TestCorruptChunkDropsVersion: a chunk record failing its vformat CRC
// poisons the whole pending version — nothing is cached, and the
// corruption is counted.
func TestCorruptChunkDropsVersion(t *testing.T) {
	r := testRelay(t)
	link, err := transport.DialTCP(r.IngestAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()

	ckpt := &vformat.Checkpoint{ModelName: "m", Version: 1, Weights: nn.TakeSnapshot(testModel(3))}
	enc, err := vformat.NewChunkEncoder(ckpt, vformat.ChunkOptions{ChunkBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer enc.Release()
	tags := map[string]string{"model": "m", "version": "1"}
	conn := transport.WithMeta(link, tags)
	key := "m/v00000001"
	hf := transport.Frame{Key: key, Payload: enc.Header(), Meta: map[string]string{
		transport.MetaChunkRole:  transport.ChunkRoleHeader,
		transport.MetaChunkCount: strconv.Itoa(enc.NumChunks()),
	}}
	if err := conn.Send(hf); err != nil {
		t.Fatal(err)
	}
	sent := 0
	err = enc.EncodeStream(context.Background(), func(idx int, rec []byte) error {
		payload := rec
		if idx == 1 {
			// Corrupt one record *inside* an intact TCP frame: the
			// frame-level CRC passes, the chunk-record CRC must not.
			payload = append([]byte(nil), rec...)
			payload[len(payload)/2] ^= 0xFF
		}
		sent++
		return conn.Send(transport.ChunkRecordFrame(key, payload))
	})
	if err != nil {
		t.Fatal(err)
	}
	if sent < 2 {
		t.Fatalf("model too small: only %d chunks", sent)
	}
	waitFor(t, 5*time.Second, func() bool { return r.Stats().CorruptChunks == 1 }, "corrupt chunk counted")
	if inv, err := FetchInventory(r.IngestAddr()); err != nil || len(inv) != 0 {
		t.Fatalf("corrupt version reached the cache: %+v (err %v)", inv, err)
	}
}

// TestCatchUpSendsNewestOnly: a consumer connecting after several rapid
// versions is caught up with the newest complete version, not the whole
// history (latest-wins applies to catch-up too).
func TestCatchUpSendsNewestOnly(t *testing.T) {
	r := testRelay(t)
	link, err := transport.DialTCP(r.IngestAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	snap := nn.TakeSnapshot(testModel(4))
	for v := uint64(1); v <= 3; v++ {
		pushChunked(t, link, "m", v, snap, 128)
	}
	waitFor(t, 5*time.Second, func() bool { return r.Stats().CachedVersions == 3 }, "3 cached versions")

	cons, err := transport.DialTCP(r.ServeAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()
	f, err := cons.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !transport.IsChunkHeader(f) || f.Meta["version"] != "3" {
		t.Fatalf("catch-up started with %q meta %v, want the v3 header", f.Key, f.Meta)
	}
	ckpt, _, err := transport.CollectChunked(context.Background(), f, nil, cons.Recv)
	if err != nil {
		t.Fatal(err)
	}
	if ckpt.Version != 3 || !snapshotsEqual(ckpt.Weights, snap) {
		t.Fatalf("catch-up delivered v%d (equal=%v), want byte-identical v3", ckpt.Version, snapshotsEqual(ckpt.Weights, snap))
	}
}

// TestRelayAnnouncesMetadataAndNotification: with KV and pubsub
// configured, a completed version produces relay-located metadata and a
// republished update notification carrying the producer's iteration.
func TestRelayAnnouncesMetadataAndNotification(t *testing.T) {
	metaAddr, notifyAddr := testServices(t)
	r, err := New(Config{
		IngestAddr: "127.0.0.1:0", ServeAddr: "127.0.0.1:0",
		MetaAddr: metaAddr, NotifyAddr: notifyAddr, Retry: quickPolicy(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeChecked(t, r) })

	ps, err := pubsub.DialClient(notifyAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	events, err := ps.Subscribe(core.UpdateChannel("m"))
	if err != nil {
		t.Fatal(err)
	}

	link, err := transport.DialTCP(r.IngestAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	pushChunked(t, link, "m", 7, nn.TakeSnapshot(testModel(5)), 128)

	select {
	case msg := <-events:
		meta, err := core.DecodeMeta(msg.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if meta.Version != 7 || meta.Location != core.RouteRelay || meta.Relay != r.ServeAddr() {
			t.Fatalf("republished meta: %+v", meta)
		}
		if meta.Iteration != 70 {
			t.Fatalf("producer-tagged iteration lost in republish: %+v", meta)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no republished notification")
	}

	kv, err := kvstore.Dial(metaAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	raw, err := kv.Get(core.MetaKey("m"))
	if err != nil {
		t.Fatal(err)
	}
	meta, err := core.DecodeMeta(raw)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Version != 7 || meta.Relay != r.ServeAddr() {
		t.Fatalf("KV meta: %+v", meta)
	}
}

// TestEndToEndFanOut32Consumers is the acceptance drill: one relay-mode
// producer, a relay, and 32 real-TCP consumers. Every consumer must
// converge byte-identically to the final version, and a late joiner —
// attached after the producer is gone — must catch up from the relay
// cache without a single staged load.
func TestEndToEndFanOut32Consumers(t *testing.T) {
	metaAddr, notifyAddr := testServices(t)
	r, err := New(Config{
		IngestAddr: "127.0.0.1:0", ServeAddr: "127.0.0.1:0",
		MetaAddr: metaAddr, NotifyAddr: notifyAddr, Retry: quickPolicy(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeChecked(t, r) })

	prod, err := remote.NewProducer(remote.ProducerConfig{
		Model: "m", MetaAddr: metaAddr, NotifyAddr: notifyAddr,
		RelayAddr: r.IngestAddr(), Retry: quickPolicy(4), ChunkSize: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	prodClosed := false
	defer func() {
		if !prodClosed {
			prod.Close()
		}
	}()

	const nConsumers = 32
	consumers := make([]*remote.Consumer, nConsumers)
	for i := range consumers {
		c, err := remote.NewConsumer(remote.ConsumerConfig{
			Model: "m", MetaAddr: metaAddr, NotifyAddr: notifyAddr,
			ProducerAddr: r.ServeAddr(), Retry: quickPolicy(int64(10 + i)),
			LinkWait: 500 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("consumer %d: %v", i, err)
		}
		defer c.Close()
		consumers[i] = c
	}

	const versions = 5
	notified := pubsub.Metrics().Counter("published")
	notifiedBefore := notified.Value()
	published := make(map[uint64]nn.Snapshot, versions)
	for v := 1; v <= versions; v++ {
		snap := nn.TakeSnapshot(testModel(int64(100 + v)))
		meta, err := prod.Publish(snap, uint64(v*10), float64(v))
		if err != nil {
			t.Fatalf("publish %d: %v", v, err)
		}
		published[meta.Version] = snap
	}

	// Every consumer converges to the final version, byte-identically.
	for i, c := range consumers {
		deadline := time.Now().Add(60 * time.Second)
		var last uint64
		for last < versions {
			ckpt, err := c.Next(2 * time.Second)
			if err != nil {
				if time.Now().After(deadline) {
					t.Fatalf("consumer %d stuck at v%d: %v (stats %+v)", i, last, err, c.Stats())
				}
				continue
			}
			want, ok := published[ckpt.Version]
			if !ok {
				t.Fatalf("consumer %d got never-published v%d", i, ckpt.Version)
			}
			if !snapshotsEqual(ckpt.Weights, want) {
				t.Fatalf("consumer %d: v%d corrupted", i, ckpt.Version)
			}
			last = ckpt.Version
		}
	}

	// Producer-side delivery was encode-once/send-many: one link send
	// per version regardless of the 32 consumers.
	if ps := prod.Stats(); ps.LinkSends != versions || ps.LinkFailures != 0 {
		t.Fatalf("producer stats: %+v, want %d clean sends", ps, versions)
	}

	// Late joiner: the producer is gone; the newest version must come
	// straight from the relay cache — link only, zero staged loads. The
	// relay republishes each version behind the producer's own
	// notification: once its last one is out, the retained notification
	// is the final version's whichever of the two came second.
	waitFor(t, 10*time.Second, func() bool { return notified.Value()-notifiedBefore >= 2*versions }, "the relay's last notification")
	prod.Close()
	prodClosed = true
	late, err := remote.NewConsumer(remote.ConsumerConfig{
		Model: "m", MetaAddr: metaAddr, NotifyAddr: notifyAddr,
		ProducerAddr: r.ServeAddr(), Retry: quickPolicy(99),
		LinkWait: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	ckpt, err := late.Next(20 * time.Second)
	if err != nil {
		t.Fatalf("late joiner: %v (stats %+v)", err, late.Stats())
	}
	if ckpt.Version != versions || !snapshotsEqual(ckpt.Weights, published[versions]) {
		t.Fatalf("late joiner installed v%d, want byte-identical v%d", ckpt.Version, versions)
	}
	if st := late.Stats(); st.LinkLoads != 1 || st.StagedLoads != 0 {
		t.Fatalf("late joiner did not load from the relay cache: %+v", st)
	}
	if st := r.Stats(); st.Sessions < nConsumers+1 {
		t.Fatalf("relay saw %d sessions, want >= %d", st.Sessions, nConsumers+1)
	}
}

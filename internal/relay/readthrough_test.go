package relay

import (
	"bytes"
	"context"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"viper/internal/chunkstore"
	"viper/internal/core"
	"viper/internal/faults"
	"viper/internal/kvstore"
	"viper/internal/nn"
	"viper/internal/remote"
	"viper/internal/retry"
	"viper/internal/simclock"
	"viper/internal/transport"
	"viper/internal/vformat"
)

// The tests below serve versions whose records are on disk only: a first
// relay stores what a producer link pushes and is closed, a second one
// opens the same directory and hydrates shells.

// seedStore pushes the versions of model "m" (version numbers 1…) with
// push (pushChunked, or pushReconcile for versions keyed by content)
// through a store-backed relay announcing to metaAddr/notifyAddr (either
// may be empty), waits until they are stored, and closes it.
func seedStore(t *testing.T, dir, metaAddr, notifyAddr string, push func(*testing.T, *transport.TCPLink, string, uint64, nn.Snapshot, int), snaps ...nn.Snapshot) {
	t.Helper()
	r, err := New(Config{
		IngestAddr: "127.0.0.1:0", ServeAddr: "127.0.0.1:0",
		MetaAddr: metaAddr, NotifyAddr: notifyAddr, Retry: quickPolicy(1),
		StoreDir: dir, StoreSegmentBytes: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	link, err := transport.DialTCP(r.IngestAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	for i, snap := range snaps {
		push(t, link, "m", uint64(i+1), snap, 128)
	}
	waitFor(t, 10*time.Second, func() bool { return r.Stats().StoredVersions == int64(len(snaps)) }, "the seed versions stored")
}

// reopenRelay starts a relay on a seeded directory.
func reopenRelay(t *testing.T, cfg Config) *Relay {
	t.Helper()
	cfg.IngestAddr, cfg.ServeAddr, cfg.Retry = "127.0.0.1:0", "127.0.0.1:0", quickPolicy(2)
	cfg.StoreSegmentBytes = 512
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeChecked(t, r) })
	return r
}

// flipOnDisk flips one byte in the middle of rec's copy in dir's segment
// files, under the feet of whichever store has them open.
func flipOnDisk(t *testing.T, dir string, rec []byte) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.vseg"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range segs {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		at := bytes.Index(data, rec)
		if at < 0 {
			continue
		}
		f, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		at += len(rec) / 2
		if _, err := f.WriteAt([]byte{data[at] ^ 0xff}, int64(at)); err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Fatal("the record is in no segment file")
}

// TestStoreReadFailsMidStream: the store cannot read record k of a
// version whose header and first k records have already left. The relay
// counts it, tells the consumer off-stream and serves the next commit; the
// consumer drops the build at once and installs the version from its
// staging copy — with LinkWait an hour on a clock nobody advances — and
// never returns what the torn stream carried.
func TestStoreReadFailsMidStream(t *testing.T) {
	const k = 5
	for _, tc := range []struct {
		name    string
		corrupt int64 // relay CorruptChunks
		breakIt func(t *testing.T, r *Relay, dir string, recK []byte)
	}{
		{"injected read fault", 0, func(t *testing.T, r *Relay, dir string, _ []byte) {
			// No connection exists yet; r.life orders the swap before every
			// session the accept loop goes on to start.
			r.life.Lock()
			defer r.life.Unlock()
			r.store.Close()
			faulty, err := chunkstore.Open(dir, chunkstore.Options{
				SegmentBytes: 512,
				Injector:     faults.New(faults.Config{Seed: 1, FailRate: 1, SkipFirst: k}),
			})
			if err != nil {
				t.Fatal(err)
			}
			r.store = faulty
		}},
		{"flipped byte on disk", 1, func(t *testing.T, _ *Relay, dir string, recK []byte) {
			flipOnDisk(t, dir, recK)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			metaAddr, notifyAddr := testServices(t)
			dir := t.TempDir()
			stored, staged, next := wideSnapshot(80), wideSnapshot(81), wideSnapshot(82)
			seedStore(t, dir, metaAddr, notifyAddr, pushChunked, stored)
			_, recs, _ := streamFrames(t, "m", 1, stored)
			if len(recs) < k+3 {
				t.Fatalf("only %d records: the failure must land mid-stream", len(recs))
			}
			r := reopenRelay(t, Config{StoreDir: dir, MetaAddr: metaAddr, NotifyAddr: notifyAddr})
			tc.breakIt(t, r, dir, recs[k].Payload)

			// The staging copy of v1 holds other weights than the store's, so
			// an install says where it came from.
			kv, err := kvstore.Dial(metaAddr)
			if err != nil {
				t.Fatal(err)
			}
			defer kv.Close()
			stagedBlob, _ := encodeVersion(t, "m", 1, staged, 128)
			if err := kv.SetBytes(core.StagingKey("m", 1), stagedBlob); err != nil {
				t.Fatal(err)
			}

			clock := simclock.NewVirtualManual()
			cons, err := remote.NewConsumer(remote.ConsumerConfig{
				Model: "m", MetaAddr: metaAddr, NotifyAddr: notifyAddr, ProducerAddr: r.ServeAddr(),
				Retry:    retry.Policy{MaxAttempts: 1, BaseDelay: time.Millisecond, Clock: clock},
				LinkWait: time.Hour,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer cons.Close()
			ckpt, err := cons.Next(time.Hour)
			if err != nil {
				t.Fatal(err)
			}
			if ckpt.Version != 1 || !snapshotsEqual(ckpt.Weights, staged) {
				t.Fatalf("installed v%d (staged weights: %v, torn stream's weights: %v), want the staging copy",
					ckpt.Version, snapshotsEqual(ckpt.Weights, staged), snapshotsEqual(ckpt.Weights, stored))
			}
			// Header, k records and the notice: all discarded, none installed.
			waitFor(t, 10*time.Second, func() bool { return cons.Stats().DiscardedFrames == k+2 }, "the torn stream's frames discarded")
			if got, want := cons.Stats(), (remote.ConsumerStats{StagedLoads: 1, DiscardedFrames: k + 2}); got != want {
				t.Fatalf("consumer stats %+v, want %+v", got, want)
			}
			st := r.Stats()
			if st.StoreErrors != 1 || st.AbandonedFanouts != 1 || st.CorruptChunks != tc.corrupt || st.ServedVersions != 0 {
				t.Fatalf("relay stats %+v, want 1 store error, 1 abandoned fan-out, %d corrupt chunks, nothing served", st, tc.corrupt)
			}

			link, err := transport.DialTCP(r.IngestAddr())
			if err != nil {
				t.Fatal(err)
			}
			defer link.Close()
			pushChunked(t, link, "m", 2, next, 128)
			ckpt, err = cons.Next(time.Hour)
			if err != nil {
				t.Fatal(err)
			}
			if ckpt.Version != 2 || !snapshotsEqual(ckpt.Weights, next) {
				t.Fatalf("after the failed fan-out the session delivered v%d (equal=%v), want bit-identical v2", ckpt.Version, snapshotsEqual(ckpt.Weights, next))
			}
			if got := cons.Stats(); got.LinkLoads != 1 || got.StagedLoads != 1 {
				t.Fatalf("consumer stats %+v, want v2 from the link", got)
			}
		})
	}
}

// countingConn counts the bytes written through it.
type countingConn struct {
	net.Conn
	written *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.written.Add(int64(len(p)))
	return c.Conn.Write(p)
}

// TestChunkInNeitherTierRefusedBeforeFirstFrame: a shell whose records
// have left the store too is refused whole — not one byte reaches the
// consumer's connection — and the session goes on to serve the next
// commit.
func TestChunkInNeitherTierRefusedBeforeFirstFrame(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir, "", "", pushChunked, wideSnapshot(83))
	var written atomic.Int64
	r := reopenRelay(t, Config{StoreDir: dir, ServeWrap: func(c net.Conn) net.Conn {
		return countingConn{c, &written}
	}})
	// The store forgets v1 behind the catalog's back (the catalog learns
	// at its next commit).
	keys := storedKeys(t, r, "m", 1)
	if err := r.store.Retire("m", 1); err != nil {
		t.Fatal(err)
	}
	if r.store.Contains(keys[0]) {
		t.Fatal("set-up: v1's first record is still on disk")
	}

	cons, err := transport.DialTCP(r.ServeAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()
	waitFor(t, 10*time.Second, func() bool { return r.Stats().AbandonedFanouts == 1 }, "the fan-out refused")
	if st := r.Stats(); st.StoreErrors != 1 || st.ServedVersions != 0 {
		t.Fatalf("relay stats %+v, want one store error and nothing served", st)
	}
	if n := written.Load(); n != 0 {
		t.Fatalf("%d bytes reached the consumer's connection before the refusal, want none", n)
	}

	link, err := transport.DialTCP(r.IngestAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	snap := wideSnapshot(85)
	pushChunked(t, link, "m", 2, snap, 128)
	head, err := cons.Recv()
	if err != nil || !transport.IsChunkHeader(head) || head.Meta["version"] != "2" {
		t.Fatalf("first frame after the refusal: %+v, err %v; want v2's header", head.Meta, err)
	}
	ckpt, _, err := transport.CollectChunked(context.Background(), head, nil, cons.Recv)
	if err != nil || !snapshotsEqual(ckpt.Weights, snap) {
		t.Fatalf("v2 after the refusal: err %v", err)
	}
}

// TestNewerCommitAbortsReadThrough: a fan-out reading v1 off disk is
// frozen after its header; v2 commits; thawed, the session sends the
// record it had in hand, abandons v1 (latest-wins) and serves v2. The
// read-ahead — by then parked on the next record — was joined on the way
// out: nothing pins the segment it read from, so once the store retires
// v1 those records are reclaimed, and the package's leak check sees no
// reader goroutine after Close.
func TestNewerCommitAbortsReadThrough(t *testing.T) {
	dir := t.TempDir()
	snap1, snap2 := wideSnapshot(86), wideSnapshot(87)
	seedStore(t, dir, "", "", pushChunked, snap1)
	gate := &gatedConn{release: make(chan struct{})}
	r := reopenRelay(t, Config{StoreDir: dir, ServeWrap: func(c net.Conn) net.Conn {
		gate.Conn = c
		return gate
	}})
	cons, err := transport.DialTCP(r.ServeAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()
	waitFor(t, 10*time.Second, gate.isBlocked, "the read-through frozen after its header")

	link, err := transport.DialTCP(r.IngestAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	pushChunked(t, link, "m", 2, snap2, 128)
	// CachedVersions moves under the catalog lock together with v2's
	// insert (the hydrated v1 counts as HydratedVersions). StoredVersions
	// moves earlier, when the store has committed: a session thawed in that
	// gap would still find v1 the newest and stream on.
	waitFor(t, 10*time.Second, func() bool { return r.Stats().CachedVersions == 1 }, "v2 in the catalog")
	close(gate.release)

	var v1Frames int
	for {
		f, err := cons.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if f.Meta["version"] == "1" {
			v1Frames++
			continue
		}
		if !transport.IsChunkHeader(f) {
			t.Fatalf("first v2 frame is %v, want its header", f.Meta)
		}
		ckpt, _, err := transport.CollectChunked(context.Background(), f, nil, cons.Recv)
		if err != nil || ckpt.Version != 2 || !snapshotsEqual(ckpt.Weights, snap2) {
			t.Fatalf("v2 after the aborted read-through: err %v", err)
		}
		break
	}
	if v1Frames != 2 {
		t.Fatalf("%d frames of v1 arrived, want its header and the one record in hand at the thaw", v1Frames)
	}
	// The session counts a fan-out after its last frame has left, so the
	// consumer can be here first.
	waitFor(t, 10*time.Second, func() bool { return r.Stats().ServedVersions == 1 }, "v2's fan-out counted")
	if st := r.Stats(); st.AbandonedFanouts != 1 || st.StoreErrors != 0 {
		t.Fatalf("relay stats %+v, want v1 abandoned, v2 served, no store error", st)
	}

	keys1 := storedKeys(t, r, "m", 1)
	if err := r.store.Retire("m", 1); err != nil {
		t.Fatal(err)
	}
	for _, h := range keys1[:2] { // the record sent at the thaw and the one read ahead of it
		if r.store.Contains(h) {
			t.Fatalf("record %s of the retired v1 survived the reclaim pass: a read still pins its segment", h)
		}
	}
}

// TestConcurrentJoinersReadThrough: two consumers join a reopened relay
// at once; both sessions read the same records off disk concurrently and
// both install the stored version bit for bit (run under -race).
func TestConcurrentJoinersReadThrough(t *testing.T) {
	metaAddr, notifyAddr := testServices(t)
	dir := t.TempDir()
	snap := wideSnapshot(88)
	seedStore(t, dir, metaAddr, notifyAddr, pushChunked, snap)
	r := reopenRelay(t, Config{StoreDir: dir})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cons, err := remote.NewConsumer(remote.ConsumerConfig{
				Model: "m", MetaAddr: metaAddr, NotifyAddr: notifyAddr,
				ProducerAddr: r.ServeAddr(), Retry: quickPolicy(int64(10 + i)),
			})
			if err != nil {
				t.Error(err)
				return
			}
			defer cons.Close()
			ckpt, err := cons.Next(10 * time.Second)
			if err != nil {
				t.Errorf("joiner %d: %v", i, err)
				return
			}
			if ckpt.Version != 1 || !snapshotsEqual(ckpt.Weights, snap) {
				t.Errorf("joiner %d installed v%d (equal=%v), want bit-identical v1", i, ckpt.Version, snapshotsEqual(ckpt.Weights, snap))
			}
			if st := cons.Stats(); st.LinkLoads != 1 || st.StagedLoads != 0 {
				t.Errorf("joiner %d stats %+v, want one link load", i, st)
			}
		}(i)
	}
	wg.Wait()
	waitFor(t, 10*time.Second, func() bool { return r.Stats().ServedVersions == 2 }, "both fan-outs counted")
	if st := r.Stats(); st.StoreErrors != 0 || st.AbandonedFanouts != 0 {
		t.Fatalf("relay stats %+v, want two clean read-through serves", st)
	}
	resident := r.cat.residentChunks()
	if resident != 0 {
		t.Fatalf("%d records became resident by serving a cold version, want none", resident)
	}
}

// TestDiskRecordsServeInOrder: model "m" is a hydrated shell pushed by a
// reconciling producer (so keyed by content), every record on disk only.
// The session serves m in manifest order, bit for bit, reading each
// record through from the store exactly once.
func TestDiskRecordsServeInOrder(t *testing.T) {
	dir := t.TempDir()
	snapM := wideSnapshot(89)
	seedStore(t, dir, "", "", pushReconcile, snapM)
	r := reopenRelay(t, Config{StoreDir: dir})
	_, _, hashesM := streamFrames(t, "m", 1, snapM)
	if held := r.cat.residentChunks(); held != 0 {
		t.Fatalf("set-up: %d records held by a hydrated relay, want all of m's %d on disk only", held, len(hashesM))
	}

	// Reads are counted on this relay's own store, not process-wide.
	before := r.store.Stats().FallthroughHits
	cons, err := transport.DialTCP(r.ServeAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()
	head, err := cons.Recv()
	if err != nil || !transport.IsChunkHeader(head) {
		t.Fatalf("stream opens with %q (err %v), not a chunk header", head.Key, err)
	}
	var recs []transport.Frame
	for len(recs) < len(hashesM) {
		f, err := cons.Recv()
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, f)
	}
	for i, f := range recs {
		if got := transport.ChunkRecordIndex(f.Payload); got != i || vformat.HashChunkRecord(f.Payload) != hashesM[i] {
			t.Fatalf("frame %d carries chunk %d: not the manifest's record at that position", i, got)
		}
	}
	next := 0
	ckpt, _, err := transport.CollectChunked(context.Background(), head, nil, func() (transport.Frame, error) {
		next++
		return recs[next-1], nil
	})
	if err != nil || !snapshotsEqual(ckpt.Weights, snapM) {
		t.Fatalf("m assembled from the store: err %v", err)
	}
	if got := r.store.Stats().FallthroughHits - before; got != int64(len(hashesM)) {
		t.Fatalf("%d store reads served m, want exactly its %d records", got, len(hashesM))
	}
}

// TestAllocBudgetColdJoin is the in-tree gate on the cold path's copies,
// beside remote.TestAllocBudget: a store-backed relay is reopened on a
// directory holding one 4 MiB / 16-chunk version, and reconcile-on
// consumers join, install it and leave, one at a time. Relay and consumer
// together may allocate at most 2.0 bytes per payload byte — the decoded
// weights and the receive buffers (every join is a fresh consumer with an
// empty receive pool; each record goes back to it as soon as it is decoded,
// so a join draws about a read-ahead's worth of fresh ones), nothing
// payload-sized on the relay. The tree before the streamed read-through
// spent 4.16: a fresh buffer per store read and a cache copy of every
// record on top; while the filler hashed a full stream's records instead of
// the installed weights, every join held a whole model of receive buffers
// (2.18, under a budget of 2.4).
func TestAllocBudgetColdJoin(t *testing.T) {
	const (
		elems  = 512 << 10 // 4 MiB of float64
		chunk  = 256 << 10
		warmup = 3
		ops    = 24
		budget = 2.0
	)
	metaAddr, notifyAddr := testServices(t)
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(9))
	data := make([]float64, elems)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	snap := nn.Snapshot{{Name: "w", Shape: []int{elems}, Data: data}}
	seed, err := New(Config{
		IngestAddr: "127.0.0.1:0", ServeAddr: "127.0.0.1:0",
		MetaAddr: metaAddr, NotifyAddr: notifyAddr, Retry: quickPolicy(1), StoreDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	link, err := transport.DialTCP(seed.IngestAddr())
	if err != nil {
		seed.Close()
		t.Fatal(err)
	}
	pushChunked(t, link, "m", 1, snap, chunk)
	waitFor(t, 10*time.Second, func() bool { return seed.Stats().StoredVersions == 1 }, "the version stored")
	link.Close()
	seed.Close()

	r := storeRelay(t, dir, chunkstore.Retention{})
	join := func(op int) {
		cons, err := remote.NewConsumer(remote.ConsumerConfig{
			Model: "m", MetaAddr: metaAddr, NotifyAddr: notifyAddr,
			ProducerAddr: r.ServeAddr(), Retry: quickPolicy(int64(op)),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer cons.Close()
		ckpt, err := cons.Next(10 * time.Second)
		if err != nil {
			t.Fatalf("join %d: %v", op, err)
		}
		if st := cons.Stats(); st.LinkLoads != 1 || ckpt.Weights.NumBytes() != snap.NumBytes() {
			t.Fatalf("join %d: stats %+v, %d bytes installed; the budget is for the link path", op, st, ckpt.Weights.NumBytes())
		}
	}
	for op := 0; op < warmup; op++ {
		join(op)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for op := 0; op < ops; op++ {
		join(warmup + op)
	}
	runtime.ReadMemStats(&after)
	got := float64(after.TotalAlloc-before.TotalAlloc) / float64(int64(ops)*snap.NumBytes())
	t.Logf("cold_join: %.3f allocated bytes per payload byte (budget %.1f)", got, budget)
	if got > budget {
		t.Errorf("cold_join allocates %.3f bytes per payload byte, budget %.1f", got, budget)
	}
	if st := r.Stats(); st.StoreErrors != 0 || st.AbandonedFanouts != 0 {
		t.Fatalf("relay stats %+v", st)
	}
}

// nthOp is the clock of a fault injector whose every op is "delayed" by
// nothing, except that the nth one parks inside the delay until resumed.
type nthOp struct {
	simclock.Clock
	n      int64
	calls  atomic.Int64
	parked chan struct{}
	resume chan struct{}
}

func (g *nthOp) Sleep(time.Duration) {
	if g.calls.Add(1) == g.n {
		close(g.parked)
		<-g.resume
	}
}

// TestReadThroughInstruments: one cold serve observes
// read_through_first_byte_ms once, and read_ahead_waits moves exactly
// when the send loop, with a record already sent, finds the next one not
// read yet — here the store's second read is held until the loop has come
// back for it.
func TestReadThroughInstruments(t *testing.T) {
	dir := t.TempDir()
	snap := wideSnapshot(90)
	seedStore(t, dir, "", "", pushChunked, snap)
	r := reopenRelay(t, Config{StoreDir: dir})
	gate := &nthOp{Clock: simclock.NewWall(), n: 2, parked: make(chan struct{}), resume: make(chan struct{})}
	r.life.Lock() // no session exists yet; see TestStoreReadFailsMidStream
	r.store.Close()
	slow, err := chunkstore.Open(dir, chunkstore.Options{
		SegmentBytes: 512,
		Injector:     faults.New(faults.Config{DelayRate: 1, Delay: time.Nanosecond, Clock: gate}),
	})
	if err == nil {
		r.store = slow
	}
	r.life.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	waits, firstByte := Metrics().Counter("read_ahead_waits"), Metrics().Histogram("read_through_first_byte_ms")
	waitsBefore, firstBefore := waits.Value(), firstByte.Count()

	cons, err := transport.DialTCP(r.ServeAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()
	<-gate.parked
	waitFor(t, 10*time.Second, func() bool { return waits.Value() == waitsBefore+1 }, "the send loop to wait for the held read")
	close(gate.resume)
	head, err := cons.Recv()
	if err != nil {
		t.Fatal(err)
	}
	ckpt, _, err := transport.CollectChunked(context.Background(), head, nil, cons.Recv)
	if err != nil || !snapshotsEqual(ckpt.Weights, snap) {
		t.Fatalf("the served version: err %v", err)
	}
	waitFor(t, 10*time.Second, func() bool { return r.Stats().ServedVersions == 1 }, "the serve counted")
	if d := firstByte.Count() - firstBefore; d != 1 {
		t.Fatalf("read_through_first_byte_ms observed %d times for one cold serve, want 1", d)
	}
}

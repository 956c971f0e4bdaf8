package remote

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"viper/internal/core"
	"viper/internal/kvstore"
	"viper/internal/nn"
	"viper/internal/pubsub"
	"viper/internal/transport"
	"viper/internal/vformat"
)

// flatSnapshot builds a two-tensor snapshot of elems float64 elements
// (the split makes chunks cross a tensor boundary).
func flatSnapshot(seed int64, elems int) nn.Snapshot {
	rng := rand.New(rand.NewSource(seed))
	data := make([]float64, elems)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	cut := elems / 3
	return nn.Snapshot{
		{Name: "a", Shape: []int{cut}, Data: data[:cut]},
		{Name: "b", Shape: []int{elems - cut}, Data: data[cut:]},
	}
}

// startProducerWithPeer starts a delta-capable chunked producer whose
// direct link is held by a raw TCP peer instead of a Consumer, so a test
// can script the have-lists and need-lists the producer sees.
func startProducerWithPeer(t *testing.T, metaAddr, notifyAddr string, chunkSize int, linkWrap func(net.Conn) net.Conn) (*Producer, *transport.TCPLink) {
	t.Helper()
	return startProducerWithPeerConfig(t, ProducerConfig{
		Model: "m", MetaAddr: metaAddr, NotifyAddr: notifyAddr,
		Retry: chaosPolicy(31), ChunkSize: chunkSize, LinkWrap: linkWrap,
	})
}

// startProducerWithPeerConfig is startProducerWithPeer for any producer
// configuration; the listen address and hook are its own.
func startProducerWithPeerConfig(t *testing.T, cfg ProducerConfig) (*Producer, *transport.TCPLink) {
	t.Helper()
	linkAddr := make(chan string, 1)
	cfg.ListenAddr, cfg.OnListen = "127.0.0.1:0", func(a string) { linkAddr <- a }
	var prod *Producer
	var prodErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		prod, prodErr = NewProducer(cfg)
	}()
	peer, err := transport.DialTCP(<-linkAddr)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if prodErr != nil {
		t.Fatal(prodErr)
	}
	return prod, peer
}

// retained returns the producer's current retained blob and its
// reference count.
func (p *Producer) retained() (*retainedBlob, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.lastBlob == nil {
		return nil, 0
	}
	return p.lastBlob, p.lastBlob.refs
}

// refsOf returns r's reference count.
func (p *Producer) refsOf(r *retainedBlob) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return r.refs
}

// released reports whether r went back to the pool (exactly once: a
// second release would have driven refs below zero).
func (p *Producer) released(r *retainedBlob) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return r.refs == 0 && r.buf == nil
}

// drainPeer reads and drops everything the producer sends, so link sends
// never block.
func drainPeer(peer *transport.TCPLink) {
	go func() {
		for {
			if _, err := peer.Recv(); err != nil {
				return
			}
		}
	}()
}

// TestNeedAnswerRacesNextPublish drives the producer from a raw link
// peer: need-lists for version N are fired while version N+1 (and N+2)
// publish, which supersedes — and must not recycle — the blob the
// answer is walking. Every third version's staging flush is held at a
// gated KV connection until the next publish has returned, so that blob
// is held by a need answer, the stage flusher and (as lastBlob, until it
// is superseded) the next publish all at once. Every chunk record that
// arrives under a version's key must be an intact record of exactly
// that version; under -race the detector additionally sees any encoder
// write into a buffer a need answer or the flusher still reads. With a base
// kept (DeltaEps > 0) each version moves a few chunks of the last, and the
// blob whose last holder lets go is retired and written over in place by a
// later publish: the reference count alone must keep that write off every
// blob a need answer, the flusher or lastBlob still holds.
func TestNeedAnswerRacesNextPublish(t *testing.T) {
	for _, eps := range []float64{0, 1e-3} {
		t.Run(fmt.Sprintf("eps=%g", eps), func(t *testing.T) { needAnswerRacesNextPublish(t, eps) })
	}
}

func needAnswerRacesNextPublish(t *testing.T, eps float64) {
	const (
		chunkSize = 1 << 10
		elems     = 8 << 10 // 64 KiB model → 64 records per version
		versions  = 24
	)
	metaAddr, notifyAddr := testServices(t)
	prod, peer := startProducerWithPeerConfig(t, ProducerConfig{
		Model: "m", MetaAddr: metaAddr, NotifyAddr: notifyAddr,
		Retry: chaosPolicy(31), ChunkSize: chunkSize, DeltaEps: eps,
	})
	gate := newConnGate()
	swapStageKV(t, prod, metaAddr, gate.wrap)

	// What each version's records must hash to: the producer's encode of
	// a snapshot is deterministic — against a base that evolves exactly as
	// ref does, when it keeps one — and record bytes do not depend on the
	// version number.
	snaps := make([]nn.Snapshot, versions+1)
	expect := make(map[string]map[vformat.ChunkHash]bool) // stream key → record hashes
	hashesOf := make([][]vformat.ChunkHash, versions+1)
	var ref nn.Snapshot
	for v := 1; v <= versions; v++ {
		opts := vformat.ChunkOptions{ChunkBytes: chunkSize}
		switch {
		case eps == 0:
			snaps[v] = flatSnapshot(int64(v), elems)
		case v == 1:
			snaps[v] = flatSnapshot(1, elems)
			ref = snaps[v].Clone()
		default:
			snaps[v] = snaps[v-1].Clone()
			for _, c := range []int{7 * v % 64, (13*v + 5) % 64} { // two chunks move
				i, a, b := c*chunkSize/8, snaps[v][0].Data, snaps[v][1].Data
				if i < len(a) {
					a[i] += 1
				} else {
					b[i-len(a)] += 1
				}
			}
			opts.Base, opts.BaseEps = ref, eps
		}
		blob, err := vformat.EncodeChunked(context.Background(),
			&vformat.Checkpoint{ModelName: "m", Version: uint64(v), Weights: snaps[v]}, opts)
		if err != nil {
			t.Fatal(err)
		}
		hs, err := vformat.ChunkHashesOf(blob)
		vformat.ReleaseBuffer(blob)
		if err != nil {
			t.Fatal(err)
		}
		set := make(map[vformat.ChunkHash]bool, len(hs))
		for _, h := range hs {
			set[h] = true
		}
		hashesOf[v], expect[core.CheckpointKey("m", uint64(v))] = hs, set
	}

	// The peer's reader validates every chunk record as it arrives.
	var records, bad int
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			f, err := peer.Recv()
			if err != nil {
				return
			}
			if !transport.IsChunkFrame(f) {
				continue
			}
			records++
			if !vformat.VerifyChunkRecord(f.Payload) || !expect[f.Key][vformat.HashChunkRecord(f.Payload)] {
				bad++
			}
		}
	}()

	if _, err := prod.Publish(snaps[1], 1, 0.5); err != nil {
		t.Fatal(err)
	}
	// Advertise a chunk nobody has: every later publish takes the delta
	// path (plan from encoder hashes, retain before send) yet ships all
	// of its records.
	if err := peer.Send(transport.NewHaveFrame("m", 1, []vformat.ChunkHash{{0xff}})); err != nil {
		t.Fatal(err)
	}
	waitPeerHave(t, prod, 1)
	var blobs []*retainedBlob
	var held *retainedBlob // the blob whose flush is parked at the gate
	for v := 2; v <= versions; v++ {
		need := transport.NewNeedFrame(core.CheckpointKey("m", uint64(v-1)), hashesOf[v-1])
		if err := peer.Send(need); err != nil {
			t.Fatal(err)
		}
		if v%3 == 0 {
			// Only once the flusher is idle — it has let go of the previous
			// blob, and flushes run in order — so the write the gate parks
			// is v's own and no later flush can supersede it.
			if len(blobs) > 0 {
				prev := blobs[len(blobs)-1]
				waitFor(t, "the previous flush", func() bool { return prod.refsOf(prev) == 1 })
			}
			gate.hold()
		}
		if _, err := prod.Publish(snaps[v], uint64(v), 0.5); err != nil {
			t.Fatalf("publish v%d: %v", v, err)
		}
		r, refs := prod.retained()
		if r == nil || r.key != core.CheckpointKey("m", uint64(v)) {
			t.Fatalf("after v%d the retained blob is %+v", v, r)
		} else if refs < 1 || refs > 2 {
			t.Fatalf("after v%d the retained blob has %d references, want 1 (+1 while its flush waits or runs)", v, refs)
		}
		blobs = append(blobs, r)
		switch {
		case v%3 == 0:
			gate.waitBlocked(t)
			held = r
		case held != nil:
			// v-1's flush is still parked inside its staging write and its
			// need-list was answered while this publish superseded it: the
			// flusher's reference alone must have kept the buffer out of
			// the pool.
			if n := prod.refsOf(held); n < 1 || held.buf == nil {
				t.Fatalf("v%d's blob was recycled under its flush (refs %d)", v-1, n)
			}
			held = nil
			gate.release()
		}
	}
	gate.release()
	if s := prod.Stats(); eps > 0 && s.InPlacePublishes == 0 {
		t.Fatalf("producer stats %+v: no publish encoded in place, the retired blob went unexercised", s)
	}
	last, _ := prod.retained()
	prod.Close()
	// The producer closed its end: the reader drains what is still in flight
	// and stops at EOF. Closing the peer first would cut that short.
	<-readerDone
	peer.Close()
	if bad != 0 {
		t.Fatalf("%d of %d chunk records were torn or belonged to another version", bad, records)
	}
	if min := versions * len(hashesOf[1]); records <= min {
		t.Fatalf("%d records arrived, no more than the %d the streams alone carry: no need-list was answered", records, min)
	}
	if r, _ := prod.retained(); r != nil || !prod.released(last) {
		t.Fatalf("Close left the retained blob referenced (lastBlob %v, refs %d)", r, last.refs)
	}
	for i, r := range blobs {
		if !prod.released(r) {
			t.Fatalf("v%d's blob is still referenced after Close (refs %d)", i+2, r.refs)
		}
	}
}

// TestPublishErrorPathsBalanceTheBlob: whatever path a publish takes,
// every reference to its blob is dropped exactly once — by the publish
// itself, by the stage flusher (in flight at Close, superseded before it
// starts, or failing in the background), and by Close for the
// producer's own.
func TestPublishErrorPathsBalanceTheBlob(t *testing.T) {
	// stagedCopy reports whether the KV store holds version's staging copy.
	stagedCopy := func(t *testing.T, metaAddr string, version uint64) bool {
		t.Helper()
		kv, err := kvstore.Dial(metaAddr)
		if err != nil {
			t.Fatal(err)
		}
		defer kv.Close()
		_, err = kv.GetBytes(core.StagingKey("m", version))
		if err != nil && !errors.Is(err, kvstore.ErrNotFound) {
			t.Fatal(err)
		}
		return err == nil
	}

	// A publish that fails after the blob was retained (the metadata
	// server is gone, so the metadata write fails) must drop its own
	// reference, leaving exactly the producer's, and Close must drop
	// that one.
	t.Run("metadata server down", func(t *testing.T) {
		kvSrv := kvstore.NewServer(kvstore.NewStore())
		metaAddr, err := kvSrv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer kvSrv.Close()
		psSrv := pubsub.NewServer(pubsub.NewBroker(64))
		notifyAddr, err := psSrv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer psSrv.Close()
		prod, peer := startProducerWithPeer(t, metaAddr, notifyAddr, 1<<10, nil)
		defer peer.Close()
		drainPeer(peer)

		if _, err := prod.Publish(flatSnapshot(1, 4<<10), 1, 0.5); err != nil {
			t.Fatal(err)
		}
		first, _ := prod.retained()
		if first == nil {
			t.Fatal("a clean publish retained no blob")
		}
		waitFor(t, "the flusher to drop its reference", func() bool { return prod.refsOf(first) == 1 })
		// Both the full-stream and the delta path must balance on failure.
		for _, delta := range []bool{false, true} {
			if delta {
				if err := peer.Send(transport.NewHaveFrame("m", 1, []vformat.ChunkHash{{0xff}})); err != nil {
					t.Fatal(err)
				}
				waitPeerHave(t, prod, 1)
			} else {
				kvSrv.Close()
			}
			if _, err := prod.Publish(flatSnapshot(2, 4<<10), 2, 0.5); err == nil {
				t.Fatal("publish with the metadata server down succeeded")
			}
			r, refs := prod.retained()
			if r == nil || r == first || refs != 1 {
				t.Fatalf("delta=%v: after a failed publish the retained blob has %d references, want a new blob with 1", delta, refs)
			}
			if !prod.released(first) {
				t.Fatalf("delta=%v: the superseded blob still has %d references", delta, first.refs)
			}
			first = r
		}
		// A publish cancelled before it starts touches nothing.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := prod.PublishContext(ctx, flatSnapshot(3, 4<<10), 3, 0.5); err == nil {
			t.Fatal("cancelled publish succeeded")
		}
		if r, refs := prod.retained(); r != first || refs != 1 {
			t.Fatalf("a cancelled publish moved the retained blob (refs %d)", refs)
		}
		prod.Close()
		if !prod.released(first) {
			t.Fatalf("Close left the retained blob with %d references", first.refs)
		}
	})

	// Close waits for the flush it finds in flight, and the copy lands.
	t.Run("flush in flight at Close", func(t *testing.T) {
		metaAddr, notifyAddr := testServices(t)
		prod, peer := startProducerWithPeer(t, metaAddr, notifyAddr, 1<<10, nil)
		defer peer.Close()
		drainPeer(peer)
		gate := newConnGate()
		swapStageKV(t, prod, metaAddr, gate.wrap)
		gate.hold()
		if _, err := prod.Publish(flatSnapshot(1, 4<<10), 1, 0.5); err != nil {
			t.Fatal(err)
		}
		gate.waitBlocked(t)
		r, refs := prod.retained()
		if refs != 2 {
			t.Fatalf("with its flush in flight the blob has %d references, want the producer's and the flusher's", refs)
		}
		closed := make(chan struct{})
		go func() {
			prod.Close()
			close(closed)
		}()
		select {
		case <-closed:
			t.Fatal("Close returned with the staging write still in flight")
		case <-time.After(20 * time.Millisecond):
		}
		gate.release()
		<-closed
		if !prod.released(r) {
			t.Fatalf("Close left the blob with %d references", r.refs)
		}
		if s := prod.Stats(); s.Staged != 1 || !stagedCopy(t, metaAddr, 1) {
			t.Fatalf("producer stats %+v: the flush in flight at Close must still land", s)
		}
	})

	// Latest wins: a flush that is still waiting when the next version is
	// announced never runs, and its blob goes back at once.
	t.Run("flush superseded before it starts", func(t *testing.T) {
		metaAddr, notifyAddr := testServices(t)
		prod, peer := startProducerWithPeer(t, metaAddr, notifyAddr, 1<<10, nil)
		defer peer.Close()
		drainPeer(peer)
		gate := newConnGate()
		swapStageKV(t, prod, metaAddr, gate.wrap)
		superseded := Metrics().Counter("producer_stage_superseded")
		before := superseded.Value()
		gate.hold()
		var blobs [4]*retainedBlob
		for v := 1; v <= 3; v++ {
			if _, err := prod.Publish(flatSnapshot(int64(v), 4<<10), uint64(v), 0.5); err != nil {
				t.Fatal(err)
			}
			blobs[v], _ = prod.retained()
			if v == 1 {
				gate.waitBlocked(t) // v1's flush is in flight; v2's and v3's can only wait
			}
		}
		if !prod.released(blobs[2]) {
			t.Fatalf("the superseded flush still holds its blob (refs %d)", blobs[2].refs)
		}
		if n := prod.refsOf(blobs[1]); n != 1 {
			t.Fatalf("the blob in flight has %d references, want the flusher's only", n)
		}
		if n := prod.refsOf(blobs[3]); n != 2 {
			t.Fatalf("the waiting blob has %d references, want the producer's and the flusher's", n)
		}
		if d := superseded.Value() - before; d != 1 {
			t.Fatalf("producer_stage_superseded moved by %d, want 1", d)
		}
		gate.release()
		waitFor(t, "both surviving flushes", func() bool { return prod.Stats().Staged == 2 })
		if !stagedCopy(t, metaAddr, 1) || stagedCopy(t, metaAddr, 2) || !stagedCopy(t, metaAddr, 3) {
			t.Fatal("want staging copies of v1 and v3 and none of the superseded v2")
		}
		prod.Close()
		for v := 1; v <= 3; v++ {
			if !prod.released(blobs[v]) {
				t.Fatalf("v%d's blob has %d references after Close", v, blobs[v].refs)
			}
		}
	})

	// A publish cancelled once its whole stream has left announces
	// nothing and stages nothing.
	t.Run("cancelled after the stream", func(t *testing.T) {
		metaAddr, notifyAddr := testServices(t)
		var mu sync.Mutex
		var total, cancelAt int64
		var cancel context.CancelFunc
		wrap := func(c net.Conn) net.Conn {
			return &byteCounter{Conn: c, onWrite: func(n int64) {
				mu.Lock()
				defer mu.Unlock()
				total = n
				if cancel != nil && n >= cancelAt {
					cancel()
				}
			}}
		}
		prod, peer := startProducerWithPeer(t, metaAddr, notifyAddr, 1<<10, wrap)
		defer peer.Close()
		frames := make(chan string, 256) // key of every frame the peer reads
		go func() {
			for {
				f, err := peer.Recv()
				if err != nil {
					return
				}
				frames <- f.Key
			}
		}()
		if _, err := prod.Publish(flatSnapshot(1, 4<<10), 1, 0.5); err != nil {
			t.Fatal(err)
		}
		first, _ := prod.retained()
		waitFor(t, "v1's flush", func() bool { return prod.Stats().Staged == 1 })
		// v2 is the same size frame for frame, so its last byte leaves in
		// the write that brings the link's total to twice v1's.
		ctx, stop := context.WithCancel(context.Background())
		defer stop()
		mu.Lock()
		streamBytes := total
		cancelAt, cancel = 2*streamBytes, stop
		mu.Unlock()
		if _, err := prod.PublishContext(ctx, flatSnapshot(2, 4<<10), 1, 0.5); !errors.Is(err, context.Canceled) {
			t.Fatalf("PublishContext = %v, want context.Canceled", err)
		}
		perKey := make(map[string]int)
		for perKey[core.CheckpointKey("m", 2)] < perKey[core.CheckpointKey("m", 1)] || perKey[core.CheckpointKey("m", 1)] == 0 {
			select {
			case k := <-frames:
				perKey[k]++
			case <-time.After(10 * time.Second):
				t.Fatalf("the cancelled stream did not leave whole: frames per key %v", perKey)
			}
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
		if meta, err := core.DecodeMeta(raw); err != nil || meta.Version != 1 {
			t.Fatalf("latest metadata is %+v (%v), want v1: the cancelled publish must not be announced", meta, err)
		}
		if s := prod.Stats(); s.Staged != 1 || s.LinkSends != 1 || stagedCopy(t, metaAddr, 2) {
			t.Fatalf("producer stats %+v: the cancelled publish must not be staged or counted", s)
		}
		if r, refs := prod.retained(); r != first || refs != 1 {
			t.Fatalf("the cancelled publish moved the retained blob (refs %d)", refs)
		}
		prod.Close()
		if !prod.released(first) {
			t.Fatalf("Close left the blob with %d references", first.refs)
		}
	})

	// The link carried the version, so a staging write that fails in the
	// background costs only redundancy: the publish succeeded, Staged
	// stays flat, and the flusher still drops its reference.
	t.Run("background staging fails", func(t *testing.T) {
		metaAddr, notifyAddr := testServices(t)
		prod, peer := startProducerWithPeer(t, metaAddr, notifyAddr, 1<<10, nil)
		defer peer.Close()
		drainPeer(peer)
		swapStageKV(t, prod, metaAddr, failWrites)
		flushes := Metrics().Counter("producer_stage_flushes")
		before := flushes.Value()
		meta, err := prod.Publish(flatSnapshot(1, 4<<10), 1, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if !meta.StagePending {
			t.Fatalf("meta %+v: a version announced ahead of its staging copy must say so", meta)
		}
		r, _ := prod.retained()
		waitFor(t, "the flusher to give up", func() bool { return prod.refsOf(r) == 1 })
		if s := prod.Stats(); s.LinkSends != 1 || s.Staged != 0 || flushes.Value() != before || stagedCopy(t, metaAddr, 1) {
			t.Fatalf("producer stats %+v, flushes +%d: only Staged may stay flat", s, flushes.Value()-before)
		}
		prod.Close()
		if !prod.released(r) {
			t.Fatalf("Close left the blob with %d references", r.refs)
		}
	})
}

// TestCloseDropsTheBlobPool: the blobs a producer handed back are whole
// checkpoints, and how many the pool lists depends on how its publishes
// and flushes overlapped. Close empties the pool, so a process that goes
// on without the producer (a relay reopened to serve, the benchmark's
// cold join) does not carry them as live heap. The probe is an encode of
// a slightly smaller checkpoint: it draws a listed blob when there is one
// and allocates its own when there is not.
func TestCloseDropsTheBlobPool(t *testing.T) {
	metaAddr, notifyAddr := testServices(t)
	prod, peer := startProducerWithPeer(t, metaAddr, notifyAddr, 64<<10, nil)
	defer peer.Close()
	drainPeer(peer)
	probe := func() *byte {
		ckpt := &vformat.Checkpoint{ModelName: "m", Version: 9, Weights: flatSnapshot(3, 150<<10)}
		blob, err := vformat.EncodeChunked(context.Background(), ckpt, vformat.ChunkOptions{ChunkBytes: 64 << 10})
		if err != nil {
			t.Fatal(err)
		}
		vformat.ReleaseBuffer(blob)
		return &blob[0]
	}

	// The arrays are held by their first bytes for the whole test, so none
	// can be collected and its address given to a fresh allocation.
	var arrays [2]*byte
	var first *retainedBlob
	for v := range arrays {
		if _, err := prod.Publish(flatSnapshot(int64(v), 160<<10), uint64(v+1), 0.5); err != nil {
			t.Fatal(err)
		}
		r, _ := prod.retained()
		arrays[v] = &r.buf[0]
		if v == 0 {
			first = r
		}
	}
	waitFor(t, "v1's blob to go back to the pool", func() bool { return prod.released(first) })
	if got := probe(); got != arrays[0] {
		t.Fatal("with v1's blob listed the probe did not draw it: it cannot tell a hit from a miss")
	}
	prod.Close()
	if got := probe(); got == arrays[0] || got == arrays[1] {
		t.Fatal("after Close the probe drew a blob of the closed producer: the pool still lists a checkpoint")
	}
	vformat.DropBuffers() // the probe's own blob
}

// allocPerPayloadByte runs ops publish→install round trips and returns
// the process's TotalAlloc per payload byte delivered. next prepares
// the snapshot for each op.
func allocPerPayloadByte(t *testing.T, prod *Producer, cons *Consumer, snap nn.Snapshot, ops int, next func(op int)) float64 {
	t.Helper()
	roundTrip := func(op int) {
		next(op)
		want := prod.Stats().HaveLists
		if _, err := prod.Publish(snap, uint64(op), 0.5); err != nil {
			t.Fatal(err)
		}
		ckpt, err := cons.Next(10 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if got := cons.Stats(); got.StagedLoads != 0 {
			t.Fatalf("op %d installed from staging: the budget is for the link path", op)
		}
		if ckpt.Weights.NumBytes() != snap.NumBytes() {
			t.Fatalf("op %d installed %d bytes, published %d", op, ckpt.Weights.NumBytes(), snap.NumBytes())
		}
		if prod.recon { // the next publish plans against this install's have-list
			deadline := time.Now().Add(5 * time.Second)
			for prod.Stats().HaveLists == want {
				if time.Now().After(deadline) {
					t.Fatal("have-list never arrived")
				}
				time.Sleep(200 * time.Microsecond)
			}
		}
	}
	const warmup = 3
	for op := 1; op <= warmup; op++ {
		roundTrip(op)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for op := warmup + 1; op <= warmup+ops; op++ {
		roundTrip(op)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(int64(ops)*snap.NumBytes())
}

// TestAllocBudget is the in-tree gate on the publish path's copies: a
// 4 MiB / 16-chunk model goes Publish → Next over loopback TCP with
// staging on, and the whole process (producer, consumer, KV server) may
// allocate at most 0.25 bytes per payload byte on the full-stream path
// and in delta steady state. The tree measures 0.003–0.05 on both: nothing
// payload-sized per op. A full stream is decoded into, and a delta's back
// buffer cloned into, the arrays of the checkpoint before the active one
// (the consumer's spare); the producer's blobs and the KV server's staging
// values circulate through their pools; a full stream's records land in
// the consumer's receive pool and go back as soon as they are decoded. (Each op
// allocated the installed weights or the clone, ≈ 1.01–1.05, under budgets
// of 1.5 and 1.6; the budget was 2.6 while every record was a fresh slice,
// and the tree before the one-pass work spent 6.6 / 8.5.) The cold-join
// path has its own case beside the relay: TestAllocBudgetColdJoin.
func TestAllocBudget(t *testing.T) {
	const (
		elems     = 512 << 10 // 4 MiB of float64
		chunkSize = 256 << 10 // → 16 chunks
		ops       = 24
		eps       = 1e-3
	)
	for _, tc := range []struct {
		name   string
		delta  bool
		budget float64
		next   func(snap nn.Snapshot, op int)
	}{
		{"full_stream", false, 0.25, func(snap nn.Snapshot, op int) { denseStep(snap) }},
		{"delta_steady", true, 0.25, func(snap nn.Snapshot, op int) { deltaSteady(snap, op, chunkSize, eps) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := chunkedPairConfig{chunkSize: chunkSize, noDelta: !tc.delta}
			if tc.delta {
				cfg.deltaEps = eps
			}
			prod, cons := startChunkedPair(t, nil, cfg)
			snap := flatSnapshot(9, elems)
			got := allocPerPayloadByte(t, prod, cons, snap, ops, func(op int) { tc.next(snap, op) })
			t.Logf("%s: %.3f allocated bytes per payload byte (budget %.2f)", tc.name, got, tc.budget)
			if got > tc.budget {
				t.Errorf("%s allocates %.3f bytes per payload byte, budget %.2f", tc.name, got, tc.budget)
			}
			if tc.delta {
				if s := cons.Stats(); s.DeltaLoads < ops {
					t.Errorf("only %d of the measured installs were deltas: %+v", s.DeltaLoads, s)
				}
			}
		})
	}
}

// denseStep moves every element of snap: the full-stream shape.
func denseStep(snap nn.Snapshot) {
	for _, nt := range snap {
		for i := range nt.Data {
			nt.Data[i] += 0.5
		}
	}
}

// deltaSteady moves snap, a flatSnapshot, on by one op of the delta_steady
// shape: every element drifts within eps, back and forth so that it never
// adds up to a move, and the 9th chunk of chunkSize bytes really moves.
func deltaSteady(snap nn.Snapshot, op, chunkSize int, eps float64) {
	drift := eps / 5
	if op%2 == 0 {
		drift = -drift
	}
	for _, nt := range snap {
		for i := range nt.Data {
			nt.Data[i] += drift
		}
	}
	// Element 9·chunkSize/8 is where chunk 9 starts; tensor "b" begins
	// where "a" ends.
	moved := snap[1].Data[9*chunkSize/8-len(snap[0].Data):][:chunkSize/8]
	for i := range moved {
		moved[i] += float64(op)
	}
}

// TestHeldBudget is the consumer's bytes-held gate, beside the allocation
// budget: TestAllocBudget's two shapes over loopback TCP, a model of M =
// 4 MiB in 16 chunks. The process's live heap, read after a collection
// once after op 8 and once after op 40, may grow by at most M/4 between the
// two. What the consumer holds — the active version, the span source, the
// back buffer, the spare and the parked builds — is a fixed number of
// models whatever the op count: the spare is one slot, not a list, and a
// cache that kept a copy of the one record that moved per op grew by 2 M
// over those 32 ops.
func TestHeldBudget(t *testing.T) {
	const (
		elems     = 512 << 10 // 4 MiB of float64
		chunkSize = 256 << 10 // → 16 chunks
		eps       = 1e-3
	)
	for _, delta := range []bool{false, true} {
		name := map[bool]string{false: "full_stream", true: "delta_steady"}[delta]
		t.Run(name, func(t *testing.T) {
			cfg := chunkedPairConfig{chunkSize: chunkSize, noDelta: !delta}
			if delta {
				cfg.deltaEps = eps
			}
			prod, cons := startChunkedPair(t, nil, cfg)
			snap := flatSnapshot(9, elems)
			model := snap.NumBytes()
			live := func() int64 {
				var m runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&m)
				return int64(m.HeapAlloc)
			}
			var grew int64 // read inside the loop, where snap is still live
			flushed := stageFlushes.Value()
			for op := 1; op <= 40; op++ {
				if delta {
					deltaSteady(snap, op, chunkSize, eps)
				} else {
					denseStep(snap)
				}
				if _, err := prod.Publish(snap, uint64(op), 0.5); err != nil {
					t.Fatal(err)
				}
				if _, err := cons.Next(10 * time.Second); err != nil {
					t.Fatal(err)
				}
				if delta {
					// The have-list is sent once the filler is done, and the
					// flusher lets the blob go once the older staging copies are
					// trimmed.
					waitFor(t, "the have-list", func() bool { return prod.Stats().HaveLists >= int64(op) })
					r, _ := prod.retained()
					waitFor(t, "the staging copy", func() bool { return prod.refsOf(r) == 1 })
				} else {
					// The flush counts once the older staging copies are trimmed.
					waitFor(t, "the staging copy", func() bool { return stageFlushes.Value()-flushed >= int64(op) })
				}
				switch op {
				case 8:
					grew = -live()
				case 40:
					grew += live()
				}
			}
			t.Logf("live heap grew %d bytes from op 8 to op 40 (%.3f M, budget 0.25 M)", grew, float64(grew)/float64(model))
			if grew > model/4 {
				t.Errorf("live heap grew %d bytes from op 8 to op 40, more than M/4 = %d", grew, model/4)
			}
			want := ConsumerStats{LinkLoads: 40}
			if delta {
				want = ConsumerStats{LinkLoads: 40, DeltaLoads: 39, PreparedInstalls: 38}
			}
			if s := cons.Stats(); s.LinkLoads != want.LinkLoads || s.DeltaLoads != want.DeltaLoads || s.StagedLoads != 0 {
				t.Errorf("consumer stats %+v, want every op from the link, and every op after the first a delta when deltas are on", s)
			}
		})
	}
}

// TestDeltaCountGate is the count gate beside the allocation budget: the
// delta_steady shape (every element drifts within eps, 1 of 16 chunks
// really moves) over loopback TCP, counted by the program's own registry.
// The first delta has nothing to inherit from on the producer — the
// seeding publish streamed whole and hashed nothing — so from the second
// delta on, every publish hashes exactly the one record that moved and
// inherits the other 15 hashes, and every install covers exactly 15
// positions from the span source. Every have-list names exactly the 16
// hashes of the span source, one per position, whatever the op count. The
// first delta copies those 15 spans into a fresh snapshot; it is also the
// first build to arrive as a manifest, so its clone is started behind it,
// and from the second delta on every install is a prepared one — patched
// into that clone, which is what copies no span and allocates nothing
// model-sized between manifest and park (pinned where it is decided:
// vformat's TestBackBufferIsGoodForOneAssemblyOfItsSource) — and no clone
// is ever discarded but the last, at Close. Each clone but the first two is
// made into the spare (consumer_recycled_snapshots): the arrays of the
// checkpoint Next handed back when it returned the one before — the seeding
// version's when the second delta parks. On the producer, a version's
// blob is retired once the next one is retained and its own staging copy
// written; the first retired blob written against the base is the first
// delta's, so from the third delta on every publish encodes in place into
// the blob of the version two back: it rewrites chunk 9 — which moved in
// the version between and moves again — and leaves the other 15 records
// as they are. The counts are exact: they do not depend on timing (a
// manifest waits for a clone still being made, and each op waits for its
// staging copy before the next publish).
func TestDeltaCountGate(t *testing.T) {
	const (
		elems     = 16 << 10 // 128 KiB of float64
		chunkSize = 8 << 10  // → 16 chunks
		eps       = 1e-3
	)
	prod, cons := startChunkedPair(t, nil, chunkedPairConfig{chunkSize: chunkSize, deltaEps: eps})
	snap := flatSnapshot(9, elems)
	counters := []string{"producer_hashed_chunks", "producer_inherited_hashes", "consumer_inherited_chunks",
		"consumer_prepared_installs", "consumer_prepared_discards", "producer_inplace_publishes", "producer_reused_records",
		"consumer_recycled_snapshots"}
	sample := func() (v [8]int64) {
		for i, name := range counters {
			v[i] = Metrics().Counter(name).Value()
		}
		return v
	}
	for op := 1; op <= 8; op++ {
		deltaSteady(snap, op, chunkSize, eps)
		before := sample()
		if _, err := prod.Publish(snap, uint64(op), 0.5); err != nil {
			t.Fatal(err)
		}
		if _, err := cons.Next(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "the have-list", func() bool { return prod.Stats().HaveLists >= int64(op) })
		waitFor(t, "the staging copy", func() bool { return prod.Stats().Staged >= int64(op) })
		after := sample()
		var got [8]int64
		for i := range got {
			got[i] = after[i] - before[i]
		}
		want := [8]int64{1, 15, 15, 1, 0, 1, 15, 1}
		switch op {
		case 1: // the seeding version: a full stream, no hashes, no manifest
			want = [8]int64{}
		case 2: // the first delta: the producer has no lineage yet, the consumer no clone and no spare
			want = [8]int64{16, 0, 15, 0, 0, 0, 0, 0}
		case 3: // the retired blob is the seeding version's, written before the base existed
			want = [8]int64{1, 15, 15, 1, 0, 0, 0, 1}
		}
		if got != want {
			t.Fatalf("op %d: %v = %v, want %v", op, counters, got, want)
		}
		prod.mu.Lock()
		have := len(prod.peerHave)
		prod.mu.Unlock()
		if have != 16 {
			t.Fatalf("op %d: the have-list names %d hashes, want the span source's 16", op, have)
		}
	}
	cons.Close()
	if s := cons.Stats(); s.DeltaLoads != 7 || s.StagedLoads != 0 || s.PreparedInstalls != 6 || s.PreparedDiscards != 1 {
		t.Fatalf("consumer stats %+v, want seven delta loads from the link, six of them prepared, and the last clone let go at Close", s)
	}
}

// TestFullStreamCountGate is the full-stream count gate beside
// TestDeltaCountGate: TestAllocBudget's full_stream shape (every element
// moves, reconciliation off) over loopback TCP, counted by the program's own
// registry. The first two streams are assembled into fresh snapshots —
// there is nothing to recycle yet — and from the third on each is assembled
// into the spare: exactly one per op, the arrays of the checkpoint Next
// returned two versions back, which the previous Next handed back. The
// count is exact: ops are closed-loop, so the spare is there before the
// next stream's header arrives.
func TestFullStreamCountGate(t *testing.T) {
	prod, cons := startChunkedPair(t, nil, chunkedPairConfig{chunkSize: 8 << 10, noDelta: true})
	recycled := Metrics().Counter("consumer_recycled_snapshots")
	snap := flatSnapshot(9, 16<<10)
	var installed []*float64 // the first array of every install, by op
	for op := 1; op <= 8; op++ {
		denseStep(snap)
		before := recycled.Value()
		if _, err := prod.Publish(snap, uint64(op), 0.5); err != nil {
			t.Fatal(err)
		}
		ckpt, err := cons.Next(10 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if !snapshotsEqual(ckpt.Weights, snap) || cons.Stats().StagedLoads != 0 {
			t.Fatalf("op %d: not a bit-identical install from the link (%+v)", op, cons.Stats())
		}
		installed = append(installed, &ckpt.Weights[0].Data[0])
		want := int64(1)
		if op <= 2 {
			want = 0
		}
		if got := recycled.Value() - before; got != want {
			t.Fatalf("op %d: consumer_recycled_snapshots moved by %d, want %d", op, got, want)
		}
		if op > 2 && installed[op-1] != installed[op-3] {
			t.Fatalf("op %d was not assembled in the arrays of op %d", op, op-2)
		}
	}
}

// TestChecksumCountGate is the count gate on the link's checksum passes,
// beside the allocation budget: the full-stream shape of TestAllocBudget,
// counted by the transport's own registry. A chunk record is checksummed
// by its encoder and verified by its assembler — once per side — and the
// link adds nothing to that: the frame CRC runs over frame headers and the
// stream header only, so per Publish → Next the bytes it covers, sender
// and receiver together, stay under 1 % of the payload (they were 200 %
// while it covered every record on both sides). The count is exact: the
// same frames cost the same bytes on every op.
func TestChecksumCountGate(t *testing.T) {
	const (
		elems     = 512 << 10 // 4 MiB of float64
		chunkSize = 256 << 10 // → 16 chunks
	)
	prod, cons := startChunkedPair(t, nil, chunkedPairConfig{chunkSize: chunkSize, noDelta: true})
	summed := transport.Metrics().Counter("tcp_checksum_bytes")
	snap := flatSnapshot(9, elems)
	var perOp int64
	for op := 1; op <= 6; op++ {
		denseStep(snap)
		before := summed.Value()
		if _, err := prod.Publish(snap, uint64(op), 0.5); err != nil {
			t.Fatal(err)
		}
		ckpt, err := cons.Next(10 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if !snapshotsEqual(ckpt.Weights, snap) || cons.Stats().StagedLoads != 0 {
			t.Fatalf("op %d: not a bit-identical install from the link (%+v)", op, cons.Stats())
		}
		got := summed.Value() - before
		if op == 1 {
			perOp = got
		}
		if got != perOp || got <= 0 || got*100 >= snap.NumBytes() {
			t.Fatalf("op %d: the frame CRC covered %d bytes of a %d-byte stream (op 1: %d); want the same small count every op, under 1 %% of the payload",
				op, got, snap.NumBytes(), perOp)
		}
	}
	t.Logf("frame CRC bytes per full-stream op, both sides: %d (%.3f %% of the payload)", perOp, 100*float64(perOp)/float64(snap.NumBytes()))
}

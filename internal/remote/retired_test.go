package remote

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"viper/internal/core"
	"viper/internal/kvstore"
	"viper/internal/transport"
	"viper/internal/vformat"
)

// cancelAfter is a context whose Err reports Canceled from its n+1st call
// on. A publish asks once as it starts, and a serial encode (Parallelism 1)
// once before each chunk.
type cancelAfter struct {
	context.Context
	n     int64
	calls atomic.Int64
}

func (c *cancelAfter) Err() error {
	if c.calls.Add(1) > c.n {
		return context.Canceled
	}
	return nil
}

// TestRetiredBlobAfterACancelledPublish: a producer that keeps a base
// encodes each version into the blob of the version two back. A publish
// cancelled after its encode moved chunk 0 — and before it reached chunk 9
// — leaves that move in the base and nowhere else, so the next version
// written into a blob from before it must rewrite chunk 0 although chunk 0
// does not move again. Every version's staged KV copy must be byte for byte
// EncodeChunked of the same snapshot against a clone of the base the
// producer held before the publish; with the pool armed, a retired blob
// read after it went back to the pool would break that.
func TestRetiredBlobAfterACancelledPublish(t *testing.T) {
	const (
		chunkSize  = 1 << 10
		chunkElems = chunkSize / 8
		chunks     = 16
		eps        = 1e-3
	)
	metaAddr, notifyAddr := testServices(t)
	prod, peer := startProducerWithPeerConfig(t, ProducerConfig{
		Model: "m", MetaAddr: metaAddr, NotifyAddr: notifyAddr, Retry: chaosPolicy(31),
		ChunkSize: chunkSize, Parallelism: 1, DeltaEps: eps,
	})
	defer peer.Close()
	drainPeer(peer)
	kv, err := kvstore.Dial(metaAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()

	snap := flatSnapshot(4, chunks*chunkElems)
	cut := len(snap[0].Data)
	at := func(i int) *float64 {
		if i < cut {
			return &snap[0].Data[i]
		}
		return &snap[1].Data[i-cut]
	}
	baseAt := func(i int) float64 {
		prod.mu.Lock()
		defer prod.mu.Unlock()
		if i < cut {
			return prod.lastSnap[0].Data[i]
		}
		return prod.lastSnap[1].Data[i-cut]
	}
	move := func(chunk int) { *at(chunk*chunkElems + 3) += 1 }
	sample := func() [2]int64 {
		s := prod.Stats()
		return [2]int64{s.InPlacePublishes, s.ReusedRecords}
	}

	var staged int64
	// publish publishes version v, checks its in-place counts, and holds
	// its staging copy against a fresh encode.
	publish := func(v uint64, wantInPlace [2]int64) {
		t.Helper()
		prod.mu.Lock()
		var opts vformat.ChunkOptions
		if prod.lastSnap != nil {
			opts.Base, opts.BaseEps = prod.lastSnap.Clone(), eps
		}
		prod.mu.Unlock()
		opts.ChunkBytes, opts.Parallelism = chunkSize, 1
		before := sample()
		if _, err := prod.Publish(snap, v, 0.5); err != nil {
			t.Fatal(err)
		}
		if got := prod.Version(); got != v {
			t.Fatalf("published v%d, want v%d", got, v)
		}
		staged++
		waitFor(t, "the staging copy", func() bool { return prod.Stats().Staged >= staged })
		after := sample()
		if got := [2]int64{after[0] - before[0], after[1] - before[1]}; got != wantInPlace {
			t.Fatalf("v%d: in-place publishes, reused records = %v, want %v", v, got, wantInPlace)
		}
		got, err := kv.GetBytes(core.StagingKey("m", v))
		if err != nil {
			t.Fatal(err)
		}
		want, err := vformat.EncodeChunked(context.Background(),
			&vformat.Checkpoint{ModelName: "m", Version: v, Iteration: v, TrainLoss: 0.5, Weights: snap}, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer vformat.ReleaseBuffer(want)
		if !bytes.Equal(got, want) {
			t.Fatalf("v%d: the staged copy differs from a fresh encode against the same base", v)
		}
	}

	move(9)
	publish(1, [2]int64{}) // the seeding version: a full stream, the base is cloned
	// Advertise a chunk nobody has: every later publish takes the delta
	// path (one encode, then planning) and ships all of its records.
	if err := peer.Send(transport.NewHaveFrame("m", 1, []vformat.ChunkHash{{0xff}})); err != nil {
		t.Fatal(err)
	}
	waitPeerHave(t, prod, 1)
	for v := uint64(2); v <= 4; v++ {
		move(9)
		want := [2]int64{}
		if v == 4 { // into v2's blob; chunk 9 moved in v3 and moves now
			want = [2]int64{1, chunks - 1}
		}
		publish(v, want)
	}

	// v5: chunk 0 moves, and so does chunk 9 — which the encode never reaches.
	move(0)
	move(9)
	ctx := &cancelAfter{Context: context.Background(), n: 2}
	if _, err := prod.PublishContext(ctx, snap, 5, 0.5); !errors.Is(err, context.Canceled) {
		t.Fatalf("PublishContext = %v, want context.Canceled", err)
	}
	if in9 := 9*chunkElems + 3; baseAt(3) != *at(3) || baseAt(in9) == *at(in9) {
		t.Fatal("the cancelled encode did not stop between chunk 0 and chunk 9: the test does not test what it says")
	}

	publish(6, [2]int64{}) // v4 is still the latest: nothing retired to draw
	move(9)
	publish(7, [2]int64{1, chunks - 2}) // into v4's blob: chunk 0 moved since (cancelled), chunk 9 moves
	move(9)
	publish(8, [2]int64{1, chunks - 1}) // into v6's blob: chunk 9 only
	prod.Close()
	prod.mu.Lock()
	defer prod.mu.Unlock()
	if prod.retired != nil {
		t.Fatal("Close left a retired blob in the slot")
	}
}

// TestNeedAnswerPicksRecordsByHash: a need-list is answered with exactly
// the records it names, bit for bit and in blob order — from the hashes a
// delta publish kept, and by hashing a full stream's blob, which kept none.
func TestNeedAnswerPicksRecordsByHash(t *testing.T) {
	const chunkSize = 1 << 10
	metaAddr, notifyAddr := testServices(t)
	prod, peer := startProducerWithPeer(t, metaAddr, notifyAddr, chunkSize, nil)
	defer peer.Close()
	defer prod.Close()

	// recv returns the next n chunk-record frames the peer reads.
	recv := func(n int) [][]byte {
		t.Helper()
		var recs [][]byte
		for len(recs) < n {
			f, err := peer.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if transport.IsChunkFrame(f) {
				recs = append(recs, f.Payload)
			}
		}
		return recs
	}
	for v := uint64(1); v <= 2; v++ {
		snap := flatSnapshot(int64(v), 8<<10)
		blob, err := vformat.EncodeChunked(context.Background(),
			&vformat.Checkpoint{ModelName: "m", Version: v, Weights: snap}, vformat.ChunkOptions{ChunkBytes: chunkSize})
		if err != nil {
			t.Fatal(err)
		}
		var want [][]byte
		if err := vformat.WalkChunkRecords(blob, func(rec []byte) error {
			want = append(want, append([]byte(nil), rec...))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		vformat.ReleaseBuffer(blob)

		if _, err := prod.Publish(snap, v, 0.5); err != nil {
			t.Fatal(err)
		}
		recv(len(want)) // the stream itself
		if r, _ := prod.retained(); (r.hashes != nil) != (v == 2) {
			t.Fatalf("v%d: the retained blob has hashes: %v, want them only for the delta", v, r.hashes != nil)
		}
		key := core.CheckpointKey("m", v)
		picked := []int{2, 5, 6, len(want) - 1}
		var need []vformat.ChunkHash
		for _, i := range picked {
			need = append(need, vformat.HashChunkRecord(want[i]))
		}
		// The marker need behind it: its one record is the next frame once
		// the first answer is complete.
		marker := vformat.HashChunkRecord(want[0])
		for _, n := range [][]vformat.ChunkHash{need, {marker}} {
			if err := peer.Send(transport.NewNeedFrame(key, n)); err != nil {
				t.Fatal(err)
			}
		}
		got := recv(len(picked) + 1)
		for j, i := range append(picked, 0) {
			if !bytes.Equal(got[j], want[i]) {
				t.Fatalf("v%d: answer frame %d is not record %d", v, j, i)
			}
		}
		if v == 1 { // every later publish plans a delta and keeps its hashes
			if err := peer.Send(transport.NewHaveFrame("m", 1, []vformat.ChunkHash{{0xff}})); err != nil {
				t.Fatal(err)
			}
			waitPeerHave(t, prod, 1)
		}
	}
}

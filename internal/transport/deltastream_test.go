package transport

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"

	"viper/internal/vformat"
)

// encodeStreamBlob fully encodes ckpt and returns a copied blob plus
// hashes.
func encodeStreamBlob(t *testing.T, ckpt *vformat.Checkpoint, opts vformat.ChunkOptions) ([]byte, []vformat.ChunkHash) {
	t.Helper()
	enc, err := vformat.NewChunkEncoder(ckpt, opts)
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

// spanSourceOf decodes blob into the span source of a receiver that
// installed it, naming hashes at its positions.
func spanSourceOf(t *testing.T, blob []byte, hashes []vformat.ChunkHash) *vformat.SpanSource {
	t.Helper()
	dec, err := vformat.DecodeChunked(context.Background(), blob, 0)
	if err != nil {
		t.Fatal(err)
	}
	src, err := vformat.NewSpanSource(blob, hashes, dec.Weights)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// TestSendCollectChunkedDelta: a delta stream over an in-memory chanConn
// reconciles against the receiver's span source (the previous version),
// ships only changed chunks, and the result matches a full decode
// byte-for-byte.
func TestSendCollectChunkedDelta(t *testing.T) {
	opts := vformat.ChunkOptions{ChunkBytes: 16 << 10, Parallelism: 2}
	v1 := streamTestCheckpoint(1, 256<<10)
	blob1, hashes1 := encodeStreamBlob(t, v1, opts)
	src := spanSourceOf(t, blob1, hashes1)

	v2 := streamTestCheckpoint(1, 256<<10)
	v2.Version = 4
	v2.Weights[0].Data[17] += 2 // dirty one chunk
	blob2, hashes2 := encodeStreamBlob(t, v2, opts)

	held := map[vformat.ChunkHash]bool{}
	for _, h := range hashes1 {
		held[h] = true
	}
	manifest, records, _, _, err := vformat.PlanDelta(blob2, func(h vformat.ChunkHash) bool { return held[h] })
	if err != nil {
		t.Fatal(err)
	}
	if len(records) == 0 || len(records) == len(hashes2) {
		t.Fatalf("delta carries %d of %d records, want a strict subset", len(records), len(hashes2))
	}

	sentBefore := Metrics().Counter("chunks_sent_total").Value()
	dedupBefore := Metrics().Counter("chunks_deduped_total").Value()

	link := make(chanConn, len(records)+1)
	defer link.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	var got *vformat.Checkpoint
	var inherited int
	var recvErr error
	go func() {
		defer wg.Done()
		mf, err := link.Recv()
		if err != nil {
			recvErr = err
			return
		}
		asm, err := vformat.NewManifestAssembler(mf.Payload, src, nil)
		if err != nil {
			recvErr = err
			return
		}
		got, _, recvErr = CollectChunkedDeltaInto(context.Background(), mf, asm, link.Recv, nil)
		inherited = asm.Inherited()
	}()
	if err := SendChunkedDelta(context.Background(), link, "stream/v4", manifest, records, len(hashes2), len(blob2)); err != nil {
		t.Fatalf("SendChunkedDelta: %v", err)
	}
	wg.Wait()
	if recvErr != nil {
		t.Fatalf("CollectChunkedDeltaInto: %v", recvErr)
	}
	if inherited != len(hashes2)-len(records) {
		t.Fatalf("inherited %d chunks, want %d", inherited, len(hashes2)-len(records))
	}
	full, err := vformat.DecodeChunked(context.Background(), blob2, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertSameWeights(t, full, got)

	if d := Metrics().Counter("chunks_sent_total").Value() - sentBefore; d != int64(len(records)) {
		t.Fatalf("chunks_sent_total moved by %d, want %d", d, len(records))
	}
	if d := Metrics().Counter("chunks_deduped_total").Value() - dedupBefore; d != int64(len(hashes2)-len(records)) {
		t.Fatalf("chunks_deduped_total moved by %d, want %d", d, len(hashes2)-len(records))
	}
}

// TestCollectChunkedDeltaNeedResend: the chaos drill at the transport
// layer. The receiver's span source moved on at a position the sender
// elided; the collect must send a need-list and finish from the re-sent
// record — and must hard-fail (never assemble torn) when there is no
// backchannel.
func TestCollectChunkedDeltaNeedResend(t *testing.T) {
	opts := vformat.ChunkOptions{ChunkBytes: 8 << 10}
	v1 := streamTestCheckpoint(2, 128<<10)
	blob1, hashes1 := encodeStreamBlob(t, v1, opts)
	v2 := streamTestCheckpoint(2, 128<<10)
	v2.Version = 4
	v2.Weights[1].Data[3] += 1
	blob2, hashes2 := encodeStreamBlob(t, v2, opts)

	held := map[vformat.ChunkHash]bool{}
	for _, h := range hashes1 {
		held[h] = true
	}
	manifest, records, _, _, err := vformat.PlanDelta(blob2, func(h vformat.ChunkHash) bool { return held[h] })
	if err != nil {
		t.Fatal(err)
	}
	// The source holds another record at one elided position.
	var evicted vformat.ChunkHash
	moved := slices.Clone(hashes1)
	for i, h := range hashes2 {
		if held[h] {
			evicted, moved[i] = h, vformat.ChunkHash{0xee}
			break
		}
	}
	src := spanSourceOf(t, blob1, moved)

	// No backchannel: must fail with ErrMissingChunk, not assemble torn.
	{
		link := make(chanConn, len(records)+1)
		var wg sync.WaitGroup
		wg.Add(1)
		var recvErr error
		go func() {
			defer wg.Done()
			mf, err := link.Recv()
			if err != nil {
				recvErr = err
				return
			}
			asm, err := vformat.NewManifestAssembler(mf.Payload, src, nil)
			if err != nil {
				recvErr = err
				return
			}
			_, _, recvErr = CollectChunkedDeltaInto(context.Background(), mf, asm, link.Recv, nil)
		}()
		if err := SendChunkedDelta(context.Background(), link, "k", manifest, records, len(hashes2), len(blob2)); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		link.Close()
		if !errors.Is(recvErr, vformat.ErrMissingChunk) {
			t.Fatalf("no-backchannel collect = %v, want ErrMissingChunk", recvErr)
		}
	}

	// With a backchannel: need-list goes back, the sender re-sends, the
	// checkpoint completes bit-exact.
	down := make(chanConn, len(records)+4)
	defer down.Close()
	needC := make(chan Frame, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	var got *vformat.Checkpoint
	var recvErr error
	go func() {
		defer wg.Done()
		mf, err := down.Recv()
		if err != nil {
			recvErr = err
			return
		}
		asm, err := vformat.NewManifestAssembler(mf.Payload, src, nil)
		if err != nil {
			recvErr = err
			return
		}
		send := func(f Frame) error { needC <- f; return nil }
		got, _, recvErr = CollectChunkedDeltaInto(context.Background(), mf, asm, down.Recv, send)
	}()
	if err := SendChunkedDelta(context.Background(), down, "k", manifest, records, len(hashes2), len(blob2)); err != nil {
		t.Fatal(err)
	}
	// Sender side: answer the need-list from the full blob.
	need := <-needC
	_, needHashes, err := ParseNeedFrame(need)
	if err != nil {
		t.Fatal(err)
	}
	if len(needHashes) != 1 || needHashes[0] != evicted {
		t.Fatalf("need-list = %v, want the moved position's hash", needHashes)
	}
	needSet := map[vformat.ChunkHash]bool{evicted: true}
	err = vformat.WalkChunkRecords(blob2, func(rec []byte) error {
		if needSet[vformat.HashChunkRecord(rec)] {
			return down.Send(ChunkRecordFrame("k", rec))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if recvErr != nil {
		t.Fatalf("collect with resend: %v", recvErr)
	}
	full, err := vformat.DecodeChunked(context.Background(), blob2, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertSameWeights(t, full, got)
}

// TestHaveNeedFrameRoundTrip covers the side-channel frame helpers.
func TestHaveNeedFrameRoundTrip(t *testing.T) {
	hs := []vformat.ChunkHash{vformat.HashChunkRecord([]byte{1})}
	have := NewHaveFrame("tc1", 7, hs)
	model, version, gotHs, err := ParseHaveFrame(have)
	if err != nil {
		t.Fatal(err)
	}
	if model != "tc1" || version != 7 || len(gotHs) != 1 || gotHs[0] != hs[0] {
		t.Fatalf("have round-trip: %s v%d %v", model, version, gotHs)
	}
	need := NewNeedFrame("stream/v8", hs)
	key, gotHs, err := ParseNeedFrame(need)
	if err != nil {
		t.Fatal(err)
	}
	if key != "stream/v8" || len(gotHs) != 1 {
		t.Fatalf("need round-trip: %s %v", key, gotHs)
	}
	if IsHaveFrame(need) || IsNeedFrame(have) {
		t.Fatal("frame kind predicates confused")
	}
}

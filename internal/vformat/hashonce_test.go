package vformat

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"
)

// TestHashOncePlanProperty pins the hash-once contract over precision ×
// chunk size × parallelism: the hashes the encoder's worker pool fills on
// the first Hashes call equal a fresh ChunkHashesOf pass over the blob
// (and a second call returns them without hashing again), and a plan
// built from them is byte-identical to PlanDelta's.
func TestHashOncePlanProperty(t *testing.T) {
	ckpt := chunkTestCheckpoint(7, 20_000)
	for _, prec := range []Precision{PrecFloat64, PrecFloat32, PrecFloat16} {
		for _, chunkBytes := range []int{1 << 9, 1 << 12, 1 << 20} {
			for _, workers := range []int{1, 3} {
				name := fmt.Sprintf("%s/chunk%d/par%d", prec, chunkBytes, workers)
				t.Run(name, func(t *testing.T) {
					enc, err := NewChunkEncoder(ckpt, ChunkOptions{
						Precision: prec, ChunkBytes: chunkBytes, Parallelism: workers,
					})
					if err != nil {
						t.Fatal(err)
					}
					defer enc.Release()
					if _, err := enc.Hashes(); err == nil {
						t.Fatal("Hashes before EncodeStream succeeded")
					}
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
					if again, err := enc.Hashes(); err != nil || &again[0] != &hashes[0] {
						t.Fatalf("second Hashes call re-hashed or failed: %v", err)
					}
					want, err := ChunkHashesOf(blob)
					if err != nil {
						t.Fatal(err)
					}
					if len(hashes) != len(want) {
						t.Fatalf("encoder has %d hashes, blob has %d records", len(hashes), len(want))
					}
					for i := range want {
						if hashes[i] != want[i] {
							t.Fatalf("hash %d: encoder %s, blob %s", i, hashes[i], want[i])
						}
					}
					// Every third chunk is "held" by the receiver.
					held := make(map[ChunkHash]bool)
					for i := 0; i < len(want); i += 3 {
						held[want[i]] = true
					}
					have := func(h ChunkHash) bool { return held[h] }
					man1, recs1, hashes1, elided1, err := PlanDelta(blob, have)
					if err != nil {
						t.Fatal(err)
					}
					man2, recs2, elided2, err := PlanDeltaHashed(blob, hashes, have)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(man1, man2) || elided1 != elided2 || len(recs1) != len(recs2) || len(hashes1) != len(hashes) {
						t.Fatalf("plans differ: manifest %d vs %d bytes, elided %d vs %d, %d vs %d records",
							len(man1), len(man2), elided1, elided2, len(recs1), len(recs2))
					}
					for i := range recs1 {
						if !bytes.Equal(recs1[i], recs2[i]) {
							t.Fatalf("record %d differs between the plans", i)
						}
					}
					if _, _, _, err := PlanDeltaHashed(blob, append(hashes[:len(hashes):len(hashes)], ChunkHash{}), have); err == nil {
						t.Fatal("a hash count that does not match the chunk count was accepted")
					}
				})
			}
		}
	}
}

// TestLazyHashesNeedTheBlob: the encoder hashes on the first Hashes
// call, so it can only produce hashes while it still owns the blob.
func TestLazyHashesNeedTheBlob(t *testing.T) {
	enc, err := NewChunkEncoder(chunkTestCheckpoint(3, 1000), ChunkOptions{ChunkBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.EncodeStream(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	blob, err := enc.Detach()
	if err != nil {
		t.Fatal(err)
	}
	defer ReleaseBuffer(blob)
	if _, err := enc.Hashes(); err == nil {
		t.Fatal("lazy Hashes after Detach succeeded without a blob to hash")
	}
	enc.Release() // a no-op after Detach: must not double-pool the blob
	if _, err := DecodeChunked(context.Background(), blob, 0); err != nil {
		t.Fatalf("detached blob no longer decodes: %v", err)
	}
}

// allocBytes reports the bytes fn allocates (TotalAlloc delta, GC
// quiesced around it).
func allocBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestHeaderParseDoesNotAllocateTheModel: reading a 16 MiB model's
// layout costs header-sized allocations, and a full decode allocates the
// weights once.
func TestHeaderParseDoesNotAllocateTheModel(t *testing.T) {
	const elems = 2 << 20 // 16 MiB of float64
	ckpt := chunkTestCheckpoint(5, elems)
	blob, err := EncodeChunked(context.Background(), ckpt, ChunkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ReleaseBuffer(blob)
	if n := allocBytes(func() {
		if _, _, _, err := ParseChunkHeader(blob); err != nil {
			t.Error(err)
		}
		if err := WalkChunkRecords(blob, func([]byte) error { return nil }); err != nil {
			t.Error(err)
		}
	}); n >= 64<<10 {
		t.Errorf("header parse + record walk of a 16 MiB model allocated %d bytes, want < 64 KiB", n)
	}
	var got *Checkpoint
	n := allocBytes(func() {
		if got, err = DecodeChunked(context.Background(), blob, 0); err != nil {
			t.Error(err)
		}
	})
	if perByte := float64(n) / float64(8*elems); perByte > 1.1 {
		t.Errorf("DecodeChunked allocated %.3f bytes per payload byte, want <= 1.1", perByte)
	}
	if got != nil {
		assertWeightsMatch(t, PrecFloat64, ckpt.Weights, got.Weights)
	}
}

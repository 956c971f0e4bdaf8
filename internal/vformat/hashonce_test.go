package vformat

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"viper/internal/nn"
)

// TestHashOncePlanProperty pins the hash-once contract over precision ×
// chunk size × parallelism: the hashes the encoder's worker pool fills on
// the first Hashes call equal a fresh ChunkHashesOf pass over the blob
// (and a second call returns them without hashing again), and a plan
// built from them is byte-identical to PlanDelta's. Then, per eps, the
// same holds along a lineage (lineageWalk): hashes inherited through a
// BaseLineage are the blob's, whatever happened between two encodes.
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
					for _, eps := range []float64{0, 1.0 / 1024} {
						lineageWalk(t, prec, chunkBytes, workers, eps)
					}
				})
			}
		}
	}
}

// lineageWalk drives one training snapshot, one base and one BaseLineage
// through a seeded random interleaving of everything that can happen
// between two encodes — an encode that hashes, one that does not, one
// cancelled mid-stream, one whose Hashes call comes only after a later
// encode, the base replaced by an equal clone, a tensor reshaped, the
// precision or chunk size changed, elements put exactly on ±eps, and the
// blobs of earlier encodes — completed or cancelled, of this base and
// layout or another — retired to the lineage in any order — and checks:
//   - after every Hashes call, that the result is ChunkHashesOf(blob) hash
//     for hash, and that the encoder hashed exactly the dirty chunks
//     whenever the previous completed, hashed encode was against the same
//     base object under the same layout (and every chunk otherwise);
//   - after every completed in-place encode, that its blob is byte for
//     byte a fresh pool-blob encode of the same snapshot against a clone
//     of the base as it was before, and that the two left equal bases.
func lineageWalk(t *testing.T, prec Precision, chunkBytes, workers int, eps float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(prec)<<40 ^ int64(chunkBytes)<<8 ^ int64(workers)<<1 ^ int64(math.Float64bits(eps)>>52)))
	ckpt := chunkTestCheckpoint(11, 6_000)
	weights := ckpt.Weights
	base := weights.Clone()
	var lineage BaseLineage
	precisions := []Precision{PrecFloat64, PrecFloat32, PrecFloat16}
	chunkSizes := []int{1 << 9, 1 << 12, 1 << 20}

	// The oracle's view of the lineage: the layout of the last encode that
	// completed and hashed against the current base object, if no other
	// encode has touched that base since.
	type layoutKey struct {
		prec       Precision
		chunkBytes int
		shape      string
	}
	key := func() layoutKey { return layoutKey{prec, chunkBytes, fmt.Sprint(weights[2].Shape)} }
	var inheritable bool
	var inheritedKey layoutKey

	opts := func() ChunkOptions {
		return ChunkOptions{
			Precision: prec, ChunkBytes: chunkBytes, Parallelism: workers,
			Base: base, BaseEps: eps, Lineage: &lineage,
		}
	}
	// dirtyChunks applies putElemsBase's predicate to the flat element
	// stream: the chunks holding an element further than eps from its base.
	dirtyChunks := func() int {
		chunkElems := max(chunkBytes/prec.BytesPerElement(), 1)
		dirty := make(map[int]bool)
		flat := 0
		for ti, nt := range weights {
			for i, v := range nt.Data {
				if d := v - base[ti].Data[i]; d > eps || d < -eps {
					dirty[flat/chunkElems] = true
				}
				flat++
			}
		}
		return len(dirty)
	}
	// step mutates the training snapshot: a few real moves, sub-eps drift
	// on one tensor, and a few elements put exactly eps from their base.
	onEps := 0
	step := func() {
		for k := rng.Intn(4); k > 0; k-- {
			nt := weights[2+rng.Intn(3)]
			nt.Data[rng.Intn(len(nt.Data))] += 3*eps + 0.5
		}
		if eps > 0 {
			for i := range weights[3].Data {
				weights[3].Data[i] = base[3].Data[i] + eps/8
			}
		}
		for k := 0; k < 3; k++ {
			ti := 2 + rng.Intn(3)
			i := rng.Intn(len(weights[ti].Data))
			v := base[ti].Data[i] + eps
			if k%2 == 1 {
				v = base[ti].Data[i] - eps
			}
			if d := v - base[ti].Data[i]; d == eps || d == -eps {
				weights[ti].Data[i] = v
				onEps++
			}
		}
	}
	// held are the blobs of completed encodes, detached, oldest first;
	// retire hands the lineage one of them — or two, the newer winning.
	var held [][]byte
	inPlace := 0
	retire := func() {
		for k := 1 + rng.Intn(2); k > 0 && len(held) > 0; k-- {
			i := rng.Intn(len(held))
			lineage.Retire(held[i])
			held = slices.Delete(held, i, i+1)
		}
	}
	// finish lets go of a completed encoder's blob: kept for a later
	// retire, or back to the pool.
	finish := func(enc *ChunkEncoder) {
		if rng.Intn(4) == 0 {
			enc.Release()
			return
		}
		blob, err := enc.Detach()
		if err != nil {
			t.Fatal(err)
		}
		if held = append(held, blob); len(held) > 3 {
			ReleaseBuffer(held[0])
			held = held[1:]
		}
	}
	type pending struct {
		enc    *ChunkEncoder
		hashed int // records its Hashes call must hash
	}
	// encode runs one whole encode and returns it with the oracle's count,
	// after holding an in-place encode's blob and the base it left against
	// a fresh encode.
	encode := func() pending {
		want := dirtyChunks()
		if !inheritable || inheritedKey != key() {
			want = -1 // every chunk; the count is known once the layout is
		}
		pre := base.Clone()
		enc, err := NewChunkEncoder(ckpt, opts())
		if err != nil {
			t.Fatal(err)
		}
		if err := enc.EncodeStream(context.Background(), nil); err != nil {
			t.Fatal(err)
		}
		if enc.InPlace() {
			inPlace++
			fresh, err := EncodeChunked(context.Background(), ckpt, ChunkOptions{
				Precision: prec, ChunkBytes: chunkBytes, Parallelism: 1, Base: pre, BaseEps: eps,
			})
			if err != nil {
				t.Fatal(err)
			}
			blob, err := enc.Blob()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(blob, fresh) {
				t.Fatalf("eps %g: an in-place encode (%d records reused) differs from a fresh one against the same base", eps, enc.ReusedRecords())
			}
			ReleaseBuffer(fresh)
			for ti := range base {
				for i, v := range base[ti].Data {
					if math.Float64bits(v) != math.Float64bits(pre[ti].Data[i]) {
						t.Fatalf("eps %g: tensor %d of the base differs from the one a fresh encode left", eps, ti)
					}
				}
			}
		}
		if want < 0 {
			want = enc.NumChunks()
		}
		inheritable = false // until its Hashes call
		return pending{enc, want}
	}
	// check makes p's Hashes call and holds it against the blob.
	check := func(what string, p pending) {
		blob, err := p.enc.Blob()
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.enc.Hashes()
		if err != nil {
			t.Fatal(err)
		}
		want, err := ChunkHashesOf(blob)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s (eps %g): Hashes differ from ChunkHashesOf(blob)", what, eps)
		}
		if p.enc.HashedRecords() != p.hashed {
			t.Fatalf("%s (eps %g): hashed %d of %d records, want %d", what, eps, p.enc.HashedRecords(), len(got), p.hashed)
		}
	}

	for i := 0; i < 40; i++ {
		step()
		if rng.Intn(3) > 0 {
			retire()
		}
		switch op := rng.Intn(10); op {
		default: // encode + Hashes, the steady state
			p := encode()
			check("encode+Hashes", p)
			finish(p.enc)
			inheritable, inheritedKey = true, key()
		case 3: // encode without Hashes (a full stream in delta mode)
			finish(encode().enc)
		case 4: // encode cancelled mid-stream: part of the base has moved
			ctx, cancel := context.WithCancel(context.Background())
			enc, err := NewChunkEncoder(ckpt, opts())
			if err != nil {
				t.Fatal(err)
			}
			stopAt := rng.Intn(enc.NumChunks())
			err = enc.EncodeStream(ctx, func(idx int, _ []byte) error {
				if idx == stopAt {
					cancel()
				}
				return nil
			})
			// The last chunk's emit has nothing left to cancel.
			if !errors.Is(err, context.Canceled) && stopAt != enc.NumChunks()-1 {
				t.Fatalf("cancelled encode returned %v", err)
			}
			cancel()
			if errors.Is(err, context.Canceled) && rng.Intn(2) == 0 {
				// A torn blob offered for retirement must be refused.
				lineage.Retire(enc.blob)
				enc.blob = nil
			}
			enc.Release()
			inheritable = false
		case 5: // Hashes asked only after a later encode has come and gone
			late := encode()
			step()
			p := encode()
			check("encode+Hashes after an unhashed one", p)
			finish(p.enc)
			inheritable, inheritedKey = true, key()
			check("late Hashes", late) // right for its own blob, and not put back
			finish(late.enc)
		case 6: // base replaced by an equal clone
			base = base.Clone()
			inheritable = false
		case 7: // a tensor reshaped, element count kept
			if n := len(weights[2].Data); len(weights[2].Shape) == 1 {
				weights[2].Shape, base[2].Shape = []int{1, n}, []int{1, n}
			} else {
				weights[2].Shape, base[2].Shape = []int{n}, []int{n}
			}
		case 8: // precision or chunk size changed
			if rng.Intn(2) == 0 {
				prec = precisions[rng.Intn(len(precisions))]
			} else {
				chunkBytes = chunkSizes[rng.Intn(len(chunkSizes))]
			}
		}
	}
	for _, blob := range held {
		ReleaseBuffer(blob)
	}
	if onEps == 0 {
		t.Fatalf("eps %g: no element ever sat exactly on ±eps", eps)
	}
	if inPlace == 0 {
		t.Fatalf("eps %g: no encode ever drew a retired blob", eps)
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

// checkHashDecoded encodes weights under opts, decodes the blob, and
// requires HashDecoded over the decoded weights to give back, position by
// position, the hash of every record the encoder wrote: the hashes a
// consumer advertises for an install without keeping its records.
func checkHashDecoded(t *testing.T, weights nn.Snapshot, opts ChunkOptions) {
	t.Helper()
	blob, err := EncodeChunked(context.Background(), &Checkpoint{ModelName: "hashed", Version: 1, Weights: weights}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ReleaseBuffer(blob)
	want, err := ChunkHashesOf(blob)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeChunked(context.Background(), blob, 1)
	if err != nil {
		t.Fatal(err)
	}
	layout, _, _, err := ParseChunkHeader(blob)
	if err != nil {
		t.Fatal(err)
	}
	got := layout.HashDecoded(dec.Weights, nil)
	if got == nil || len(got) != len(want) {
		t.Fatalf("HashDecoded gave %d hashes for %d records", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: chunk %d of %d hashes %s decoded, its record %s", opts.Precision, i, len(want), got[i], want[i])
		}
	}
}

// hashDecodedValues are specialValues plus what bends at a reduced
// precision: fp32 subnormals and underflow, fp16 values that saturate,
// round to even, carry into the exponent, land subnormal or underflow.
func hashDecodedValues() []float64 {
	return append(specialValues(),
		1e-40, -1e-44, 1e-46, // fp32 subnormal, smallest, underflow
		65504, 65519, 65520, -1e5, 1e300, // fp16 max, saturating
		1+0x1p-11, 1+3*0x1p-11, 1-0x1p-12, 2047.5, // fp16 ties and a carry
		0x1p-24, 3*0x1p-25, 6.1e-5, -0x1p-20, 1e-9, // fp16 subnormals, underflow
		math.SmallestNonzeroFloat64, 0.1, -1.0/3,
	)
}

// TestHashDecodedIsTheRecordHash: at every precision, over random values,
// ±0, ±Inf, NaNs, subnormals and fp16 values that saturate or round, the
// hashes HashDecoded computes from decoded weights are those of the records
// the encoder wrote — with a tensor boundary inside a chunk, a short last
// chunk, and no chunk at all — and a closed stop returns nil.
func TestHashDecodedIsTheRecordHash(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	vals := hashDecodedValues()
	for range 200 {
		vals = append(vals, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(12)-6)))
	}
	split := 7 // a tensor boundary inside the first 8-element chunk
	mixed := nn.Snapshot{
		{Name: "a", Shape: []int{split}, Data: vals[:split]},
		{Name: "empty", Shape: []int{0}},
		{Name: "b", Shape: []int{len(vals) - split}, Data: vals[split:]},
	}
	if len(vals)%8 == 0 {
		t.Fatal("set-up: the last chunk must be short")
	}
	for _, p := range []Precision{PrecFloat64, PrecFloat32, PrecFloat16} {
		t.Run(p.String(), func(t *testing.T) {
			opts := ChunkOptions{Precision: p, ChunkBytes: 8 * p.BytesPerElement()}
			checkHashDecoded(t, mixed, opts)
			checkHashDecoded(t, specialSnapshot(), specialChunkOptions(p))
			checkHashDecoded(t, nn.Snapshot{{Name: "none", Shape: []int{0}}}, opts)
			checkHashDecoded(t, mixed, ChunkOptions{Precision: p}) // one chunk, all of it
		})
	}
	layout := planLayout(mixed, ChunkOptions{ChunkBytes: 64})
	stop := make(chan struct{})
	close(stop)
	if got := layout.HashDecoded(mixed, stop); got != nil {
		t.Fatalf("a closed stop returned %d hashes", len(got))
	}
}

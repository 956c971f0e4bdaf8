package vformat

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"viper/internal/nn"
)

// chunkTestSnapshot builds a deterministic multi-tensor snapshot with
// awkward shapes: a zero-element tensor, a scalar, and sizes chosen so
// tensor boundaries rarely align with chunk boundaries.
func chunkTestSnapshot(seed int64, elems int) nn.Snapshot {
	rng := rand.New(rand.NewSource(seed))
	// Split elems across several tensors with deliberately odd sizes.
	sizes := []int{1, 0, elems / 3, elems / 7}
	used := 1 + sizes[2] + sizes[3]
	sizes = append(sizes, elems-used)
	snap := make(nn.Snapshot, 0, len(sizes))
	for i, n := range sizes {
		data := make([]float64, n)
		for j := range data {
			data[j] = rng.NormFloat64() * 10
		}
		snap = append(snap, nn.NamedTensor{
			Name:  fmt.Sprintf("t%d", i),
			Shape: []int{n},
			Data:  data,
		})
	}
	return snap
}

func chunkTestCheckpoint(seed int64, elems int) *Checkpoint {
	return &Checkpoint{
		ModelName: "chunktest",
		Version:   7,
		Iteration: 4200,
		TrainLoss: 0.03125,
		Weights:   chunkTestSnapshot(seed, elems),
	}
}

// tolFor returns the absolute-error tolerance for |v| at precision p.
func tolFor(p Precision, v float64) float64 {
	switch p {
	case PrecFloat32:
		return 1e-5 * (1 + math.Abs(v))
	case PrecFloat16:
		return 2e-2 * (1 + math.Abs(v))
	default:
		return 0
	}
}

func assertWeightsMatch(t *testing.T, p Precision, want, got nn.Snapshot) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("tensor count: got %d, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i].Name != got[i].Name {
			t.Fatalf("tensor %d name: got %q, want %q", i, got[i].Name, want[i].Name)
		}
		if len(want[i].Data) != len(got[i].Data) {
			t.Fatalf("tensor %q: got %d elems, want %d", want[i].Name, len(got[i].Data), len(want[i].Data))
		}
		for j, v := range want[i].Data {
			g := got[i].Data[j]
			if p == PrecFloat64 {
				if math.Float64bits(g) != math.Float64bits(v) {
					t.Fatalf("tensor %q[%d]: got %v, want bit-identical %v", want[i].Name, j, g, v)
				}
				continue
			}
			if diff := math.Abs(g - v); diff > tolFor(p, v) {
				t.Fatalf("tensor %q[%d] at %v: got %v, want %v ± %v", want[i].Name, j, p, g, v, tolFor(p, v))
			}
		}
	}
}

// TestChunkedRoundTripMatrix is the property sweep the issue asks for:
// every Precision × chunk-size combination must decode bit-identically
// (float64) or within precision tolerance. Chunk sizes are chosen to
// exercise 1-elem chunks, chunk==tensor misalignment, single-chunk
// streams, and chunks larger than the whole snapshot.
func TestChunkedRoundTripMatrix(t *testing.T) {
	elems := 10_000
	for _, p := range []Precision{PrecFloat64, PrecFloat32, PrecFloat16} {
		for _, chunkBytes := range []int{1, 128, 4096, 64 << 10, 100 << 20} {
			for _, par := range []int{1, 4} {
				name := fmt.Sprintf("%v/chunk=%d/par=%d", p, chunkBytes, par)
				t.Run(name, func(t *testing.T) {
					ckpt := chunkTestCheckpoint(42, elems)
					blob, err := EncodeChunked(context.Background(), ckpt,
						ChunkOptions{Precision: p, ChunkBytes: chunkBytes, Parallelism: par})
					if err != nil {
						t.Fatalf("EncodeChunked: %v", err)
					}
					defer ReleaseBuffer(blob)
					got, err := DecodeChunked(context.Background(), blob, par)
					if err != nil {
						t.Fatalf("DecodeChunked: %v", err)
					}
					if got.ModelName != ckpt.ModelName || got.Version != ckpt.Version ||
						got.Iteration != ckpt.Iteration || got.TrainLoss != ckpt.TrainLoss {
						t.Fatalf("metadata mismatch: got %+v", got)
					}
					assertWeightsMatch(t, p, ckpt.Weights, got.Weights)
				})
			}
		}
	}
}

// TestChunkedWithDeltaChain checks the incremental route at every
// precision: a version encoded against the previous one's wire values
// (with and without a suppression threshold) must round-trip within
// precision tolerance of the true next snapshot, and stay within eps of
// it where changes were suppressed.
func TestChunkedWithDeltaChain(t *testing.T) {
	base := chunkTestSnapshot(1, 5000)
	next := base.Clone()
	rng := rand.New(rand.NewSource(2))
	for i := range next {
		for j := range next[i].Data {
			if rng.Intn(10) == 0 {
				next[i].Data[j] += rng.NormFloat64()
			}
		}
	}
	for _, eps := range []float64{0, 1e-6} {
		for _, p := range []Precision{PrecFloat64, PrecFloat32, PrecFloat16} {
			// The previous version's wire values at this precision.
			prev, err := EncodeChunked(context.Background(), &Checkpoint{ModelName: "delta", Version: 1, Weights: base},
				ChunkOptions{Precision: p, ChunkBytes: 1024})
			if err != nil {
				t.Fatalf("EncodeChunked base: %v", err)
			}
			wire, err := DecodeChunked(context.Background(), prev, 2)
			ReleaseBuffer(prev)
			if err != nil {
				t.Fatalf("DecodeChunked base: %v", err)
			}
			ckpt := &Checkpoint{ModelName: "delta", Version: 2, Iteration: 10, Weights: next}
			blob, err := EncodeChunked(context.Background(), ckpt,
				ChunkOptions{Precision: p, ChunkBytes: 1024, Base: wire.Weights, BaseEps: eps})
			if err != nil {
				t.Fatalf("EncodeChunked: %v", err)
			}
			got, err := DecodeChunked(context.Background(), blob, 2)
			ReleaseBuffer(blob)
			if err != nil {
				t.Fatalf("DecodeChunked: %v", err)
			}
			// eps-suppressed changes are below every precision tolerance.
			if p == PrecFloat64 && eps > 0 {
				for i := range next {
					for j, v := range next[i].Data {
						if math.Abs(got.Weights[i].Data[j]-v) > eps {
							t.Fatalf("tensor %d[%d]: suppression error exceeds eps", i, j)
						}
					}
				}
				continue
			}
			assertWeightsMatch(t, p, next, got.Weights)
		}
	}
}

// TestChunkStreamAssembly feeds the emitted records into an assembler in
// reverse order with duplicates, simulating out-of-order delivery and a
// post-reconnect resend.
func TestChunkStreamAssembly(t *testing.T) {
	ckpt := chunkTestCheckpoint(3, 8000)
	enc, err := NewChunkEncoder(ckpt, ChunkOptions{ChunkBytes: 2048, Parallelism: 2})
	if err != nil {
		t.Fatalf("NewChunkEncoder: %v", err)
	}
	defer enc.Release()
	var recs [][]byte
	err = enc.EncodeStream(context.Background(), func(idx int, rec []byte) error {
		if idx != len(recs) {
			t.Fatalf("emit out of order: got idx %d, want %d", idx, len(recs))
		}
		recs = append(recs, append([]byte(nil), rec...))
		return nil
	})
	if err != nil {
		t.Fatalf("EncodeStream: %v", err)
	}
	if len(recs) != enc.NumChunks() {
		t.Fatalf("emitted %d records, want %d", len(recs), enc.NumChunks())
	}
	asm, err := NewChunkAssembler(enc.Header(), nil)
	if err != nil {
		t.Fatalf("NewChunkAssembler: %v", err)
	}
	if asm.Complete() {
		t.Fatal("assembler complete before any chunk")
	}
	if _, err := asm.Checkpoint(); !errors.Is(err, ErrIncompleteStream) {
		t.Fatalf("Checkpoint on empty assembler: %v, want ErrIncompleteStream", err)
	}
	for i := len(recs) - 1; i >= 0; i-- {
		complete, err := asm.Add(recs[i])
		if err != nil {
			t.Fatalf("Add(%d): %v", i, err)
		}
		if complete != (i == 0) {
			t.Fatalf("Add(%d): complete=%v", i, complete)
		}
		if i == len(recs)/2 { // duplicate mid-stream: must be a no-op
			if complete, err := asm.Add(recs[i]); err != nil || complete {
				t.Fatalf("duplicate Add: complete=%v err=%v", complete, err)
			}
		}
	}
	got, err := asm.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	assertWeightsMatch(t, PrecFloat64, ckpt.Weights, got.Weights)
}

// TestChunkedCorruptionRejected flips one byte at every region of the
// blob (header, each record's payload, a CRC trailer) and checks the
// decoder rejects the stream rather than returning corrupt weights.
func TestChunkedCorruptionRejected(t *testing.T) {
	ckpt := chunkTestCheckpoint(4, 2000)
	blob, err := EncodeChunked(context.Background(), ckpt, ChunkOptions{ChunkBytes: 1024})
	if err != nil {
		t.Fatalf("EncodeChunked: %v", err)
	}
	defer ReleaseBuffer(blob)
	// One offset in the header, then one inside each chunk record.
	offsets := []int{len(chunkMagic) + 20}
	_, _, recs, err := ChunkRecords(blob)
	if err != nil {
		t.Fatalf("ChunkRecords: %v", err)
	}
	for _, r := range recs {
		offsets = append(offsets, r.Offset+chunkRecHeaderLen+r.Size/2, r.Offset+r.Size-2)
	}
	for _, off := range offsets {
		corrupt := append([]byte(nil), blob...)
		corrupt[off] ^= 0x40
		if _, err := DecodeChunked(context.Background(), corrupt, 1); err == nil {
			t.Fatalf("DecodeChunked accepted blob corrupted at offset %d", off)
		}
		if _, err := DecodeChunked(context.Background(), corrupt, 4); err == nil {
			t.Fatalf("parallel DecodeChunked accepted blob corrupted at offset %d", off)
		}
	}
	// A corrupt record fed to the assembler must return ErrCorruptChunk.
	asm, err := NewChunkAssembler(blob, nil)
	if err != nil {
		t.Fatalf("NewChunkAssembler: %v", err)
	}
	rec := append([]byte(nil), blob[recs[0].Offset:recs[0].Offset+recs[0].Size]...)
	rec[chunkRecHeaderLen] ^= 0x01
	if _, err := asm.Add(rec); !errors.Is(err, ErrCorruptChunk) {
		t.Fatalf("Add(corrupt) = %v, want ErrCorruptChunk", err)
	}
}

// TestChunkedTornStreamRejected truncates the blob at several points; a
// torn stream must surface ErrIncompleteStream or ErrCorruptChunk, never
// a checkpoint.
func TestChunkedTornStreamRejected(t *testing.T) {
	ckpt := chunkTestCheckpoint(5, 2000)
	blob, err := EncodeChunked(context.Background(), ckpt, ChunkOptions{ChunkBytes: 1024})
	if err != nil {
		t.Fatalf("EncodeChunked: %v", err)
	}
	defer ReleaseBuffer(blob)
	for _, cut := range []int{5, 40, len(blob) / 2, len(blob) - 3} {
		if _, err := DecodeChunked(context.Background(), blob[:cut], 1); err == nil {
			t.Fatalf("DecodeChunked accepted stream torn at %d bytes", cut)
		}
	}
}

// TestEncodeStreamCancellation cancels mid-stream and checks the
// pipeline drains without emitting further chunks (leakcheck in
// TestMain-less vformat is covered by the -race suite; the worker pool
// must still join).
func TestEncodeStreamCancellation(t *testing.T) {
	ckpt := chunkTestCheckpoint(6, 50_000)
	for _, par := range []int{1, 4} {
		enc, err := NewChunkEncoder(ckpt, ChunkOptions{ChunkBytes: 512, Parallelism: par})
		if err != nil {
			t.Fatalf("NewChunkEncoder: %v", err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		emitted := 0
		err = enc.EncodeStream(ctx, func(idx int, rec []byte) error {
			emitted++
			if emitted == 3 {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("par=%d: EncodeStream after cancel = %v, want context.Canceled", par, err)
		}
		if _, err := enc.Blob(); err == nil {
			t.Fatalf("par=%d: Blob() succeeded after cancelled encode", par)
		}
		enc.Release()
	}
}

// TestEncodeStreamEmitError: a failed emit (dead link) stops emission
// but the blob still completes so the staging/PFS fallback can use it.
func TestEncodeStreamEmitError(t *testing.T) {
	ckpt := chunkTestCheckpoint(7, 8000)
	enc, err := NewChunkEncoder(ckpt, ChunkOptions{ChunkBytes: 1024, Parallelism: 2})
	if err != nil {
		t.Fatalf("NewChunkEncoder: %v", err)
	}
	defer enc.Release()
	sendFailed := errors.New("link down")
	calls := 0
	err = enc.EncodeStream(context.Background(), func(idx int, rec []byte) error {
		calls++
		if idx >= 2 {
			return sendFailed
		}
		return nil
	})
	if !errors.Is(err, sendFailed) {
		t.Fatalf("EncodeStream = %v, want emit error", err)
	}
	if calls != 3 { // emit stops after the first failure
		t.Fatalf("emit called %d times, want 3", calls)
	}
	blob, err := enc.Blob()
	if err != nil {
		t.Fatalf("Blob after emit error: %v", err)
	}
	got, err := DecodeChunked(context.Background(), blob, 0)
	if err != nil {
		t.Fatalf("DecodeChunked fallback blob: %v", err)
	}
	assertWeightsMatch(t, PrecFloat64, ckpt.Weights, got.Weights)
}

// TestDecodeAuto dispatches on the self-contained magics (v1 and v2
// here; TestDecodeAutoManifestBlob covers the manifest form) and rejects
// everything else, the retired quantized and delta containers included.
func TestDecodeAuto(t *testing.T) {
	ckpt := chunkTestCheckpoint(8, 500)
	lean, err := ckpt.Encode()
	if err != nil {
		t.Fatal(err)
	}
	chunked, err := EncodeChunked(context.Background(), ckpt, ChunkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ReleaseBuffer(chunked)
	for name, blob := range map[string][]byte{"lean": lean, "chunked": chunked} {
		got, err := DecodeAuto(context.Background(), blob, 0)
		if err != nil {
			t.Fatalf("DecodeAuto(%s): %v", name, err)
		}
		if got.ModelName != ckpt.ModelName || got.Version != ckpt.Version {
			t.Fatalf("DecodeAuto(%s): metadata mismatch %+v", name, got)
		}
	}
	for _, retired := range []string{"VPRQ0001", "VPRD0001", "H5LT0001"} {
		blob := append([]byte(retired), lean[8:]...)
		if _, err := DecodeAuto(context.Background(), blob, 0); err == nil {
			t.Fatalf("DecodeAuto accepted a %s blob", retired)
		}
	}
}

// TestChunkRecordsLayout sanity-checks the per-chunk metadata inspect
// relies on.
func TestChunkRecordsLayout(t *testing.T) {
	ckpt := chunkTestCheckpoint(9, 3000)
	blob, err := EncodeChunked(context.Background(), ckpt,
		ChunkOptions{Precision: PrecFloat32, ChunkBytes: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer ReleaseBuffer(blob)
	layout, meta, recs, err := ChunkRecords(blob)
	if err != nil {
		t.Fatalf("ChunkRecords: %v", err)
	}
	if meta.ModelName != ckpt.ModelName {
		t.Fatalf("meta name %q", meta.ModelName)
	}
	if len(recs) != layout.NumChunks {
		t.Fatalf("%d records, layout says %d", len(recs), layout.NumChunks)
	}
	var covered int64
	for i, r := range recs {
		if r.Index != i {
			t.Fatalf("record %d has index %d", i, r.Index)
		}
		if !r.CRCOK {
			t.Fatalf("record %d CRC bad", i)
		}
		if r.Start != covered {
			t.Fatalf("record %d starts at %d, want %d", i, r.Start, covered)
		}
		covered += int64(r.Elems)
	}
	if covered != layout.TotalElems {
		t.Fatalf("records cover %d elems, layout says %d", covered, layout.TotalElems)
	}
}

// TestChunkedEmptySnapshot: zero tensors and zero elements are valid
// degenerate streams.
func TestChunkedEmptySnapshot(t *testing.T) {
	for name, snap := range map[string]nn.Snapshot{
		"no-tensors":   {},
		"empty-tensor": {nn.NamedTensor{Name: "e", Shape: []int{0}, Data: nil}},
	} {
		ckpt := &Checkpoint{ModelName: "empty", Version: 1, Weights: snap}
		blob, err := EncodeChunked(context.Background(), ckpt, ChunkOptions{})
		if err != nil {
			t.Fatalf("%s: EncodeChunked: %v", name, err)
		}
		got, err := DecodeChunked(context.Background(), blob, 0)
		ReleaseBuffer(blob)
		if err != nil {
			t.Fatalf("%s: DecodeChunked: %v", name, err)
		}
		if len(got.Weights) != len(snap) {
			t.Fatalf("%s: got %d tensors", name, len(got.Weights))
		}
	}
}

package vformat

import (
	"bytes"
	"context"
	"math"
	"testing"

	"viper/internal/nn"
)

// inPlaceRun is one base and its lineage driven the way the remote producer
// drives them: every encode against the base, each blob retired by hand.
type inPlaceRun struct {
	tb      testing.TB
	ckpt    *Checkpoint
	base    nn.Snapshot
	lineage BaseLineage
	opts    ChunkOptions
}

func newInPlaceRun(tb testing.TB, ckpt *Checkpoint, opts ChunkOptions) *inPlaceRun {
	r := &inPlaceRun{tb: tb, ckpt: ckpt, base: ckpt.Weights.Clone(), opts: opts}
	r.opts.Base, r.opts.Lineage = r.base, &r.lineage
	return r
}

// encode encodes the snapshot against the base, fails unless the result is
// a fresh encode's — blob and base — and returns the detached blob with
// how many records it left in place (-1: not an in-place encode).
func (r *inPlaceRun) encode() ([]byte, int) {
	r.tb.Helper()
	pre := r.base.Clone()
	enc, err := NewChunkEncoder(r.ckpt, r.opts)
	if err != nil {
		r.tb.Fatal(err)
	}
	if err := enc.EncodeStream(context.Background(), nil); err != nil {
		r.tb.Fatal(err)
	}
	reused := -1
	if enc.InPlace() {
		reused = enc.ReusedRecords()
	}
	blob, err := enc.Detach()
	if err != nil {
		r.tb.Fatal(err)
	}
	fresh := r.opts
	fresh.Base, fresh.Lineage = pre, nil
	want, err := EncodeChunked(context.Background(), r.ckpt, fresh)
	if err != nil {
		r.tb.Fatal(err)
	}
	defer ReleaseBuffer(want)
	if !bytes.Equal(blob, want) {
		r.tb.Fatalf("the blob (%d records reused) differs from a fresh encode against the same base", reused)
	}
	for i := range pre {
		if !bytes.Equal(f64bytes(pre[i].Data), f64bytes(r.base[i].Data)) {
			r.tb.Fatalf("tensor %d: the base differs from the one a fresh encode left", i)
		}
	}
	return blob, reused
}

// TestInPlaceRewritesWhatMovedSinceTheBlob is the stale case by name. The
// producer encodes each version into the blob of the version two back, so
// for a chunk that moved in version N but not in N+1, the blob N+1 draws —
// written by N-1 — still holds the values from before N's move. That
// record must be rewritten although nothing in it moves now; the record of
// a chunk that moved in N-1 itself is in that blob already and is left in
// place. A lineage that computed "clean" from "moved now" alone would keep
// the stale record, and the blob would differ from a fresh encode.
func TestInPlaceRewritesWhatMovedSinceTheBlob(t *testing.T) {
	const (
		chunkElems = 128
		chunks     = 16
	)
	data := make([]float64, chunks*chunkElems)
	for i := range data {
		data[i] = float64(i) / 7
	}
	ckpt := &Checkpoint{ModelName: "stale", Weights: nn.Snapshot{{Name: "w", Shape: []int{len(data)}, Data: data}}}
	r := newInPlaceRun(t, ckpt, ChunkOptions{ChunkBytes: 8 * chunkElems, Parallelism: 1, BaseEps: 1e-3})
	move := func(chunk int) { data[chunk*chunkElems+5] += 1 }

	ckpt.Version = 1 // the seeding version: the lineage starts here
	v1, _ := r.encode()
	ckpt.Version = 2 // N-1: chunk 3 moves
	move(3)
	v2, _ := r.encode()
	ckpt.Version = 3 // N: chunk 7 moves
	move(7)
	v3, _ := r.encode()
	ReleaseBuffer(v1)

	ckpt.Version = 4 // N+1: nothing moves; v2's blob lacks N's move of chunk 7
	r.lineage.Retire(v2)
	v4, reused := r.encode()
	if reused != chunks-1 {
		t.Fatalf("N+1 into N-1's blob reused %d records, want %d: every one but chunk 7's", reused, chunks-1)
	}
	ckpt.Version = 5 // nothing moves; v3's blob holds every move
	r.lineage.Retire(v3)
	v5, reused := r.encode()
	if reused != chunks {
		t.Fatalf("N+2 into N's blob reused %d records, want all %d", reused, chunks)
	}
	ReleaseBuffer(v4)
	ReleaseBuffer(v5)
}

// TestRetiredBlobIsRefused: a blob is drawn only by an encode against the
// base and layout it was written for, written by an encode that completed;
// the newer of two retired blobs wins. Every refused blob goes to the pool
// and the encode draws from the pool — no in-place encode, same bytes.
func TestRetiredBlobIsRefused(t *testing.T) {
	opts := ChunkOptions{ChunkBytes: 1 << 10, Parallelism: 2, BaseEps: 1e-3}
	drawn := func(r *inPlaceRun) bool {
		blob, reused := r.encode()
		ReleaseBuffer(blob)
		return reused >= 0
	}

	t.Run("older of two", func(t *testing.T) {
		r := newInPlaceRun(t, chunkTestCheckpoint(8, 3_000), opts)
		older, _ := r.encode()
		newer, _ := r.encode()
		r.lineage.Retire(newer)
		r.lineage.Retire(older)
		if r.lineage.retired == nil || &r.lineage.retired[0] != &newer[0] {
			t.Fatal("the older blob displaced the newer one")
		}
		if !drawn(r) {
			t.Fatal("the newer retired blob was not drawn")
		}
	})
	for name, change := range map[string]func(r *inPlaceRun){
		"base replaced by an equal clone": func(r *inPlaceRun) {
			r.base = r.base.Clone()
			r.opts.Base = r.base
		},
		"other chunk size": func(r *inPlaceRun) { r.opts.ChunkBytes *= 2 },
		"other precision":  func(r *inPlaceRun) { r.opts.Precision = PrecFloat32 },
		"tensor reshaped": func(r *inPlaceRun) {
			n := len(r.base[2].Data)
			r.ckpt.Weights[2].Shape, r.base[2].Shape = []int{1, n}, []int{1, n}
		},
	} {
		t.Run(name, func(t *testing.T) {
			r := newInPlaceRun(t, chunkTestCheckpoint(8, 3_000), opts)
			blob, _ := r.encode()
			change(r)
			r.lineage.Retire(blob)
			if drawn(r) {
				t.Fatal("the retired blob was drawn")
			}
		})
	}
	t.Run("written before the base", func(t *testing.T) {
		r := newInPlaceRun(t, chunkTestCheckpoint(8, 3_000), opts)
		noBase := r.opts
		noBase.Base = nil // the producer's seeding publish: the lineage, no base yet
		blob, err := EncodeChunked(context.Background(), r.ckpt, noBase)
		if err != nil {
			t.Fatal(err)
		}
		r.lineage.Retire(blob)
		if drawn(r) {
			t.Fatal("a blob written before the base was drawn")
		}
	})
	t.Run("torn by a cancelled encode", func(t *testing.T) {
		r := newInPlaceRun(t, chunkTestCheckpoint(8, 3_000), opts)
		ctx, cancel := context.WithCancel(context.Background())
		enc, err := NewChunkEncoder(r.ckpt, r.opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := enc.EncodeStream(ctx, func(int, []byte) error { cancel(); return nil }); err == nil {
			t.Fatal("the cancelled encode completed")
		}
		r.lineage.Retire(enc.blob)
		enc.blob = nil
		if drawn(r) {
			t.Fatal("a blob no encode completed was drawn")
		}
	})
}

// inPlaceSeed is the in-place encoder's output as a DecodeAuto fuzz seed:
// a float16 v2 blob written into a retired blob, one chunk rewritten, one
// NaN encoded and one in the training snapshot that never moves its base —
// byte for byte what a fresh encode writes (inPlaceRun checks).
func inPlaceSeed(tb testing.TB) []byte {
	ckpt := chunkTestCheckpoint(6, 300)
	ckpt.Weights[2].Data[0] = math.NaN() // in the base too: encoded as it is
	r := newInPlaceRun(tb, ckpt, ChunkOptions{Precision: PrecFloat16, ChunkBytes: 128, Parallelism: 1, BaseEps: 1e-2})
	first, _ := r.encode()
	ckpt.Weights[3].Data[0] = math.NaN() // moves nothing: the base keeps its value
	second, _ := r.encode()
	ckpt.Weights[4].Data[9] += 5
	r.lineage.Retire(first)
	blob, reused := r.encode()
	if reused < 0 {
		tb.Fatal("the seed's encode was not in place")
	}
	ReleaseBuffer(second)
	return blob
}

package vformat

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"viper/internal/nn"
)

// The delta properties — exact at eps 0, bounded by eps above it, sparse
// when the change is local, no worse than a full send when it is not —
// pinned on the one delta mechanism that ships: the next version encoded
// against the previous one's wire values (ChunkOptions.Base/BaseEps) and
// sent as a manifest plus only the chunks the receiver does not hold.

func twoSnapshots(seed int64, perturb float64, fraction float64) (nn.Snapshot, nn.Snapshot) {
	rng := rand.New(rand.NewSource(seed))
	m := nn.NewSequential("m",
		nn.NewDense("d1", 16, 32, rng),
		nn.NewTanh("t"),
		nn.NewDense("d2", 32, 8, rng),
	)
	base := nn.TakeSnapshot(m)
	next := base.Clone()
	for i := range next {
		for j := range next[i].Data {
			if rng.Float64() < fraction {
				next[i].Data[j] += perturb * rng.NormFloat64()
			}
		}
	}
	return base, next
}

// deltaChunkBytes gives the 808-element test model 26 chunks.
const deltaChunkBytes = 256

// shippedDelta is one base → next publication as the receiver sees it.
type shippedDelta struct {
	got     *Checkpoint // what the receiver reconciled
	full    []byte      // next's complete chunked blob
	wire    []byte      // the manifest-bearing blob that travelled
	carried int         // chunk records on the wire
	chunks  int         // chunk records in next
	cache   *ChunkCache // the receiver's cache (holds base)
}

// shipDelta publishes base as a full version and next as a delta against
// it with suppression threshold eps.
func shipDelta(t *testing.T, base, next nn.Snapshot, eps float64) shippedDelta {
	t.Helper()
	opts := ChunkOptions{ChunkBytes: deltaChunkBytes}
	blob1, hashes1 := encodeFull(t, &Checkpoint{ModelName: "m", Version: 8, Weights: base}, opts)
	cache := NewChunkCache(0)
	if err := cache.PutAll(blob1); err != nil {
		t.Fatal(err)
	}
	held := make(map[ChunkHash]bool, len(hashes1))
	for _, h := range hashes1 {
		held[h] = true
	}
	// The encoder rewrites Base to the wire values it emitted.
	opts.Base, opts.BaseEps = base.Clone(), eps
	ckpt := &Checkpoint{ModelName: "m", Version: 9, Iteration: 1234, TrainLoss: 0.077, Weights: next}
	full, hashes2 := encodeFull(t, ckpt, opts)
	wire, _, carried, _, err := BuildManifestBlob(full, func(h ChunkHash) bool { return held[h] })
	if err != nil {
		t.Fatal(err)
	}
	got, reused, err := ReconcileBlob(context.Background(), wire, cache)
	if err != nil {
		t.Fatalf("ReconcileBlob: %v", err)
	}
	if reused+carried != len(hashes2) {
		t.Fatalf("reused %d + carried %d != %d chunks", reused, carried, len(hashes2))
	}
	return shippedDelta{got: got, full: full, wire: wire, carried: carried, chunks: len(hashes2), cache: cache}
}

func TestComputeDeltaExactRoundTrip(t *testing.T) {
	base, next := twoSnapshots(1, 0.1, 0.2)
	pristine := base.Clone()
	d := shipDelta(t, base, next, 0)
	assertWeightsMatch(t, PrecFloat64, next, d.got.Weights)
	assertWeightsMatch(t, PrecFloat64, pristine, base) // the caller's base is untouched
}

func TestComputeDeltaSparsity(t *testing.T) {
	// Deltas are chunk-granular: a change confined to one small tensor
	// dirties only the chunks covering it.
	base, _ := twoSnapshots(2, 0, 0)
	next := base.Clone()
	bias := next[len(next)-1].Data
	for j := range bias {
		bias[j] += 0.5
	}
	d := shipDelta(t, base, next, 0)
	if d.carried == 0 || d.carried > 2 {
		t.Fatalf("an 8-element edit carried %d of %d chunks, want 1 or 2", d.carried, d.chunks)
	}
	if len(d.wire) > len(d.full)/2 {
		t.Fatalf("delta %dB not smaller than half the full %dB", len(d.wire), len(d.full))
	}
	assertWeightsMatch(t, PrecFloat64, next, d.got.Weights)
}

func TestComputeDeltaDenseFallback(t *testing.T) {
	base, next := twoSnapshots(3, 0.5, 1.0) // everything changed
	d := shipDelta(t, base, next, 0)
	if d.carried != d.chunks {
		t.Fatalf("carried %d of %d chunks, want all of them", d.carried, d.chunks)
	}
	// Nothing elided: the wire blob is self-contained and decodes cold.
	cold, err := DecodeAuto(context.Background(), d.wire, 0)
	if err != nil {
		t.Fatalf("DecodeAuto of a fully-carried delta: %v", err)
	}
	assertWeightsMatch(t, PrecFloat64, next, cold.Weights)
}

func TestComputeDeltaThresholdLossy(t *testing.T) {
	base, next := twoSnapshots(4, 0.001, 1.0) // tiny changes everywhere
	d := shipDelta(t, base, next, 0.01)       // threshold above the noise
	if d.carried != 0 {
		t.Fatalf("changes above threshold dirtied %d chunks, want 0", d.carried)
	}
	// Suppressed elements hold the base value, within eps of next.
	assertWeightsMatch(t, PrecFloat64, base, d.got.Weights)
	for i := range next {
		for j, v := range next[i].Data {
			if math.Abs(d.got.Weights[i].Data[j]-v) > 0.01 {
				t.Fatal("reconstruction error exceeds threshold")
			}
		}
	}
}

func TestDeltaEncodeDecodeRoundTrip(t *testing.T) {
	base, next := twoSnapshots(5, 0.2, 0.1)
	d := shipDelta(t, base, next, 0)
	if g := d.got; g.ModelName != "m" || g.Version != 9 || g.Iteration != 1234 || g.TrainLoss != 0.077 {
		t.Fatalf("metadata = %+v", g)
	}
	// The receiver's cache still holds base: replaying the wire blob, or
	// decoding the full one, yields the same weights.
	again, _, err := ReconcileBlob(context.Background(), d.wire, d.cache)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := DecodeChunked(context.Background(), d.full, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertWeightsMatch(t, PrecFloat64, whole.Weights, again.Weights)
	assertWeightsMatch(t, PrecFloat64, whole.Weights, d.got.Weights)
}

func TestDeltaErrors(t *testing.T) {
	base, _ := twoSnapshots(6, 0, 0)
	next := base.Clone()
	next[0].Data[0] += 1
	d := shipDelta(t, base, next, 0)
	ctx := context.Background()
	if _, _, err := ReconcileBlob(ctx, d.wire, NewChunkCache(0)); !errors.Is(err, ErrMissingChunk) {
		t.Fatalf("cold-cache reconcile = %v, want ErrMissingChunk", err)
	}
	if _, _, err := ReconcileBlob(ctx, []byte("junk"), d.cache); err == nil {
		t.Fatal("garbage must error")
	}
	if _, _, err := ReconcileBlob(ctx, d.wire[:len(d.wire)-4], d.cache); err == nil {
		t.Fatal("truncated delta must error")
	}
	// A base of another structure is not a base: the encode ignores it.
	opts := ChunkOptions{ChunkBytes: deltaChunkBytes}
	plain, _ := encodeFull(t, &Checkpoint{ModelName: "m", Weights: next}, opts)
	opts.Base, opts.BaseEps = base[:1].Clone(), 10
	mismatched, _ := encodeFull(t, &Checkpoint{ModelName: "m", Weights: next}, opts)
	if string(plain) != string(mismatched) {
		t.Fatal("a structurally mismatched base changed the encoding")
	}
}

func TestPropDeltaRoundTripArbitraryChanges(t *testing.T) {
	f := func(seed int64, fracRaw, perturbRaw uint8) bool {
		frac := float64(fracRaw) / 255
		perturb := 0.01 + float64(perturbRaw)/64
		base, next := twoSnapshots(seed, perturb, frac)
		got := shipDelta(t, base, next, 0).got.Weights
		for i := range next {
			for j := range next[i].Data {
				if got[i].Data[j] != next[i].Data[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

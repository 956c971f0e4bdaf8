package vformat

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"viper/internal/nn"
)

// encodeFull encodes ckpt as a plain chunked blob plus its hashes,
// copying the pooled blob so tests can hold it freely.
func encodeFull(t *testing.T, ckpt *Checkpoint, opts ChunkOptions) ([]byte, []ChunkHash) {
	t.Helper()
	enc, err := NewChunkEncoder(ckpt, opts)
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
	hcp := make([]ChunkHash, len(hashes))
	copy(hcp, hashes)
	return cp, hcp
}

// mutateElems bumps k well-spread elements of snap, returning the
// mutated clone (the "edit distance" knob of the property tests).
func mutateElems(snap nn.Snapshot, k int, seed int64) nn.Snapshot {
	out := snap.Clone()
	total := 0
	for _, nt := range out {
		total += len(nt.Data)
	}
	if total == 0 || k == 0 {
		return out
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < k; i++ {
		pos := rng.Intn(total)
		for ti := range out {
			if pos < len(out[ti].Data) {
				out[ti].Data[pos] += 1 + rng.Float64()
				break
			}
			pos -= len(out[ti].Data)
		}
	}
	return out
}

// TestDecodeAutoManifestBlob is the staged-backfill regression test:
// before manifest support, DecodeAuto rejected a manifest-bearing blob
// as unknown magic, so a consumer recovering from the KV store after a
// relay death could not decode what a delta-mode producer staged. A
// full manifest-bearing blob must decode with no cache at all.
func TestDecodeAutoManifestBlob(t *testing.T) {
	ckpt := chunkTestCheckpoint(1, 10_000)
	blob, _ := encodeFull(t, ckpt, ChunkOptions{Precision: PrecFloat64, ChunkBytes: 1 << 12})
	full, _, _, _, err := BuildManifestBlob(blob, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeAuto(context.Background(), full, 0)
	if err != nil {
		t.Fatalf("DecodeAuto(manifest-bearing full blob) = %v, want success", err)
	}
	assertWeightsMatch(t, PrecFloat64, ckpt.Weights, got.Weights)
	if got.Version != ckpt.Version || got.ModelName != ckpt.ModelName {
		t.Fatalf("metadata mismatch: %+v", got)
	}

	// A wire delta (records elided) must fail loudly, not decode torn.
	have := map[ChunkHash]bool{}
	hashes, err := ChunkHashesOf(blob)
	if err != nil {
		t.Fatal(err)
	}
	have[hashes[0]] = true
	delta, _, _, _, err := BuildManifestBlob(blob, func(h ChunkHash) bool { return have[h] })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeAuto(context.Background(), delta, 0); !errors.Is(err, ErrMissingChunk) {
		t.Fatalf("DecodeAuto(partial delta) = %v, want ErrMissingChunk", err)
	}
}

// TestReconcileProperty sweeps chunk size × precision × edit distance
// and asserts the reconciled checkpoint is byte-identical to the full
// decode of the same version — the tentpole's correctness invariant —
// whether the unchanged chunks were decoded from cached records
// (ReconcileBlob), copied from a span source or already in place in a clone
// of it, down a chain of versions.
func TestReconcileProperty(t *testing.T) {
	for _, chunkBytes := range []int{512, 4 << 10, 64 << 10} {
		for _, prec := range []Precision{PrecFloat64, PrecFloat32, PrecFloat16} {
			for _, edits := range []int{0, 1, 37, 900} {
				name := fmt.Sprintf("chunk=%d/prec=%s/edits=%d", chunkBytes, prec, edits)
				t.Run(name, func(t *testing.T) {
					opts := ChunkOptions{Precision: prec, ChunkBytes: chunkBytes}
					v1 := chunkTestCheckpoint(2, 9_001)
					blob1, hashes1 := encodeFull(t, v1, opts)

					cache := NewChunkCache(0)
					if err := cache.PutAll(blob1); err != nil {
						t.Fatal(err)
					}

					v2 := &Checkpoint{
						ModelName: v1.ModelName, Version: v1.Version + 1,
						Iteration: v1.Iteration + 100, TrainLoss: 0.03,
						Weights: mutateElems(v1.Weights, edits, int64(edits)+3),
					}
					blob2, hashes2 := encodeFull(t, v2, opts)

					held := map[ChunkHash]bool{}
					for _, h := range hashes1 {
						held[h] = true
					}
					delta, _, carried, elided, err := BuildManifestBlob(blob2, func(h ChunkHash) bool { return held[h] })
					if err != nil {
						t.Fatal(err)
					}
					if edits == 0 && carried != 0 {
						t.Fatalf("no edits but %d records carried", carried)
					}
					if carried+int(elidedCount(hashes2, held)) != len(hashes2) {
						t.Fatalf("carried %d + elided %d != %d chunks", carried, elidedCount(hashes2, held), len(hashes2))
					}
					_ = elided

					rec, reused, err := ReconcileBlob(context.Background(), delta, cache)
					if err != nil {
						t.Fatal(err)
					}
					if reused != len(hashes2)-carried {
						t.Fatalf("reused %d, want %d", reused, len(hashes2)-carried)
					}
					full, err := DecodeChunked(context.Background(), blob2, 0)
					if err != nil {
						t.Fatal(err)
					}
					// Byte identity: both decodes must match exactly, no
					// precision tolerance — they decode the same wire bytes.
					assertSameBits(t, "reconciled v2 vs full decode", full.Weights, rec.Weights)
					if rec.Version != v2.Version || rec.Iteration != v2.Iteration {
						t.Fatalf("metadata mismatch: %+v", rec)
					}

					// The same delta over a span source — v1 as decoded, under
					// its record hashes — and no cache: each elided position is
					// inherited.
					full1, err := DecodeChunked(context.Background(), blob1, 0)
					if err != nil {
						t.Fatal(err)
					}
					src, err := NewSpanSource(blob1, hashes1, full1.Weights)
					if err != nil {
						t.Fatal(err)
					}
					asm, err := NewManifestAssembler(delta, src, nil)
					if err != nil {
						t.Fatal(err)
					}
					if asm.Inherited() != len(hashes2)-carried || !asm.Complete() {
						t.Fatalf("over a source: inherited %d, complete %v; want %d, true",
							asm.Inherited(), asm.Complete(), len(hashes2)-carried)
					}
					inherited, err := asm.Checkpoint()
					if err != nil {
						t.Fatal(err)
					}
					assertSameBits(t, "inherited v2 vs cache-only v2", rec.Weights, inherited.Weights)

					// And once more into a clone of the source: the same counts,
					// the same bits, v1 as decoded left alone.
					patched, err := NewManifestAssembler(delta, src, src.Clone(nil))
					if err != nil {
						t.Fatal(err)
					}
					if !patched.InPlace() || patched.Inherited() != asm.Inherited() || !patched.Complete() {
						t.Fatalf("into a clone: in place %v, inherited %d, complete %v; want true, %d, true",
							patched.InPlace(), patched.Inherited(), patched.Complete(), asm.Inherited())
					}
					inPlace, err := patched.Checkpoint()
					if err != nil {
						t.Fatal(err)
					}
					assertSameBits(t, "v2 patched into a clone vs copied from the source", inherited.Weights, inPlace.Weights)
					if inPlace.Version != v2.Version || inPlace.Iteration != v2.Iteration {
						t.Fatalf("metadata mismatch in place: %+v", inPlace)
					}
					assertSameBits(t, "the source after a clone of it was patched", full1.Weights, src.weights)

					// Down the chain: v3 over the source the v2 assembly leaves.
					v3 := &Checkpoint{
						ModelName: v1.ModelName, Version: v2.Version + 1,
						Weights: mutateElems(v2.Weights, edits, int64(edits)+4),
					}
					blob3, hashes3 := encodeFull(t, v3, opts)
					held2 := map[ChunkHash]bool{}
					for _, h := range hashes2 {
						held2[h] = true
					}
					delta3, _, carried3, _, err := BuildManifestBlob(blob3, func(h ChunkHash) bool { return held2[h] })
					if err != nil {
						t.Fatal(err)
					}
					src2 := asm.Source()
					if src2 == nil {
						t.Fatal("a complete assembly of the manifest's own records offers no source")
					}
					asm3, err := NewManifestAssembler(delta3, src2, nil)
					if err != nil {
						t.Fatal(err)
					}
					if asm3.Inherited() != len(hashes3)-carried3 {
						t.Fatalf("v3 inherited %d positions, want %d", asm3.Inherited(), len(hashes3)-carried3)
					}
					got3, err := asm3.Checkpoint()
					if err != nil {
						t.Fatal(err)
					}
					full3, err := DecodeChunked(context.Background(), blob3, 0)
					if err != nil {
						t.Fatal(err)
					}
					assertSameBits(t, "v3 inherited from v2's assembly vs full decode", full3.Weights, got3.Weights)

					// The in-place chain: v3 patched into a clone of the source
					// the in-place v2 assembly leaves.
					chained := patched.Source()
					if chained == nil {
						t.Fatal("a complete in-place assembly offers no source")
					}
					patched3, err := NewManifestAssembler(delta3, chained, chained.Clone(nil))
					if err != nil {
						t.Fatal(err)
					}
					if !patched3.InPlace() || patched3.Inherited() != asm3.Inherited() {
						t.Fatalf("v3 in place %v, inherited %d positions, want true, %d", patched3.InPlace(), patched3.Inherited(), asm3.Inherited())
					}
					inPlace3, err := patched3.Checkpoint()
					if err != nil {
						t.Fatal(err)
					}
					assertSameBits(t, "v3 patched down the in-place chain vs full decode", full3.Weights, inPlace3.Weights)
					assertSameBits(t, "in-place v2 after a clone of it became v3", inherited.Weights, inPlace.Weights)
				})
			}
		}
	}
}

// assertSameBits fails unless two snapshots hold bit-identical data.
func assertSameBits(t *testing.T, what string, want, got nn.Snapshot) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d tensors vs %d", what, len(want), len(got))
	}
	for i := range want {
		if !bytes.Equal(f64bytes(want[i].Data), f64bytes(got[i].Data)) {
			t.Fatalf("%s: tensor %s differs", what, want[i].Name)
		}
	}
}

// decodedSource decodes ckpt's encoding under o into a span source.
func decodedSource(t *testing.T, ckpt *Checkpoint, o ChunkOptions) *SpanSource {
	t.Helper()
	blob, hashes := encodeFull(t, ckpt, o)
	dec, err := DecodeChunked(context.Background(), blob, 0)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewSpanSource(blob, hashes, dec.Weights)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// TestSpanSourceFallsBack: a source the manifest cannot be matched against
// — none, another precision, another chunk size, another tensor directory
// — inherits nothing, and one whose hash differs at a position inherits
// all but that position; what is not inherited is on the need-list, and
// once it is re-sent the assembly is bit-identical either way. A source
// never completes a position by itself being wrong: hashes decide. A clone
// of the source is assembled into exactly when the source inherits.
func TestSpanSourceFallsBack(t *testing.T) {
	opts := ChunkOptions{Precision: PrecFloat32, ChunkBytes: 1 << 10}
	v1 := chunkTestCheckpoint(8, 5_000)
	blob1, hashes1 := encodeFull(t, v1, opts)
	v2 := &Checkpoint{ModelName: v1.ModelName, Version: v1.Version + 1, Weights: mutateElems(v1.Weights, 3, 5)}
	blob2, hashes2 := encodeFull(t, v2, opts)
	held := map[ChunkHash]bool{}
	for _, h := range hashes1 {
		held[h] = true
	}
	delta, _, carried, _, err := BuildManifestBlob(blob2, func(h ChunkHash) bool { return held[h] })
	if err != nil {
		t.Fatal(err)
	}
	elided := len(hashes2) - carried
	want, err := DecodeChunked(context.Background(), blob2, 0)
	if err != nil {
		t.Fatal(err)
	}

	sourceOf := func(ckpt *Checkpoint, o ChunkOptions) *SpanSource { return decodedSource(t, ckpt, o) }
	renamed := &Checkpoint{ModelName: v1.ModelName, Version: v1.Version, Weights: v1.Weights.Clone()}
	renamed.Weights[2].Name = "other"
	reshaped := &Checkpoint{ModelName: v1.ModelName, Version: v1.Version, Weights: v1.Weights.Clone()}
	reshaped.Weights[2].Shape = []int{1, len(reshaped.Weights[2].Data)}
	// Same layout, but position 0's hash is another record's: the span
	// there is v1's all the same, and must not be taken on that say-so.
	offByOne := sourceOf(v1, opts)
	offByOne.hashes = append([]ChunkHash{{0xee}}, offByOne.hashes[1:]...)
	if hashes2[0] != hashes1[0] {
		t.Fatal("set-up: chunk 0 was meant to be unchanged")
	}
	// assemble checks what a misses against what it should and re-sends it
	// from v2's blob, as a sender answering the need-list would.
	assemble := func(t *testing.T, a *ManifestAssembler, inherited int) *Checkpoint {
		t.Helper()
		missing := a.MissingHashes()
		if a.Inherited() != inherited || len(missing) != elided-inherited {
			t.Fatalf("inherited %d, %d on the need-list; want %d, %d", a.Inherited(), len(missing), inherited, elided-inherited)
		}
		need := map[ChunkHash]bool{}
		for _, h := range missing {
			need[h] = true
		}
		err := WalkChunkRecords(blob2, func(rec []byte) error {
			if need[HashChunkRecord(rec)] {
				_, err := a.Add(rec)
				return err
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := a.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		return got
	}

	for _, tc := range []struct {
		name      string
		src       *SpanSource
		inherited int
		inPlace   bool // a clone of src can take the assembly
	}{
		{"matching source", sourceOf(v1, opts), elided, true},
		{"nil source", nil, 0, false},
		{"other precision", sourceOf(v1, ChunkOptions{Precision: PrecFloat64, ChunkBytes: 2 << 10}), 0, false},
		{"other chunk size", sourceOf(v1, ChunkOptions{Precision: PrecFloat32, ChunkBytes: 2 << 10}), 0, false},
		{"tensor renamed", sourceOf(renamed, opts), 0, false},
		{"tensor reshaped", sourceOf(reshaped, opts), 0, false},
		{"hash differs at one position", offByOne, elided - 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			asm, err := NewManifestAssembler(delta, tc.src, nil)
			if err != nil {
				t.Fatal(err)
			}
			assertSameBits(t, tc.name, want.Weights, assemble(t, asm, tc.inherited).Weights)

			// The same assembly offered a back buffer: taken exactly when the
			// source inherits, and a clone that is not taken stays whole.
			var back *BackBuffer
			if tc.src != nil {
				back = tc.src.Clone(nil)
			}
			patched, err := NewManifestAssembler(delta, tc.src, back)
			if err != nil {
				t.Fatal(err)
			}
			if patched.InPlace() != tc.inPlace {
				t.Fatalf("offered a clone: in place %v, want %v", patched.InPlace(), tc.inPlace)
			}
			assertSameBits(t, tc.name+", offered a clone", want.Weights, assemble(t, patched, tc.inherited).Weights)
			if back != nil && (back.weights == nil) != tc.inPlace {
				t.Fatalf("the clone's weights taken: %v, want %v", back.weights == nil, tc.inPlace)
			}
		})
	}

	if _, err := NewSpanSource(blob1, hashes1[1:], want.Weights); err == nil {
		t.Fatal("a source with a hash short was accepted")
	}
	if _, err := NewSpanSource(blob1, hashes1, want.Weights[1:]); err == nil {
		t.Fatal("a source with a tensor short was accepted")
	}
}

// TestBackBufferIsGoodForOneAssemblyOfItsSource: a clone shares no array
// with its source; assembling into it allocates nothing model-sized, copies
// no span (the test overwrites its own source behind the clone: nothing of
// that reaches the assembly) and hands out the clone's own arrays; a clone
// that was taken once, or that was made from another source, is not written
// by a later assembly, which allocates and copies as if it had been offered
// none.
func TestBackBufferIsGoodForOneAssemblyOfItsSource(t *testing.T) {
	opts := ChunkOptions{ChunkBytes: 4 << 10}
	v1 := chunkTestCheckpoint(12, 40_000)
	_, hashes1 := encodeFull(t, v1, opts)
	v2 := &Checkpoint{ModelName: v1.ModelName, Version: v1.Version + 1, Weights: mutateElems(v1.Weights, 2, 7)}
	blob2, _ := encodeFull(t, v2, opts)
	held := map[ChunkHash]bool{}
	for _, h := range hashes1 {
		held[h] = true
	}
	delta, _, _, _, err := BuildManifestBlob(blob2, func(h ChunkHash) bool { return held[h] })
	if err != nil {
		t.Fatal(err)
	}
	want, err := DecodeChunked(context.Background(), blob2, 0)
	if err != nil {
		t.Fatal(err)
	}
	src := decodedSource(t, v1, opts)
	back := src.Clone(nil)
	arrays := make([]*float64, len(back.weights))
	for i, nt := range back.weights {
		if len(nt.Data) == 0 {
			continue
		}
		if arrays[i] = &nt.Data[0]; arrays[i] == &src.weights[i].Data[0] {
			t.Fatalf("tensor %d of the clone is the source's own array", i)
		}
	}
	assertSameBits(t, "a fresh clone vs its source", src.weights, back.weights)

	// From here on the source's weights are junk. An in-place assembly reads
	// the source's hashes only, so it cannot tell; one that copied would.
	pristine := src.weights.Clone()
	for _, nt := range src.weights {
		for j := range nt.Data {
			nt.Data[j] = -1
		}
	}

	model := uint64(want.Weights.NumBytes())
	allocated := func(assemble func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		assemble()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	var asm *ManifestAssembler
	if grew := allocated(func() { asm, err = NewManifestAssembler(delta, src, back) }); err != nil || grew > model/8 {
		t.Fatalf("assembling into the clone: err = %v, %d bytes allocated for a %d-byte model", err, grew, model)
	}
	got, err := asm.Checkpoint()
	if err != nil || !asm.InPlace() {
		t.Fatalf("in place %v, err = %v", asm.InPlace(), err)
	}
	assertSameBits(t, "patched clone vs full decode", want.Weights, got.Weights)
	for i, nt := range got.Weights {
		if len(nt.Data) > 0 && &nt.Data[0] != arrays[i] {
			t.Fatalf("tensor %d of the assembled checkpoint is not the clone's array", i)
		}
	}

	for i := range pristine {
		copy(src.weights[i].Data, pristine[i].Data)
	}

	// Taken once: the same clone again is not written.
	var again *ManifestAssembler
	if grew := allocated(func() { again, err = NewManifestAssembler(delta, src, back) }); err != nil || grew < model {
		t.Fatalf("a second assembly offered the taken clone: err = %v, %d bytes allocated; it must allocate its own %d-byte model", err, grew, model)
	}
	if again.InPlace() {
		t.Fatal("a clone was taken twice")
	}
	got2, err := again.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	assertSameBits(t, "the second assembly vs full decode", want.Weights, got2.Weights)
	assertSameBits(t, "the first assembly after the second", want.Weights, got.Weights)

	// Another source's clone, however equal its bytes, is not this source's.
	twin := decodedSource(t, v1, opts)
	foreign := twin.Clone(nil)
	other, err := NewManifestAssembler(delta, src, foreign)
	if err != nil {
		t.Fatal(err)
	}
	if other.InPlace() || foreign.weights == nil {
		t.Fatal("an assembly over one source took the clone of another")
	}
	assertSameBits(t, "the clone that was not taken", twin.weights, foreign.weights)
	if own, err := NewManifestAssembler(delta, twin, foreign); err != nil || !own.InPlace() {
		t.Fatalf("the clone is still good against its own source: in place %v, err = %v", own != nil && own.InPlace(), err)
	}
}

// TestTargetsAreWrittenInPlace: a clone or a full assembly given a target
// the layout fits writes the target's own arrays, whatever they held, and
// allocates nothing model-sized; a clone offered a target of another shape
// allocates its own, and an assembler refuses one.
func TestTargetsAreWrittenInPlace(t *testing.T) {
	opts := ChunkOptions{ChunkBytes: 4 << 10}
	v1 := chunkTestCheckpoint(12, 40_000)
	blob1, _ := encodeFull(t, v1, opts)
	src := decodedSource(t, v1, opts)
	model := uint64(v1.Weights.NumBytes())
	junk := func() nn.Snapshot {
		s := src.weights.Clone()
		for _, nt := range s {
			for j := range nt.Data {
				nt.Data[j] = -7
			}
		}
		return s
	}
	sameArrays := func(a, b nn.Snapshot) bool {
		for i := range a {
			if len(a[i].Data) > 0 && &a[i].Data[0] != &b[i].Data[0] {
				return false
			}
		}
		return true
	}
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}

	target := junk()
	var back *BackBuffer
	if grew := allocated(func() { back = src.Clone(target) }); grew > model/8 || !sameArrays(back.weights, target) {
		t.Fatalf("a clone into a fitting target allocated %d bytes (model %d), in its arrays: %v", grew, model, sameArrays(back.weights, target))
	}
	assertSameBits(t, "the clone in the target vs its source", src.weights, back.weights)
	if misfit := src.Clone(target[1:]); sameArrays(misfit.weights[1:], target[1:]) {
		t.Fatal("a clone wrote a target its source's layout does not fit")
	}

	target = junk()
	var asm *ChunkAssembler
	var err error
	if grew := allocated(func() { asm, err = NewChunkAssembler(blob1, target) }); err != nil || grew > model/8 {
		t.Fatalf("seeding an assembler with a target: err = %v, %d bytes allocated (model %d)", err, grew, model)
	}
	if err := splitRecords(asm.layout, blob1, asm.headerLen, func(rec []byte) error { _, err := asm.Add(rec); return err }); err != nil {
		t.Fatal(err)
	}
	got, err := asm.Checkpoint()
	if err != nil || !sameArrays(got.Weights, target) {
		t.Fatalf("the assembly: err = %v, decoded into the target's arrays: %v", err, err == nil && sameArrays(got.Weights, target))
	}
	assertSameBits(t, "the assembly in the target vs a fresh decode", src.weights, got.Weights)
	if _, err := NewChunkAssembler(blob1, target[:1]); err == nil {
		t.Fatal("an assembler took a target the header's layout does not fit")
	}
}

// TestForeignRecordWithdrawsTheSource: a well-formed record of the same
// layout but other content, landing on a position the manifest names
// another record for, leaves that position uncovered — the assembly no
// longer vouches for its weights and offers no span source, so the foreign
// span cannot be inherited into later versions under the manifest's hash.
func TestForeignRecordWithdrawsTheSource(t *testing.T) {
	opts := ChunkOptions{ChunkBytes: 1 << 10}
	v1 := chunkTestCheckpoint(9, 2_000)
	blob1, _ := encodeFull(t, v1, opts)
	other := chunkTestCheckpoint(10, 2_000)
	otherBlob, _ := encodeFull(t, other, opts)
	manifest, recs, _, _, err := PlanDelta(blob1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var foreign [][]byte
	if err := WalkChunkRecords(otherBlob, func(rec []byte) error { foreign = append(foreign, rec); return nil }); err != nil {
		t.Fatal(err)
	}
	asm, err := NewManifestAssembler(manifest, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if asm.Source() != nil {
		t.Fatal("an assembly with every chunk outstanding offers a source")
	}
	for _, rec := range recs {
		if _, err := asm.Add(rec); err != nil {
			t.Fatal(err)
		}
	}
	if asm.Source() == nil {
		t.Fatal("a complete assembly of the manifest's records offers no source")
	}
	if _, err := asm.Add(foreign[1]); err != nil {
		t.Fatal(err)
	}
	if asm.Source() != nil {
		t.Fatal("the assembly still offers a source with a foreign record decoded at position 1")
	}
	if missing := asm.MissingHashes(); len(missing) != 1 || missing[0] != HashChunkRecord(recs[1]) {
		t.Fatalf("missing = %v, want position 1's hash back on the need-list", missing)
	}
	if _, err := asm.Add(recs[1]); err != nil {
		t.Fatal(err)
	}
	if asm.Source() == nil {
		t.Fatal("re-adding the manifest's record did not restore the source")
	}
}

func f64bytes(v []float64) []byte {
	b := make([]byte, 0, 8*len(v))
	for _, x := range v {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

func elidedCount(hashes []ChunkHash, held map[ChunkHash]bool) int {
	n := 0
	for _, h := range hashes {
		if held[h] {
			n++
		}
	}
	return n
}

// TestBaseSuppressionStabilizesChunks: with Base set, a version whose
// weights only drifted within eps must re-encode every chunk
// byte-identically, so the whole snapshot dedups away; one real edit
// must dirty exactly the chunks covering it.
func TestBaseSuppressionStabilizesChunks(t *testing.T) {
	opts := ChunkOptions{Precision: PrecFloat64, ChunkBytes: 4 << 10}
	v1 := chunkTestCheckpoint(4, 8_000)
	base := v1.Weights.Clone()
	opts.Base = base
	blob1, h1 := encodeFull(t, v1, opts)
	_ = blob1

	// Drift every element by less than eps.
	drifted := v1.Weights.Clone()
	rng := rand.New(rand.NewSource(9))
	for _, nt := range drifted {
		for i := range nt.Data {
			nt.Data[i] += (rng.Float64() - 0.5) * 1e-7
		}
	}
	v2 := &Checkpoint{ModelName: v1.ModelName, Version: v1.Version + 1, Weights: drifted}
	opts.Base, opts.BaseEps = base, 1e-6
	_, h2 := encodeFull(t, v2, opts)
	for i := range h1 {
		if h1[i] != h2[i] {
			t.Fatalf("chunk %d hash changed under pure drift", i)
		}
	}

	// One real edit dirties only its covering chunk.
	edited := drifted.Clone()
	edited[2].Data[10] += 5
	v3 := &Checkpoint{ModelName: v1.ModelName, Version: v2.Version + 1, Weights: edited}
	opts.Base, opts.BaseEps = base, 1e-6
	_, h3 := encodeFull(t, v3, opts)
	changed := 0
	for i := range h2 {
		if h2[i] != h3[i] {
			changed++
		}
	}
	if changed != 1 {
		t.Fatalf("one element edit dirtied %d chunks, want 1", changed)
	}
}

// TestManifestAssemblerChaosResend: the chaos drill. The sender elided
// chunks the receiver's span source no longer holds where the manifest
// names them (the source moved on at two positions since it was
// advertised); the assembly must surface exactly those hashes as a
// need-list and complete once they are re-sent — never assemble a torn
// checkpoint.
func TestManifestAssemblerChaosResend(t *testing.T) {
	opts := ChunkOptions{Precision: PrecFloat64, ChunkBytes: 2 << 10}
	v1 := chunkTestCheckpoint(6, 12_000)
	blob1, hashes1 := encodeFull(t, v1, opts)
	v2 := &Checkpoint{ModelName: v1.ModelName, Version: v1.Version + 1,
		Weights: mutateElems(v1.Weights, 5, 11)}
	blob2, hashes2 := encodeFull(t, v2, opts)
	held := map[ChunkHash]bool{}
	for _, h := range hashes1 {
		held[h] = true
	}
	delta, _, _, _, err := BuildManifestBlob(blob2, func(h ChunkHash) bool { return held[h] })
	if err != nil {
		t.Fatal(err)
	}

	// The source holds other records at two elided positions.
	dec, err := DecodeChunked(context.Background(), blob1, 0)
	if err != nil {
		t.Fatal(err)
	}
	moved := slices.Clone(hashes1)
	evicted := []ChunkHash{}
	for i, h := range hashes2 {
		if held[h] {
			evicted = append(evicted, h)
			moved[i] = ChunkHash{0xee, byte(i)}
			if len(evicted) == 2 {
				break
			}
		}
	}
	if len(evicted) != 2 {
		t.Skip("not enough elided chunks to move")
	}
	src, err := NewSpanSource(blob1, moved, dec.Weights)
	if err != nil {
		t.Fatal(err)
	}

	asm, err := NewManifestAssembler(delta, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if asm.Complete() {
		t.Fatal("assembly completed despite the moved positions")
	}
	if _, err := asm.Checkpoint(); !errors.Is(err, ErrIncompleteStream) {
		t.Fatalf("Checkpoint on torn assembly = %v, want ErrIncompleteStream", err)
	}
	need := asm.MissingHashes()
	if len(need) != 2 {
		t.Fatalf("need-list has %d hashes, want 2", len(need))
	}
	needSet := map[ChunkHash]bool{}
	for _, h := range need {
		needSet[h] = true
	}
	for _, h := range evicted {
		if !needSet[h] {
			t.Fatalf("moved hash %s not in need-list", h)
		}
	}

	// The sender re-sends the needed records from its full blob.
	err = WalkChunkRecords(blob2, func(rec []byte) error {
		if needSet[HashChunkRecord(rec)] {
			if _, err := asm.Add(rec); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !asm.Complete() {
		t.Fatal("assembly incomplete after re-send")
	}
	rec, err := asm.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	full, err := DecodeChunked(context.Background(), blob2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range full.Weights {
		if !bytes.Equal(f64bytes(full.Weights[i].Data), f64bytes(rec.Weights[i].Data)) {
			t.Fatalf("tensor %s differs after chaos re-send", full.Weights[i].Name)
		}
	}
}

// TestManifestRoundTrip: manifest encode/parse round-trips header,
// layout, and hash list, and rejects corruption.
func TestManifestRoundTrip(t *testing.T) {
	ckpt := chunkTestCheckpoint(8, 5_000)
	blob, hashes := encodeFull(t, ckpt, ChunkOptions{Precision: PrecFloat32, ChunkBytes: 1 << 12})
	_, _, headerLen, err := ParseChunkHeader(blob)
	if err != nil {
		t.Fatal(err)
	}
	man := EncodeManifest(blob[:headerLen], hashes)
	parsed, err := ParseManifest(man)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Len != len(man) {
		t.Fatalf("manifest length %d, want %d", parsed.Len, len(man))
	}
	if len(parsed.Hashes) != len(hashes) {
		t.Fatalf("parsed %d hashes, want %d", len(parsed.Hashes), len(hashes))
	}
	for i := range hashes {
		if parsed.Hashes[i] != hashes[i] {
			t.Fatalf("hash %d mismatch", i)
		}
	}
	if !bytes.Equal(parsed.Header, blob[:headerLen]) {
		t.Fatal("embedded header mismatch")
	}
	// Flip one hash byte: the manifest CRC must catch it.
	bad := make([]byte, len(man))
	copy(bad, man)
	bad[len(man)-10] ^= 0xff
	if _, err := ParseManifest(bad); err == nil {
		t.Fatal("corrupt manifest parsed")
	}
}

// TestHashListRoundTrip covers the packed have-list wire helpers.
func TestHashListRoundTrip(t *testing.T) {
	hs := []ChunkHash{HashChunkRecord([]byte{1}), HashChunkRecord([]byte{2})}
	packed := AppendHashes(nil, hs)
	got, err := SplitHashes(packed)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != hs[0] || got[1] != hs[1] {
		t.Fatalf("round-trip mismatch: %v", got)
	}
	if _, err := SplitHashes(packed[:17]); err == nil {
		t.Fatal("ragged hash list accepted")
	}
}

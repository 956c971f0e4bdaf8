package vformat

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"viper/internal/mutate"
	"viper/internal/nn"
)

// fuzzSeeds returns one blob per format DecodeAuto accepts — lean v1,
// chunked v2 and a manifest-bearing blob carrying every record — a v2
// blob the encoder wrote in place over a retired one (inPlaceSeed), and an
// fp64 v2 blob of specialSnapshot's NaNs, zeros, infinities and subnormals.
func fuzzSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	ckpt := chunkTestCheckpoint(3, 300)
	v1, err := ckpt.Encode()
	if err != nil {
		tb.Fatal(err)
	}
	v2, err := EncodeChunked(context.Background(), ckpt, ChunkOptions{Precision: PrecFloat16, ChunkBytes: 128})
	if err != nil {
		tb.Fatal(err)
	}
	manifest, _, _, _, err := BuildManifestBlob(v2, nil)
	if err != nil {
		tb.Fatal(err)
	}
	special, err := EncodeChunked(context.Background(), &Checkpoint{ModelName: "special", Weights: specialSnapshot()}, specialChunkOptions(PrecFloat64))
	if err != nil {
		tb.Fatal(err)
	}
	return [][]byte{v1, v2, manifest, inPlaceSeed(tb), special}
}

// FuzzDecodeAuto feeds arbitrary bytes to the dispatcher every staged
// or stored blob goes through. It must never panic, never allocate more
// than a small multiple of its input (a length field is not a licence
// to allocate), reject every magic but the three it knows, and return
// only structurally sound checkpoints. The corpus under testdata/fuzz
// keeps the retired VPRQ decoder's crasher: a 194-byte blob whose tensor
// rank made it allocate 8.6 GB.
func FuzzDecodeAuto(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
		f.Add(seed[:len(seed)-1])
		f.Add(seed[:9])
	}
	f.Fuzz(checkDecodeAuto)
}

// TestMutatedDecodeAuto is FuzzDecodeAuto's property over a few thousand
// deterministic mutants of its seeds, inside the plain test pass (see
// internal/mutate for why).
func TestMutatedDecodeAuto(t *testing.T) {
	mutate.Each(22, 3000, fuzzSeeds(t), func(blob []byte) { checkDecodeAuto(t, blob) })
}

func checkDecodeAuto(t *testing.T, blob []byte) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ckpt, err := DecodeAuto(context.Background(), blob, 2)
	runtime.ReadMemStats(&after)
	// Reduced-precision payloads expand 4x into float64s, through one
	// intermediate copy; the constant covers the worker pool.
	if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(32*len(blob)+1<<20); grew > limit {
		t.Fatalf("decoding %d bytes allocated %d, limit %d", len(blob), grew, limit)
	}
	known := len(blob) >= 8 && (string(blob[:8]) == magic || IsChunked(blob) || IsManifest(blob))
	if !known && len(blob) >= 8 && (err == nil || !strings.Contains(err.Error(), "unknown checkpoint magic")) {
		t.Fatalf("magic %q: err = %v, want the unknown-magic error", blob[:8], err)
	}
	if err != nil {
		return
	}
	if ckpt == nil {
		t.Fatal("nil checkpoint with nil error")
	}
	for _, nt := range ckpt.Weights {
		n := 1
		for _, d := range nt.Shape {
			n *= d
		}
		if n != len(nt.Data) {
			t.Fatalf("tensor %q: shape %v holds %d elements, data has %d", nt.Name, nt.Shape, n, len(nt.Data))
		}
	}
}

// manifestFuzzInput frames what a delta stream's receiver is fed as one
// blob: the manifest section, then each record behind a u32 length — the
// Add sequence, in the order given.
func manifestFuzzInput(manifest []byte, recs ...[]byte) []byte {
	in := append([]byte(nil), manifest...)
	for _, rec := range recs {
		in = binary.LittleEndian.AppendUint32(in, uint32(len(rec)))
		in = append(in, rec...)
	}
	return in
}

// FuzzManifestAssembler feeds the delta stream's receiving side a
// manifest and an arbitrary sequence of records cut from the same input —
// in any order, repeated, truncated, foreign. It must never panic, never
// allocate out of proportion to its input (beyond the model the header's
// own checksummed directory declares, which the target caps), and
// whenever the assembly completes, it must hold exactly what DecodeAuto
// decodes from the header and the records the assembler accepted. A
// completed assembly is then run again over a span source cut from the
// input — the weights just assembled under the hashes of the records
// accepted, a checksum of the input choosing which positions keep their
// hash and which get one that matches nothing — and must inherit exactly
// the positions whose hash the manifest shares, within the same allocation
// bound, to the same bits. Last, the differential property of the back
// buffer (checkCloneAssembly): that assembly again, twice side by side —
// once copying from the source, once into a clone of it — must agree on
// every count, need-list, bit and offered source.
func FuzzManifestAssembler(f *testing.F) {
	for _, seed := range manifestFuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(checkManifestAssembler)
}

// FuzzHashDecoded holds HashDecoded to the record hashes over arbitrary
// float64 bit patterns: the input's bytes, eight at a time, cut into two
// tensors at split and into chunks of 1–16 elements, are encoded at
// precision prec, decoded, and hashed from the decoded weights, which must
// give the hash of every record the encoder wrote (checkHashDecoded). A
// codec whose round trip is not exact fails here instead of costing every
// delta a re-shipped chunk.
func FuzzHashDecoded(f *testing.F) {
	var special []byte
	for _, v := range hashDecodedValues() {
		special = binary.LittleEndian.AppendUint64(special, math.Float64bits(v))
	}
	for prec := range uint8(3) {
		f.Add(special, prec, uint8(5), uint8(8))
		f.Add(special[:8*5], prec, uint8(5), uint8(3))
		f.Add([]byte{}, prec, uint8(0), uint8(1))
	}
	f.Fuzz(func(t *testing.T, raw []byte, prec, split, chunk uint8) {
		vals := make([]float64, min(len(raw)/8, 1<<12))
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		cut := int(split) % (len(vals) + 1)
		weights := nn.Snapshot{
			{Name: "a", Shape: []int{cut}, Data: vals[:cut]},
			{Name: "b", Shape: []int{len(vals) - cut}, Data: vals[cut:]},
		}
		p := Precision(prec % 3)
		checkHashDecoded(t, weights, ChunkOptions{Precision: p, ChunkBytes: (1 + int(chunk)%16) * p.BytesPerElement()})
	})
}

// TestMutatedManifestAssembler is FuzzManifestAssembler's property over a
// few thousand deterministic mutants of its seeds, inside the plain test
// pass.
func TestMutatedManifestAssembler(t *testing.T) {
	mutate.Each(22, 3000, manifestFuzzSeeds(t), func(in []byte) { checkManifestAssembler(t, in) })
}

// manifestFuzzSeeds returns delta streams as a receiver is fed them: whole,
// reversed, one record short, with repeats and a foreign record, whole with
// a foreign record landing last (complete, one position uncovered: no
// source to offer), bare, and cut short.
func manifestFuzzSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	ckpt := chunkTestCheckpoint(3, 300)
	blob, err := EncodeChunked(context.Background(), ckpt, ChunkOptions{Precision: PrecFloat16, ChunkBytes: 128})
	if err != nil {
		tb.Fatal(err)
	}
	manifest, recs, _, _, err := PlanDelta(blob, nil)
	if err != nil {
		tb.Fatal(err)
	}
	other := chunkTestCheckpoint(4, 300) // same layout, other content: its records are foreign to the manifest
	otherBlob, err := EncodeChunked(context.Background(), other, ChunkOptions{Precision: PrecFloat16, ChunkBytes: 128})
	if err != nil {
		tb.Fatal(err)
	}
	var foreign [][]byte
	if err := WalkChunkRecords(otherBlob, func(rec []byte) error { foreign = append(foreign, rec); return nil }); err != nil {
		tb.Fatal(err)
	}
	reversed := make([][]byte, len(recs))
	for i, rec := range recs {
		reversed[len(recs)-1-i] = rec
	}
	whole := manifestFuzzInput(manifest, recs...)
	return [][]byte{
		whole,
		manifestFuzzInput(manifest, reversed...),
		manifestFuzzInput(manifest, recs[:len(recs)-1]...),
		manifestFuzzInput(manifest, append([][]byte{recs[1], foreign[1], recs[1]}, recs...)...),
		manifestFuzzInput(manifest, append(append([][]byte(nil), recs...), foreign[2])...),
		manifestFuzzInput(manifest),
		whole[:len(whole)-3],
		whole[:len(manifest)/2],
	}
}

func checkManifestAssembler(t *testing.T, in []byte) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	man, err := ParseManifest(in)
	if err != nil {
		return
	}
	if man.Layout.TotalElems > 1<<16 {
		return // the assembler allocates the model its header declares
	}
	asm, err := NewManifestAssembler(in[:man.Len], nil, nil)
	if err != nil {
		t.Fatalf("a manifest ParseManifest accepts failed to seed an assembler: %v", err)
	}
	accepted := make([][]byte, man.Layout.NumChunks) // by index, last one wins — as the assembler decodes
	for tail := in[man.Len:]; len(tail) >= 4; {
		n := min(int(binary.LittleEndian.Uint32(tail)), len(tail)-4)
		rec := tail[4 : 4+n]
		tail = tail[4+n:]
		if _, err := asm.Add(rec); err == nil {
			accepted[binary.LittleEndian.Uint32(rec[4:])] = rec
		}
	}
	runtime.ReadMemStats(&after)
	if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(32*len(in)+1<<20); grew > limit {
		t.Fatalf("assembling %d bytes allocated %d, limit %d", len(in), grew, limit)
	}
	got, err := asm.Checkpoint()
	if !asm.Complete() {
		if err == nil {
			t.Fatal("an incomplete assembly handed out a checkpoint")
		}
		return
	}
	if err != nil {
		t.Fatalf("complete assembly: %v", err)
	}
	plain := append([]byte(nil), man.Header...)
	for i, rec := range accepted {
		if rec == nil {
			t.Fatalf("assembly complete without a record for chunk %d", i)
		}
		plain = append(plain, rec...)
	}
	want, err := DecodeAuto(context.Background(), plain, 1)
	if err != nil {
		t.Fatalf("DecodeAuto rejects the records the assembler accepted: %v", err)
	}
	if got.ModelName != want.ModelName || got.Version != want.Version || len(got.Weights) != len(want.Weights) {
		t.Fatalf("assembled %s/v%d with %d tensors, DecodeAuto gives %s/v%d with %d",
			got.ModelName, got.Version, len(got.Weights), want.ModelName, want.Version, len(want.Weights))
	}
	sameBits := func(what string, got, want *Checkpoint) {
		for i := range got.Weights {
			g, w := got.Weights[i].Data, want.Weights[i].Data
			if len(g) != len(w) {
				t.Fatalf("tensor %d: %d elements assembled, %s has %d", i, len(g), what, len(w))
			}
			for j := range g {
				if math.Float64bits(g[j]) != math.Float64bits(w[j]) {
					t.Fatalf("tensor %d element %d: assembled %v, %s gives %v", i, j, g[j], what, w[j])
				}
			}
		}
	}
	sameBits("DecodeAuto", got, want)

	mask := crc32.ChecksumIEEE(in)
	srcHashes := make([]ChunkHash, len(accepted))
	shared := 0
	for i, rec := range accepted {
		if mask>>(i%32)&1 == 0 {
			srcHashes[i] = ChunkHash{0xd1, byte(i)} // no record hashes to this
			continue
		}
		if srcHashes[i] = HashChunkRecord(rec); srcHashes[i] == man.Hashes[i] {
			shared++
		}
	}
	src, err := NewSpanSource(man.Header, srcHashes, got.Weights)
	if err != nil {
		t.Fatalf("the assembled weights do not fit their own header: %v", err)
	}
	runtime.ReadMemStats(&before)
	asm2, err := NewManifestAssembler(in[:man.Len], src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if asm2.Inherited() != shared {
		t.Fatalf("inherited %d positions, the source shares %d hashes with the manifest", asm2.Inherited(), shared)
	}
	for tail := in[man.Len:]; len(tail) >= 4; {
		n := min(int(binary.LittleEndian.Uint32(tail)), len(tail)-4)
		asm2.Add(tail[4 : 4+n]) // the same sequence: accepted and rejected alike
		tail = tail[4+n:]
	}
	runtime.ReadMemStats(&after)
	if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(32*len(in)+1<<20); grew > limit {
		t.Fatalf("assembling %d bytes over a source allocated %d, limit %d", len(in), grew, limit)
	}
	got2, err := asm2.Checkpoint()
	if err != nil {
		t.Fatalf("the assembly over a source did not complete: %v", err)
	}
	sameBits("the assembly without a source", got2, got)
	checkCloneAssembly(t, in, man, src, mask)
}

// checkCloneAssembly replays in's Add sequence into two assemblers of its
// manifest over src — one copying from it (nil target), one patching a clone
// of it. Seeded, at a cut mask picks mid-stream, and at the end they must
// report the same Inherited, Complete and MissingHashes and offer the same
// Source (nil when a stray uncovered a position); every record is accepted
// by both or neither; complete, they hold the same bits; and src's weights
// are never written.
func checkCloneAssembly(t *testing.T, in []byte, man *ChunkManifest, src *SpanSource, mask uint32) {
	frozen := src.weights.Clone()
	copied, err := NewManifestAssembler(in[:man.Len], src, nil)
	if err != nil {
		t.Fatal(err)
	}
	patched, err := NewManifestAssembler(in[:man.Len], src, src.Clone(nil))
	if err != nil {
		t.Fatal(err)
	}
	if copied.InPlace() || !patched.InPlace() {
		t.Fatalf("in place: %v with a nil target, %v with a clone of the source", copied.InPlace(), patched.InPlace())
	}
	agree := func(when string) {
		if copied.Inherited() != patched.Inherited() || copied.Complete() != patched.Complete() {
			t.Fatalf("%s: copied inherits %d, complete %v; patched %d, %v", when,
				copied.Inherited(), copied.Complete(), patched.Inherited(), patched.Complete())
		}
		if a, b := copied.MissingHashes(), patched.MissingHashes(); !slices.Equal(a, b) {
			t.Fatalf("%s: copied misses %v, patched misses %v", when, a, b)
		}
		a, b := copied.Source(), patched.Source()
		if (a == nil) != (b == nil) {
			t.Fatalf("%s: copied offers a source: %v, patched: %v", when, a != nil, b != nil)
		}
		if a != nil && (!slices.Equal(a.hashes, b.hashes) || !a.layout.equal(b.layout)) {
			t.Fatalf("%s: the two offered sources differ in hashes or layout", when)
		}
	}
	agree("seeded")
	var recs [][]byte
	for tail := in[man.Len:]; len(tail) >= 4; {
		n := min(int(binary.LittleEndian.Uint32(tail)), len(tail)-4)
		recs = append(recs, tail[4:4+n])
		tail = tail[4+n:]
	}
	cut := int(mask>>8) % (len(recs) + 1)
	for i, rec := range recs {
		if i == cut {
			agree("mid-stream")
		}
		_, errC := copied.Add(rec)
		_, errP := patched.Add(rec)
		if (errC == nil) != (errP == nil) {
			t.Fatalf("record %d of the sequence: copied err = %v, patched err = %v", i, errC, errP)
		}
	}
	agree("at the end")
	a, err := copied.Checkpoint()
	if err != nil {
		t.Fatalf("the replay over a source did not complete: %v", err)
	}
	b, err := patched.Checkpoint()
	if err != nil {
		t.Fatalf("the replay into a clone did not complete: %v", err)
	}
	for i := range a.Weights {
		if !bytes.Equal(f64bytes(a.Weights[i].Data), f64bytes(b.Weights[i].Data)) {
			t.Fatalf("tensor %d: patched into a clone differs from copied out of the source", i)
		}
		if !bytes.Equal(f64bytes(frozen[i].Data), f64bytes(src.weights[i].Data)) {
			t.Fatalf("tensor %d of the source was written", i)
		}
	}
}

// TestDuplicateRecordHasOneWriter is the race TestMutatedDecodeAuto used
// to hit by chance, driven on purpose: goroutines adding the same record
// at the same time never decode into its span together (the race detector
// is the judge), the chunk counts once, and a blob that carries one chunk
// index at two positions — each record sound — never yields a checkpoint.
func TestDuplicateRecordHasOneWriter(t *testing.T) {
	blob, err := EncodeChunked(context.Background(), chunkTestCheckpoint(4, 4096), ChunkOptions{ChunkBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	var recs [][]byte
	if err := WalkChunkRecords(blob, func(rec []byte) error { recs = append(recs, rec); return nil }); err != nil || len(recs) < 2 {
		t.Fatalf("%d records, err %v; want at least 2", len(recs), err)
	}
	asm, err := NewChunkAssembler(blob, nil)
	if err != nil {
		t.Fatal(err)
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 200; i++ {
				if _, err := asm.Add(recs[0]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	if missing := asm.Missing(); missing != len(recs)-1 {
		t.Fatalf("%d chunks missing after one record added many times, want %d", missing, len(recs)-1)
	}
	for _, rec := range recs[1:] {
		if _, err := asm.Add(rec); err != nil {
			t.Fatal(err)
		}
	}
	got, err := asm.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	want, err := DecodeChunked(context.Background(), blob, 1)
	if err != nil {
		t.Fatal(err)
	}
	assertWeightsMatch(t, PrecFloat64, want.Weights, got.Weights)

	// The same index twice: the last record's place taken by a copy of the
	// one before it (equal sizes, so the walk still ends on the blob's end).
	n := len(recs)
	if len(recs[n-2]) != len(recs[n-3]) {
		t.Fatalf("records %d and %d differ in size; the splice needs two full chunks", n-3, n-2)
	}
	dup := append([]byte(nil), blob...)
	off := len(dup) - len(recs[n-1]) - len(recs[n-2])
	copy(dup[off:], recs[n-3])
	for _, parallelism := range []int{1, 2} {
		if _, err := DecodeChunked(context.Background(), dup, parallelism); !errors.Is(err, ErrIncompleteStream) {
			t.Fatalf("parallelism %d: a blob with chunk %d at two positions: err = %v, want ErrIncompleteStream", parallelism, n-3, err)
		}
	}
}

package vformat

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"viper/internal/leakcheck"
	"viper/internal/nn"
)

// specialValues are the float64s whose bits a precision conversion can
// bend: quiet and signalling NaNs of both signs with distinct payloads,
// ±0, ±Inf, the smallest subnormal of both signs and ±MaxFloat64.
func specialValues() []float64 {
	bits := []uint64{
		0x7FF8000000000001, 0x7FF80000DEADBEEF, 0xFFF8000000000123, // quiet NaNs
		0x7FF0000000000001, 0x7FF4000000000ABC, 0xFFF0000000000777, // signalling NaNs
		0x0000000000000000, 0x8000000000000000, // ±0
		0x7FF0000000000000, 0xFFF0000000000000, // ±Inf
		0x0000000000000001, 0x8000000000000001, // ±smallest subnormal
	}
	vals := make([]float64, 0, len(bits)+2)
	for _, b := range bits {
		vals = append(vals, math.Float64frombits(b))
	}
	return append(vals, math.MaxFloat64, -math.MaxFloat64)
}

// specialSnapshot holds the special values twice over, in two tensors of
// 5 and 23 elements: with 8-element chunks the tensor boundary falls
// inside the first chunk.
func specialSnapshot() nn.Snapshot {
	vals := append(specialValues(), specialValues()...)
	return nn.Snapshot{
		{Name: "a", Shape: []int{5}, Data: vals[:5]},
		{Name: "b", Shape: []int{len(vals) - 5}, Data: vals[5:]},
	}
}

// specialChunkOptions cuts specialSnapshot into chunks of 8 elements at p.
func specialChunkOptions(p Precision) ChunkOptions {
	return ChunkOptions{Precision: p, ChunkBytes: 8 * p.BytesPerElement(), Parallelism: 2}
}

// wireBits is what a float64 reads back as after a trip through a record
// at p, by the scalar conversions: fp64 is the value's own bits.
func wireBits(p Precision, v float64) uint64 {
	switch p {
	case PrecFloat32:
		return math.Float64bits(float64(float32(v)))
	case PrecFloat16:
		return math.Float64bits(Float16ToFloat64(Float16FromFloat64(v)))
	default:
		return math.Float64bits(v)
	}
}

// TestSpecialValuesRoundTripEveryPrecision streams specialSnapshot through
// EncodeStream into a ChunkAssembler at every precision: fp64 must come
// back bit for bit, NaN payloads and signs included, and fp32 and fp16
// must give exactly the bits of the scalar conversions.
func TestSpecialValuesRoundTripEveryPrecision(t *testing.T) {
	for _, p := range []Precision{PrecFloat64, PrecFloat32, PrecFloat16} {
		t.Run(p.String(), func(t *testing.T) {
			ckpt := &Checkpoint{ModelName: "special", Version: 1, Weights: specialSnapshot()}
			enc, err := NewChunkEncoder(ckpt, specialChunkOptions(p))
			if err != nil {
				t.Fatal(err)
			}
			defer enc.Release()
			asm, err := NewChunkAssembler(enc.Header(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := enc.EncodeStream(context.Background(), func(_ int, rec []byte) error {
				_, err := asm.Add(rec)
				return err
			}); err != nil {
				t.Fatal(err)
			}
			got, err := asm.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			for ti, nt := range ckpt.Weights {
				for i, v := range nt.Data {
					if g, want := math.Float64bits(got.Weights[ti].Data[i]), wireBits(p, v); g != want {
						t.Errorf("%s[%d] = %#016x: read back %#016x, want %#016x", nt.Name, i, math.Float64bits(v), g, want)
					}
				}
			}
		})
	}
}

// copyPathInputs are random float64s of every magnitude and the special
// values, shuffled, n in all.
func copyPathInputs(rng *rand.Rand, n int) []float64 {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = math.Float64frombits(rng.Uint64())
	}
	copy(vals, specialValues())
	rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	return vals
}

// TestFP64CopyMatchesPortableLoop holds the fp64 paths this host ships to
// the element-by-element loop a big-endian host runs: the records
// encodeChunkInto writes, with and without a base, against records built
// by putFloat64sLoop, and what decodeChunk reads against getFloat64sLoop,
// over random and special values, with a tensor boundary inside a chunk.
func TestFP64CopyMatchesPortableLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	vals := copyPathInputs(rng, 300)
	weights := nn.Snapshot{
		{Name: "a", Shape: []int{37}, Data: vals[:37]},
		{Name: "b", Shape: []int{263}, Data: vals[37:]},
	}
	l := planLayout(weights, ChunkOptions{Precision: PrecFloat64, ChunkBytes: 8 * 64})
	base := weights.Clone()
	for i := range base[1].Data {
		if i%3 == 0 {
			base[1].Data[i] = math.Float64frombits(rng.Uint64())
		}
	}
	refBase := base.Clone()
	for idx := 0; idx < l.NumChunks; idx++ {
		start, count := l.chunkSpan(idx)
		// The portable reference: the moves test on a copy of the base,
		// then the loop over the chunk's elements, wherever they sit.
		var flat, flatBase []float64
		l.walkChunk(idx, func(ti int, lo, n int64) {
			flat = append(flat, weights[ti].Data[lo:lo+n]...)
			for i := lo; i < lo+n; i++ {
				if moves(weights[ti].Data[i], refBase[ti].Data[i], 0) {
					refBase[ti].Data[i] = weights[ti].Data[i]
				}
			}
			flatBase = append(flatBase, refBase[ti].Data[lo:lo+n]...)
		})
		for _, tc := range []struct {
			name string
			base nn.Snapshot
			elem []float64
		}{{"no base", nil, flat}, {"base", base, flatBase}} {
			rec := make([]byte, l.recordSize(idx))
			l.encodeChunkInto(rec, weights, tc.base, 0, idx)
			want := make([]byte, len(rec))
			copy(want, rec[:chunkRecHeaderLen])
			putFloat64sLoop(want[chunkRecHeaderLen:], tc.elem)
			binary.LittleEndian.PutUint32(want[len(want)-4:], crc32.ChecksumIEEE(want[:len(want)-4]))
			if !bytes.Equal(rec, want) {
				t.Fatalf("chunk %d (%s): the record differs from the portable loop's", idx, tc.name)
			}
			got := make(nn.Snapshot, len(weights))
			for i, nt := range weights {
				got[i] = nn.NamedTensor{Name: nt.Name, Shape: nt.Shape, Data: make([]float64, len(nt.Data))}
			}
			l.decodeChunk(got, idx, rec)
			loop := make([]float64, count)
			getFloat64sLoop(loop, rec[chunkRecHeaderLen:])
			var decoded []float64
			l.walkChunk(idx, func(ti int, lo, n int64) { decoded = append(decoded, got[ti].Data[lo:lo+n]...) })
			for i := range loop {
				if math.Float64bits(decoded[i]) != math.Float64bits(loop[i]) {
					t.Fatalf("chunk %d (%s) element %d: decoded %#016x, the loop %#016x",
						idx, tc.name, start+int64(i), math.Float64bits(decoded[i]), math.Float64bits(loop[i]))
				}
			}
		}
	}
	for ti := range base {
		for i := range base[ti].Data {
			if math.Float64bits(base[ti].Data[i]) != math.Float64bits(refBase[ti].Data[i]) {
				t.Fatalf("base %s[%d] = %#016x, the reference moved it to %#016x", base[ti].Name, i,
					math.Float64bits(base[ti].Data[i]), math.Float64bits(refBase[ti].Data[i]))
			}
		}
	}
}

// fp64CopyFloor is TestGateFP64RecordIsACopy's bound: encoding and
// decoding an fp64 record by the shipped path must take at most half what
// the portable loop takes, which is what a return to the loop reads (1x).
// On a 2-core Xeon the copy read 2.6x to 7x the loop over about 100 gate
// runs, median 4x: the decode's copy reads a body 20 bytes into a page-aligned
// record into page-aligned weights, memmove's slowest relative alignment
// there (12 GB/s, against 29 GB/s for the encode's copy).
func fp64CopyFloor(shipped, loop time.Duration) error {
	if 2*shipped > loop {
		return fmt.Errorf("fp64 copy: shipped encode+decode %v is not 2x faster than the loop's %v", shipped, loop)
	}
	return nil
}

// TestGateFP64RecordIsACopy times one encode and one decode of a warm
// 256 KiB fp64 record body, 20 bytes into its buffer as in a record, by
// the shipped path (putElems, getElems) and by the portable loop, the two
// alternating, and holds the medians of 5 runs each to fp64CopyFloor. A
// run is tens of microseconds, so a scheduler pause lands in few of them
// and the median drops it.
func TestGateFP64RecordIsACopy(t *testing.T) {
	leakcheck.OnlyWhenNamed(t, "TestGate")
	if !nativeLE {
		t.Skip("big-endian host: fp64 records are converted element by element")
	}
	vals := copyPathInputs(rand.New(rand.NewSource(1)), DefaultChunkBytes/8)
	out := make([]float64, len(vals))
	rec := make([]byte, chunkRecOverhead+DefaultChunkBytes)
	body := rec[chunkRecHeaderLen : chunkRecHeaderLen+DefaultChunkBytes]
	paths := [2]func(){
		func() { putElems(body, PrecFloat64, vals); getElems(out, PrecFloat64, body) },
		func() { putFloat64sLoop(body, vals); getFloat64sLoop(out, body) },
	}
	var runs [2][5]time.Duration
	for _, run := range paths {
		run() // warm
	}
	for i := range runs[0] {
		for p, run := range paths {
			start := time.Now()
			run()
			runs[p][i] = time.Since(start)
		}
	}
	var med [2]time.Duration
	for p := range runs {
		sort.Slice(runs[p][:], func(i, j int) bool { return runs[p][i] < runs[p][j] })
		med[p] = runs[p][2]
	}
	t.Logf("encode+decode of a 256 KiB fp64 record, median of 5: shipped %v, portable loop %v (%.1fx)",
		med[0], med[1], float64(med[1])/float64(med[0]))
	if err := fp64CopyFloor(med[0], med[1]); err != nil {
		t.Fatal(err)
	}
}

// TestFP64CopyFloorGoesRed feeds the comparison figures just on and just
// off the floor.
func TestFP64CopyFloorGoesRed(t *testing.T) {
	for _, tc := range []struct {
		shipped, loop time.Duration
		red           bool
	}{
		{1000, 2000, false},
		{1000, 1999, true},
		{1001, 2001, true},
		{1000, 1000, true},
		{1000, 30000, false},
	} {
		err := fp64CopyFloor(tc.shipped, tc.loop)
		if red := err != nil; red != tc.red || (red && !strings.HasPrefix(err.Error(), "fp64 copy")) {
			t.Errorf("shipped %d loop %d: got %v, want red=%v", tc.shipped, tc.loop, err, tc.red)
		}
	}
}

// BenchmarkChunkRecord encodes and decodes one full record of
// DefaultChunkBytes payload at each precision.
func BenchmarkChunkRecord(b *testing.B) {
	for _, p := range []struct {
		name string
		prec Precision
	}{{"fp64", PrecFloat64}, {"fp32", PrecFloat32}, {"fp16", PrecFloat16}} {
		elems := DefaultChunkBytes / p.prec.BytesPerElement()
		weights := chunkTestSnapshot(1, elems)
		l := planLayout(weights, ChunkOptions{Precision: p.prec, ChunkBytes: DefaultChunkBytes})
		rec := make([]byte, l.recordSize(0))
		l.encodeChunkInto(rec, weights, nil, 0, 0)
		b.Run(p.name+"/encode", func(b *testing.B) {
			b.SetBytes(DefaultChunkBytes)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l.encodeChunkInto(rec, weights, nil, 0, 0)
			}
		})
		b.Run(p.name+"/decode", func(b *testing.B) {
			b.SetBytes(DefaultChunkBytes)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l.decodeChunk(weights, 0, rec)
			}
		})
	}
}

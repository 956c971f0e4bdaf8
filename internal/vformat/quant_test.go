package vformat

import (
	"context"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// The quantized-transfer properties, on the codec that carries them:
// ChunkOptions.Precision inside the chunked encoding.

// quantized ships ckpt through the chunk codec at precision p, returning
// the blob and what a receiver decodes from it.
func quantized(t *testing.T, ckpt *Checkpoint, p Precision) ([]byte, *Checkpoint) {
	t.Helper()
	blob, err := EncodeChunked(context.Background(), ckpt, ChunkOptions{Precision: p, ChunkBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	layout, _, _, err := ParseChunkHeader(blob)
	if err != nil || layout.Precision != p {
		t.Fatalf("header precision = %v (err=%v), want %v", layout, err, p)
	}
	got, err := DecodeChunked(context.Background(), blob, 0)
	if err != nil {
		t.Fatal(err)
	}
	return blob, got
}

func TestQuantizedRoundTripFloat64Lossless(t *testing.T) {
	ckpt := &Checkpoint{ModelName: "m", Version: 2, Iteration: 30, TrainLoss: 0.5, Weights: sampleSnapshot(1)}
	_, got := quantized(t, ckpt, PrecFloat64)
	for i := range ckpt.Weights {
		for j := range ckpt.Weights[i].Data {
			if got.Weights[i].Data[j] != ckpt.Weights[i].Data[j] {
				t.Fatal("float64 wire must be lossless")
			}
		}
	}
	if got.ModelName != "m" || got.Version != 2 || got.Iteration != 30 || got.TrainLoss != 0.5 {
		t.Fatalf("metadata = %+v", got)
	}
}

func TestQuantizedFloat32BoundedError(t *testing.T) {
	ckpt := &Checkpoint{ModelName: "m", Weights: sampleSnapshot(2)}
	_, got := quantized(t, ckpt, PrecFloat32)
	for i := range ckpt.Weights {
		for j, v := range ckpt.Weights[i].Data {
			rel := math.Abs(got.Weights[i].Data[j]-v) / math.Max(1e-9, math.Abs(v))
			if rel > 1e-6 {
				t.Fatalf("float32 relative error %v too large", rel)
			}
		}
	}
}

func TestQuantizedFloat16BoundedError(t *testing.T) {
	ckpt := &Checkpoint{ModelName: "m", Weights: sampleSnapshot(3)}
	_, got := quantized(t, ckpt, PrecFloat16)
	for i := range ckpt.Weights {
		for j, v := range ckpt.Weights[i].Data {
			rel := math.Abs(got.Weights[i].Data[j]-v) / math.Max(1e-3, math.Abs(v))
			if rel > 1e-3 {
				t.Fatalf("float16 relative error %v too large for %v", rel, v)
			}
		}
	}
}

func TestQuantizedSizeScaling(t *testing.T) {
	ckpt := &Checkpoint{ModelName: "m", Weights: sampleSnapshot(4)}
	b64, _ := quantized(t, ckpt, PrecFloat64)
	b32, _ := quantized(t, ckpt, PrecFloat32)
	b16, _ := quantized(t, ckpt, PrecFloat16)
	if !(len(b16) < len(b32) && len(b32) < len(b64)) {
		t.Fatalf("sizes %d/%d/%d must shrink with precision", len(b64), len(b32), len(b16))
	}
	// Payload dominates: the ratios should approach 2x and 4x.
	if r := float64(len(b64)) / float64(len(b32)); r < 1.7 {
		t.Fatalf("f64/f32 ratio = %.2f, want ≈2", r)
	}
	if r := float64(len(b64)) / float64(len(b16)); r < 2.8 {
		t.Fatalf("f64/f16 ratio = %.2f, want ≈4", r)
	}
}

func TestQuantizedErrors(t *testing.T) {
	ctx := context.Background()
	ckpt := &Checkpoint{ModelName: "m", Weights: sampleSnapshot(5)}
	if _, err := EncodeChunked(ctx, ckpt, ChunkOptions{Precision: Precision(9)}); err == nil {
		t.Fatal("unknown precision must error")
	}
	blob, _ := quantized(t, ckpt, PrecFloat16)
	if _, err := DecodeChunked(ctx, blob[:len(blob)-3], 0); err == nil {
		t.Fatal("truncated must error")
	}
	// The retired VPRQ container is no longer a checkpoint format.
	if _, err := DecodeAuto(ctx, append([]byte("VPRQ0001"), blob[8:]...), 0); err == nil ||
		!strings.Contains(err.Error(), "unknown checkpoint magic") {
		t.Fatalf("DecodeAuto(VPRQ…) = %v, want the unknown-magic error", err)
	}
}

func TestFloat16SpecialValues(t *testing.T) {
	cases := []struct {
		in   float64
		want float64
	}{
		{0, 0},
		{1, 1},
		{-1, -1},
		{0.5, 0.5},
		{65504, 65504},                   // max finite half
		{1e9, 65504},                     // saturates
		{-1e9, -65504},                   // saturates negative
		{6.103515625e-5, 6.103515625e-5}, // smallest normal half
	}
	for _, c := range cases {
		got := Float16ToFloat64(Float16FromFloat64(c.in))
		if got != c.want {
			t.Errorf("f16 round trip of %v = %v, want %v", c.in, got, c.want)
		}
	}
	if got := Float16ToFloat64(Float16FromFloat64(math.Inf(1))); !math.IsInf(got, 1) {
		t.Errorf("+Inf round trip = %v", got)
	}
	if got := Float16ToFloat64(Float16FromFloat64(math.Inf(-1))); !math.IsInf(got, -1) {
		t.Errorf("-Inf round trip = %v", got)
	}
	if got := Float16ToFloat64(Float16FromFloat64(math.NaN())); !math.IsNaN(got) {
		t.Errorf("NaN round trip = %v", got)
	}
	// Signed zero survives.
	if bits := Float16FromFloat64(math.Copysign(0, -1)); bits != 0x8000 {
		t.Errorf("-0 encodes to %#x", bits)
	}
}

func TestFloat16Subnormals(t *testing.T) {
	// The smallest positive half subnormal is 2^-24.
	tiny := math.Pow(2, -24)
	if got := Float16ToFloat64(Float16FromFloat64(tiny)); got != tiny {
		t.Fatalf("subnormal %v round trips to %v", tiny, got)
	}
	// A mid-range subnormal.
	v := 3 * math.Pow(2, -24)
	if got := Float16ToFloat64(Float16FromFloat64(v)); math.Abs(got-v) > math.Pow(2, -25) {
		t.Fatalf("subnormal %v round trips to %v", v, got)
	}
	// Values below half the smallest subnormal flush to zero.
	if got := Float16ToFloat64(Float16FromFloat64(math.Pow(2, -26))); got != 0 {
		t.Fatalf("deep underflow = %v, want 0", got)
	}
}

func TestPropFloat16RoundTripMonotoneError(t *testing.T) {
	f := func(raw int32) bool {
		v := float64(raw) / float64(1<<20) // range ≈ ±2048
		got := Float16ToFloat64(Float16FromFloat64(v))
		// Half precision: ~11 bits of mantissa → rel error < 2^-10.
		scale := math.Max(math.Abs(v), math.Pow(2, -14))
		return math.Abs(got-v) <= scale*math.Pow(2, -10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

package vformat

import (
	"context"
	"runtime"
	"strings"
	"testing"
)

// fuzzSeeds returns one blob per format DecodeAuto accepts: lean v1,
// chunked v2 and a manifest-bearing blob carrying every record.
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
	return [][]byte{v1, v2, manifest}
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
	f.Fuzz(func(t *testing.T, blob []byte) {
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
	})
}

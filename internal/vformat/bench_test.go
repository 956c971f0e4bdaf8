package vformat

import (
	"math/rand"
	"strings"
	"testing"

	"viper/internal/h5lite"
	"viper/internal/nn"
)

func benchCheckpoint(b *testing.B) *Checkpoint {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	m := nn.NewSequential("bench",
		nn.NewDense("d1", 256, 512, rng),
		nn.NewTanh("t"),
		nn.NewDense("d2", 512, 64, rng),
	)
	return &Checkpoint{ModelName: "bench", Version: 1, Iteration: 100, TrainLoss: 0.5, Weights: nn.TakeSnapshot(m)}
}

// BenchmarkVFormatEncode measures Viper's lean serialization — compare
// with BenchmarkH5Encode for the baseline-overhead story of Figure 8.
func BenchmarkVFormatEncode(b *testing.B) {
	ckpt := benchCheckpoint(b)
	b.SetBytes(ckpt.Weights.NumBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ckpt.Encode(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVFormatDecode(b *testing.B) {
	ckpt := benchCheckpoint(b)
	blob, err := ckpt.Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(blob); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkH5Encode measures the h5py-style baseline serialization.
func BenchmarkH5Encode(b *testing.B) {
	ckpt := benchCheckpoint(b)
	b.SetBytes(ckpt.Weights.NumBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := h5lite.New()
		g, err := f.Root().CreateGroup("model_weights")
		if err != nil {
			b.Fatal(err)
		}
		for _, nt := range ckpt.Weights {
			name := strings.ReplaceAll(nt.Name, "/", ".")
			if _, err := g.CreateDataset(name, nt.Shape, nt.Data); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := f.Bytes(); err != nil {
			b.Fatal(err)
		}
	}
}

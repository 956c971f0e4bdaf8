package transport

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"viper/internal/nn"
	"viper/internal/vformat"
)

// Transfer benchmarks: monolithic (legacy encode → one frame → decode)
// vs chunked pipelined (ISSUE 4 tentpole) over a real TCP loopback
// connection, measuring the full producer-to-installed-weights wall
// time. ci.sh runs these and records the ratio in BENCH_4.json; the
// 16 MiB case gates the ≥1.5× acceptance criterion.

func benchCheckpoint(bytes int) *vformat.Checkpoint {
	rng := rand.New(rand.NewSource(7))
	elems := bytes / 8
	const tensors = 8
	snap := make(nn.Snapshot, tensors)
	per := elems / tensors
	for i := range snap {
		n := per
		if i == tensors-1 {
			n = elems - per*(tensors-1)
		}
		data := make([]float64, n)
		for j := range data {
			data[j] = rng.NormFloat64()
		}
		snap[i] = nn.NamedTensor{Name: fmt.Sprintf("layer%d/w", i), Shape: []int{n}, Data: data}
	}
	return &vformat.Checkpoint{ModelName: "bench", Version: 1, Iteration: 1, Weights: snap}
}

var benchSizes = []struct {
	name  string
	bytes int
}{
	{"1MiB", 1 << 20},
	{"4MiB", 4 << 20},
	{"16MiB", 16 << 20},
	{"64MiB", 64 << 20},
}

func benchTCPPair(b *testing.B) (server, client *TCPLink) {
	client, server = tcpPair(b)
	return server, client
}

// BenchmarkTransferMonolithic measures the legacy path: serialize the
// whole checkpoint into one blob (bytes.Buffer churn and all), ship it
// as a single frame, then decode it on the consumer side.
func BenchmarkTransferMonolithic(b *testing.B) {
	for _, size := range benchSizes {
		b.Run(size.name, func(b *testing.B) {
			server, client := benchTCPPair(b)
			ckpt := benchCheckpoint(size.bytes)
			ack := make(chan error, 1)
			go func() {
				for i := 0; i < b.N; i++ {
					f, err := server.Recv()
					if err == nil {
						_, err = vformat.Decode(f.Payload)
					}
					ack <- err
					if err != nil {
						return
					}
				}
			}()
			b.SetBytes(int64(size.bytes))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				blob, err := ckpt.Encode()
				if err != nil {
					b.Fatal(err)
				}
				if err := client.Send(Frame{Key: "bench/v1", Payload: blob}); err != nil {
					b.Fatal(err)
				}
				if err := <-ack; err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTransferChunked measures the pipelined path: pooled
// single-pass chunk encode, one frame per chunk with the consumer
// verifying and assembling chunks as they arrive.
func BenchmarkTransferChunked(b *testing.B) {
	for _, size := range benchSizes {
		b.Run(size.name, func(b *testing.B) {
			server, client := benchTCPPair(b)
			ckpt := benchCheckpoint(size.bytes)
			ack := make(chan error, 1)
			go func() {
				for i := 0; i < b.N; i++ {
					header, err := server.Recv()
					if err == nil {
						_, _, err = CollectChunked(context.Background(), header, server.Recv)
					}
					ack <- err
					if err != nil {
						return
					}
				}
			}()
			b.SetBytes(int64(size.bytes))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				enc, err := vformat.NewChunkEncoder(ckpt, vformat.ChunkOptions{})
				if err != nil {
					b.Fatal(err)
				}
				err = SendChunked(context.Background(), client, "bench/v1", enc, 0)
				if err == nil {
					err = <-ack
				}
				enc.Release()
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

package transport

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"viper/internal/nn"
	"viper/internal/vformat"
)

// The transfer benchmark: the chunked pipeline over a real TCP loopback
// connection, producer encode to installed weights. ci.sh smoke-runs it;
// its time is held by the direct_full_16m workload of BENCHMARK.json.

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
						_, _, err = CollectChunked(context.Background(), header, nil, server.Recv)
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

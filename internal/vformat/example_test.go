package vformat_test

import (
	"context"
	"fmt"
	"math/rand"

	"viper/internal/nn"
	"viper/internal/vformat"
)

func demoSnapshot() nn.Snapshot {
	rng := rand.New(rand.NewSource(1))
	m := nn.NewSequential("demo", nn.NewDense("d", 4, 4, rng))
	return nn.TakeSnapshot(m)
}

// ExampleCheckpoint_Encode round-trips a checkpoint through Viper's lean
// wire format.
func ExampleCheckpoint_Encode() {
	ckpt := &vformat.Checkpoint{
		ModelName: "tc1",
		Version:   7,
		Iteration: 1512,
		TrainLoss: 0.042,
		Weights:   demoSnapshot(),
	}
	blob, _ := ckpt.Encode()
	back, _ := vformat.Decode(blob)
	fmt.Printf("%s v%d at iteration %d, %d tensors\n",
		back.ModelName, back.Version, back.Iteration, len(back.Weights))
	// Output:
	// tc1 v7 at iteration 1512, 2 tensors
}

// ExamplePlanDelta ships a new version as a manifest plus only the
// chunks the receiver does not already hold.
func ExamplePlanDelta() {
	ctx := context.Background()
	opts := vformat.ChunkOptions{ChunkBytes: 32} // 4 elements per chunk
	base := demoSnapshot()
	v1, _ := vformat.EncodeChunked(ctx, &vformat.Checkpoint{ModelName: "tc1", Version: 1, Weights: base}, opts)
	held := map[vformat.ChunkHash]bool{}
	receiverHas, _ := vformat.ChunkHashesOf(v1)
	for _, h := range receiverHas {
		held[h] = true
	}

	next := base.Clone()
	next[0].Data[3] += 1.5 // one weight changed
	v2, _ := vformat.EncodeChunked(ctx, &vformat.Checkpoint{ModelName: "tc1", Version: 2, Weights: next}, opts)
	_, records, hashes, _, _ := vformat.PlanDelta(v2, func(h vformat.ChunkHash) bool { return held[h] })
	fmt.Printf("chunks on the wire: %d of %d\n", len(records), len(hashes))
	// Output:
	// chunks on the wire: 1 of 5
}

// ExampleEncodeChunked ships a checkpoint at half precision.
func ExampleEncodeChunked() {
	ckpt := &vformat.Checkpoint{ModelName: "tc1", Weights: demoSnapshot()}
	full, _ := vformat.EncodeChunked(context.Background(), ckpt, vformat.ChunkOptions{})
	half, _ := vformat.EncodeChunked(context.Background(), ckpt, vformat.ChunkOptions{Precision: vformat.PrecFloat16})
	fmt.Printf("float16 payload is smaller: %v\n", len(half) < len(full))
	// Output:
	// float16 payload is smaller: true
}

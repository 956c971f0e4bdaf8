package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"viper/internal/nn"
	"viper/internal/tensor"
)

func TestMultiConsumerBroadcast(t *testing.T) {
	env, _ := newTestEnv()
	src := testModel(200)
	h, err := NewWeightsHandler(env, HandlerConfig{Model: "m", Strategy: Strategy{Route: RouteGPU, Mode: ModeSync}})
	if err != nil {
		t.Fatal(err)
	}
	// One primary + two extra consumers, each with its own serving model.
	consumers := make([]*Consumer, 3)
	servings := make([]*nn.Sequential, 3)
	for i := range consumers {
		servings[i] = testModel(int64(210 + i))
		if i == 0 {
			consumers[i], err = NewConsumerOpts(env, "m", ConsumerOptions{Serving: servings[i]})
		} else {
			consumers[i], err = NewConsumerOpts(env, "m", ConsumerOptions{Serving: servings[i], ExtraLinks: true})
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := h.Save(nn.TakeSnapshot(src), 1, 0.5); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(220))
	x := tensor.RandNormal(rng, 0, 1, 3, 8)
	want := src.Predict(x)
	for i, c := range consumers {
		if _, ok, err := pollViaMeta(c); err != nil || !ok {
			t.Fatalf("consumer %d load: %v %v", i, ok, err)
		}
		if !servings[i].Predict(x).AllClose(want, 1e-12) {
			t.Fatalf("consumer %d serving model does not match", i)
		}
	}
}

func TestBroadcastCostGrowsWithConsumers(t *testing.T) {
	// Each extra consumer adds one serialized wire transfer.
	cost := func(extra int) time.Duration {
		env, _ := newTestEnv()
		h, err := NewWeightsHandler(env, HandlerConfig{
			Model: "m", Strategy: Strategy{Route: RouteGPU, Mode: ModeSync},
			VirtualSize: 4 << 30,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < extra; i++ {
			env.AddConsumerLinks()
		}
		rep, err := h.Save(nn.TakeSnapshot(testModel(230)), 1, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Total
	}
	one := cost(0)
	four := cost(3)
	if four <= one {
		t.Fatalf("broadcast to 4 consumers (%v) must exceed 1 consumer (%v)", four, one)
	}
	// Roughly linear: 4 consumers ≈ capture + 4 transfers.
	if ratio := float64(four) / float64(one); ratio < 2 || ratio > 5 {
		t.Fatalf("4-consumer/1-consumer cost ratio = %.2f, want ≈3-4", ratio)
	}
}

func TestRecoverFromPFSAfterConsumerRestart(t *testing.T) {
	env, _ := newTestEnv()
	src := testModel(240)
	h, err := NewWeightsHandler(env, HandlerConfig{
		Model: "m", Strategy: Strategy{Route: RouteGPU, Mode: ModeSync}, FlushHistory: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// First consumer applies v1 and v2, then "crashes".
	first, err := NewConsumerOpts(env, "m", ConsumerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(241))
	for v := 1; v <= 2; v++ {
		perturb(src, rng, 0.2, 0.1)
		if _, err := h.Save(nn.TakeSnapshot(src), uint64(v), 0.5); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := pollViaMeta(first); err != nil || !ok {
			t.Fatalf("first consumer load v%d: %v %v", v, ok, err)
		}
	}
	// Replacement consumer: the memory frames are long gone, but the PFS
	// flush history has every version.
	serving := testModel(242)
	second, err := NewConsumerOpts(env, "m", ConsumerOptions{Serving: serving})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := second.RecoverFromPFS()
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil || rep.Meta.Version != 2 {
		t.Fatalf("recovered report = %+v, want v2", rep)
	}
	if rep.Meta.Location != RoutePFS {
		t.Fatalf("recovery location = %q, want pfs", rep.Meta.Location)
	}
	x := tensor.RandNormal(rng, 0, 1, 3, 8)
	if !src.Predict(x).AllClose(serving.Predict(x), 1e-12) {
		t.Fatal("recovered serving model must match the latest weights")
	}
}

func TestRecoverFromPFSWithoutHistory(t *testing.T) {
	env, _ := newTestEnv()
	h, err := NewWeightsHandler(env, HandlerConfig{Model: "m", Strategy: Strategy{Route: RouteGPU, Mode: ModeSync}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Save(nn.TakeSnapshot(testModel(260)), 1, 0.5); err != nil {
		t.Fatal(err)
	}
	cons, err := NewConsumerOpts(env, "m", ConsumerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cons.RecoverFromPFS(); err == nil {
		t.Fatal("recovery without flush history must fail")
	}
}

func TestProducerResumeFrom(t *testing.T) {
	env, _ := newTestEnv()
	src := testModel(270)
	h1, err := NewWeightsHandler(env, HandlerConfig{
		Model: "m", Strategy: Strategy{Route: RouteGPU, Mode: ModeSync}, ChunkSize: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	cons, err := NewConsumerOpts(env, "m", ConsumerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(271))
	for v := 1; v <= 2; v++ {
		perturb(src, rng, 0.05, 0.1)
		if _, err := h1.Save(nn.TakeSnapshot(src), uint64(v), 0.5); err != nil {
			t.Fatal(err)
		}
		if _, _, err := pollViaMeta(cons); err != nil {
			t.Fatal(err)
		}
	}
	// Restarted producer resumes the version sequence.
	h2, err := NewWeightsHandler(env, HandlerConfig{
		Model: "m", Strategy: Strategy{Route: RouteGPU, Mode: ModeSync}, ChunkSize: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	h2.ResumeFrom(h1.Version())
	perturb(src, rng, 0.05, 0.1)
	rep, err := h2.Save(nn.TakeSnapshot(src), 30, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Meta.Version != 3 {
		t.Fatalf("resumed version = %d, want 3", rep.Meta.Version)
	}
	if _, ok, err := pollViaMeta(cons); err != nil || !ok {
		t.Fatalf("post-restart load: %v %v", ok, err)
	}
}

// TestBroadcastSharesOnePayload pins the encode-once fix: after a Save
// the frames sitting on the primary link and every extra link must
// alias ONE payload backing array — the handler encodes the checkpoint
// once and hands the same bytes to each link (SendLatest aliases them),
// so producer-side CPU/allocation is flat in the consumer count (only the
// modelled wire time grows).
func TestBroadcastSharesOnePayload(t *testing.T) {
	env, _ := newTestEnv()
	h, err := NewWeightsHandler(env, HandlerConfig{Model: "m", Strategy: Strategy{Route: RouteGPU, Mode: ModeSync}})
	if err != nil {
		t.Fatal(err)
	}
	g1, _ := env.AddConsumerLinks()
	g2, _ := env.AddConsumerLinks()
	if _, err := h.Save(nn.TakeSnapshot(testModel(260)), 1, 0.5); err != nil {
		t.Fatal(err)
	}
	links := []*Link{env.GPULink, g1, g2}
	var first *byte
	for i, l := range links {
		f, ok := l.TryRecv()
		if !ok {
			t.Fatalf("link %d has no frame", i)
		}
		if len(f.Payload) == 0 {
			t.Fatalf("link %d frame has empty payload", i)
		}
		if first == nil {
			first = &f.Payload[0]
		} else if &f.Payload[0] != first {
			t.Fatalf("link %d received a copied payload; broadcast must share one encoding", i)
		}
	}
}

// BenchmarkBroadcastEncodeOnce measures the producer-side wall cost of
// a Save as extra consumers are added. The virtual clock auto-advances,
// so modelled wire time is free here and the measurement isolates real
// CPU work: encode + per-link handoff. SendLatest aliases the payload, so
// the cost must stay ~flat from 1 to 32 consumers; relay's
// TestGateFanOutFlat checks the relay-tier analogue of the same claim over
// real TCP.
func BenchmarkBroadcastEncodeOnce(b *testing.B) {
	for _, consumers := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("consumers=%d", consumers), func(b *testing.B) {
			env, _ := newTestEnv()
			h, err := NewWeightsHandler(env, HandlerConfig{Model: "m", Strategy: Strategy{Route: RouteGPU, Mode: ModeSync}})
			if err != nil {
				b.Fatal(err)
			}
			for i := 1; i < consumers; i++ {
				env.AddConsumerLinks()
			}
			// ~2 MiB of weights: big enough that an accidental per-link
			// deep copy would dominate the numbers.
			rng := rand.New(rand.NewSource(270))
			model := nn.NewSequential("m", nn.NewDense("d", 512, 512, rng))
			snap := nn.TakeSnapshot(model)
			drain := func() {
				for _, l := range append([]*Link{env.GPULink}, env.ExtraGPULinks...) {
					for {
						if _, ok := l.TryRecv(); !ok {
							break
						}
					}
				}
			}
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				if _, err := h.Save(snap, uint64(n+1), 0.5); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				drain()
				b.StartTimer()
			}
		})
	}
}

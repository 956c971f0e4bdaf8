package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"viper/internal/nn"
	"viper/internal/vformat"
)

// chunkedHandlerConsumer wires a handler with the chunked pipeline
// enabled to a consumer on a fresh environment.
func chunkedHandlerConsumer(t *testing.T, cfg HandlerConfig) (*Env, *WeightsHandler, *Consumer) {
	t.Helper()
	env, _ := newTestEnv()
	t.Cleanup(env.Close)
	h, err := NewWeightsHandler(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewConsumerOpts(env, cfg.Model, ConsumerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return env, h, c
}

// TestSaveChunkedRoutes: with ChunkSize set, every non-baseline route
// publishes "vchunk" and the consumer installs bit-identical weights.
func TestSaveChunkedRoutes(t *testing.T) {
	strategies := []Strategy{
		{Route: RouteGPU, Mode: ModeSync},
		{Route: RouteGPU, Mode: ModeAsync},
		{Route: RouteHost, Mode: ModeSync},
		{Route: RouteHost, Mode: ModeAsync},
		{Route: RoutePFS},
	}
	for _, s := range strategies {
		t.Run(s.String(), func(t *testing.T) {
			_, h, c := chunkedHandlerConsumer(t, HandlerConfig{
				Model:     "tc1",
				Strategy:  s,
				ChunkSize: 4 << 10,
			})
			sub := c.Subscribe()
			defer sub.Close()
			model := testModel(1)
			snap := nn.TakeSnapshot(model)
			rep, err := h.Save(snap, 10, 0.5)
			if err != nil {
				t.Fatalf("Save: %v", err)
			}
			if rep.Meta.Format != "vchunk" {
				t.Fatalf("format = %q, want vchunk", rep.Meta.Format)
			}
			msg := <-sub.C
			load, err := c.HandleNotification(msg)
			if err != nil {
				t.Fatalf("HandleNotification: %v", err)
			}
			if load == nil || load.Meta.Version != 1 {
				t.Fatalf("load = %+v", load)
			}
			got := c.ActiveModel()
			for i := range snap {
				for j := range snap[i].Data {
					if got.Weights[i].Data[j] != snap[i].Data[j] {
						t.Fatalf("weights differ at tensor %d elem %d", i, j)
					}
				}
			}
		})
	}
}

// TestSaveChunkedQuantized folds precision conversion into the chunk
// encoding: the consumer gets float16-rounded weights, and the virtual
// size accounting shrinks with the stride.
func TestSaveChunkedQuantized(t *testing.T) {
	const virtual = int64(1 << 30)
	_, h, c := chunkedHandlerConsumer(t, HandlerConfig{
		Model:       "tc1",
		Strategy:    Strategy{Route: RouteGPU, Mode: ModeSync},
		ChunkSize:   4 << 10,
		Precision:   vformat.PrecFloat16,
		VirtualSize: virtual,
	})
	sub := c.Subscribe()
	defer sub.Close()
	snap := nn.TakeSnapshot(testModel(2))
	rep, err := h.Save(snap, 5, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Meta.Format != "vchunk" {
		t.Fatalf("format = %q, want vchunk", rep.Meta.Format)
	}
	if want := virtual / 4; rep.Meta.Size != want {
		t.Fatalf("accounted size = %d, want %d (float16 quarter)", rep.Meta.Size, want)
	}
	if _, err := c.HandleNotification(<-sub.C); err != nil {
		t.Fatal(err)
	}
	got := c.ActiveModel()
	for i := range snap {
		for j, v := range snap[i].Data {
			if diff := math.Abs(got.Weights[i].Data[j] - v); diff > 2e-2*(1+math.Abs(v)) {
				t.Fatalf("tensor %d elem %d: %v vs %v beyond float16 tolerance", i, j, got.Weights[i].Data[j], v)
			}
		}
	}
}

// TestSaveChunkedIncremental: between full refreshes the chunked
// pipeline ships manifest-bearing "vrecon" blobs carrying only the
// chunks that changed, and the consumer reconciles the rest from the
// chunk cache seeded by the full install.
func TestSaveChunkedIncremental(t *testing.T) {
	_, h, c := chunkedHandlerConsumer(t, HandlerConfig{
		Model:       "tc1",
		Strategy:    Strategy{Route: RouteHost, Mode: ModeSync},
		ChunkSize:   256, // 32 elems/chunk: the 212-param model spans 7 chunks
		Incremental: true,
		FullEvery:   4,
	})
	sub := c.Subscribe()
	defer sub.Close()
	model := testModel(3)
	wantFormats := []string{"vchunk", "vrecon", "vrecon"}
	for i, want := range wantFormats {
		// Nudge one parameter so each delta is small but non-empty.
		params := model.Params()
		params[0].Value.Data()[i] += 0.125
		snap := nn.TakeSnapshot(model)
		rep, err := h.Save(snap, uint64(i), 0.5)
		if err != nil {
			t.Fatalf("save %d: %v", i, err)
		}
		if rep.Meta.Format != want {
			t.Fatalf("save %d format = %q, want %q", i, rep.Meta.Format, want)
		}
		if _, err := c.HandleNotification(<-sub.C); err != nil {
			t.Fatalf("load %d: %v", i, err)
		}
		got := c.ActiveModel()
		for ti := range snap {
			for tj := range snap[ti].Data {
				if got.Weights[ti].Data[tj] != snap[ti].Data[tj] {
					t.Fatalf("after save %d weights differ at %d/%d", i, ti, tj)
				}
			}
		}
	}
}

// TestChunkedReconFullRefreshCadence: the vrecon chain re-anchors with
// a full vchunk checkpoint every FullEvery versions, and the consumer
// tracks the whole sequence byte-identically.
func TestChunkedReconFullRefreshCadence(t *testing.T) {
	_, h, c := chunkedHandlerConsumer(t, HandlerConfig{
		Model:       "tc1",
		Strategy:    Strategy{Route: RouteHost, Mode: ModeSync},
		ChunkSize:   256,
		Incremental: true,
		FullEvery:   3,
	})
	sub := c.Subscribe()
	defer sub.Close()
	model := testModel(6)
	want := []string{"vchunk", "vrecon", "vrecon", "vchunk", "vrecon", "vrecon", "vchunk"}
	for i, wantFormat := range want {
		params := model.Params()
		params[0].Value.Data()[i] += 0.25
		snap := nn.TakeSnapshot(model)
		rep, err := h.Save(snap, uint64(i), 0.5)
		if err != nil {
			t.Fatalf("save %d: %v", i, err)
		}
		if rep.Meta.Format != wantFormat {
			t.Fatalf("save %d format = %q, want %q", i, rep.Meta.Format, wantFormat)
		}
		if _, err := c.HandleNotification(<-sub.C); err != nil {
			t.Fatalf("load %d: %v", i, err)
		}
		got := c.ActiveModel()
		for ti := range snap {
			for tj := range snap[ti].Data {
				if got.Weights[ti].Data[tj] != snap[ti].Data[tj] {
					t.Fatalf("after save %d weights differ at %d/%d", i, ti, tj)
				}
			}
		}
	}
}

// TestChunkedReconAccountedSize: a one-chunk change between versions
// shrinks the accounted transfer to a fraction of the virtual size.
func TestChunkedReconAccountedSize(t *testing.T) {
	const virtual = int64(1 << 30)
	_, h, c := chunkedHandlerConsumer(t, HandlerConfig{
		Model:       "tc1",
		Strategy:    Strategy{Route: RouteHost, Mode: ModeSync},
		ChunkSize:   256,
		Incremental: true,
		VirtualSize: virtual,
	})
	sub := c.Subscribe()
	defer sub.Close()
	model := testModel(7)
	rep1, err := h.Save(nn.TakeSnapshot(model), 1, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Meta.Size != virtual {
		t.Fatalf("full size = %d, want %d", rep1.Meta.Size, virtual)
	}
	if _, err := c.HandleNotification(<-sub.C); err != nil {
		t.Fatal(err)
	}
	model.Params()[0].Value.Data()[0] += 1
	rep2, err := h.Save(nn.TakeSnapshot(model), 2, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Meta.Format != "vrecon" {
		t.Fatalf("second format = %q, want vrecon", rep2.Meta.Format)
	}
	if rep2.Meta.Size >= virtual/2 {
		t.Fatalf("recon accounted size = %d, want well under the virtual %d", rep2.Meta.Size, virtual)
	}
}

// TestChunkedReconColdCacheErrors: a consumer that joins mid-chain has
// no chunks to reconcile against — the vrecon load fails loudly (like a
// broken vdelta chain) and the next scheduled full refresh repairs it.
func TestChunkedReconColdCacheErrors(t *testing.T) {
	env, h, c1 := chunkedHandlerConsumer(t, HandlerConfig{
		Model:       "tc1",
		Strategy:    Strategy{Route: RouteHost, Mode: ModeSync},
		ChunkSize:   256,
		Incremental: true,
		FullEvery:   2,
	})
	sub1 := c1.Subscribe()
	defer sub1.Close()
	model := testModel(8)
	if _, err := h.Save(nn.TakeSnapshot(model), 1, 0.9); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.HandleNotification(<-sub1.C); err != nil {
		t.Fatal(err)
	}

	// A late joiner with its own links misses v1 entirely.
	c2, err := NewConsumerOpts(env, "tc1", ConsumerOptions{ExtraLinks: true})
	if err != nil {
		t.Fatal(err)
	}
	sub2 := c2.Subscribe()
	defer sub2.Close()

	model.Params()[0].Value.Data()[0] += 1
	rep, err := h.Save(nn.TakeSnapshot(model), 2, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Meta.Format != "vrecon" {
		t.Fatalf("format = %q, want vrecon", rep.Meta.Format)
	}
	msg := <-sub2.C
	if _, err := c2.HandleNotification(msg); !errors.Is(err, vformat.ErrMissingChunk) {
		t.Fatalf("cold-cache load = %v, want ErrMissingChunk", err)
	}
	if _, err := c1.HandleNotification(<-sub1.C); err != nil {
		t.Fatalf("warm consumer must follow the chain: %v", err)
	}

	// v3 is the scheduled full refresh; the cold consumer catches up.
	snap3 := nn.TakeSnapshot(model)
	rep3, err := h.Save(snap3, 3, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if rep3.Meta.Format != "vchunk" {
		t.Fatalf("refresh format = %q, want vchunk", rep3.Meta.Format)
	}
	if _, err := c2.HandleNotification(<-sub2.C); err != nil {
		t.Fatalf("full refresh must repair the cold consumer: %v", err)
	}
	got := c2.ActiveModel()
	for ti := range snap3 {
		for tj := range snap3[ti].Data {
			if got.Weights[ti].Data[tj] != snap3[ti].Data[tj] {
				t.Fatalf("repaired weights differ at %d/%d", ti, tj)
			}
		}
	}
}

// TestSaveChunkedFlushRecover: vchunk checkpoints are self-contained, so
// the PFS flush history can recover them after a consumer restart.
func TestSaveChunkedFlushRecover(t *testing.T) {
	env, h, _ := chunkedHandlerConsumer(t, HandlerConfig{
		Model:        "tc1",
		Strategy:     Strategy{Route: RouteGPU, Mode: ModeSync},
		ChunkSize:    4 << 10,
		FlushHistory: true,
	})
	snap := nn.TakeSnapshot(testModel(4))
	if _, err := h.Save(snap, 1, 0.9); err != nil {
		t.Fatal(err)
	}
	// A fresh consumer (post-crash) recovers from the PFS copy alone.
	fresh, err := NewConsumerOpts(env, "tc1", ConsumerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fresh.RecoverFromPFS()
	if err != nil {
		t.Fatalf("RecoverFromPFS: %v", err)
	}
	if rep.Meta.Format != "vchunk" || rep.Meta.Location != RoutePFS {
		t.Fatalf("recovered meta = %+v", rep.Meta)
	}
	if fresh.ActiveVersion() != 1 {
		t.Fatalf("active version = %d", fresh.ActiveVersion())
	}
}

// TestSaveContextCancelled: a cancelled save publishes nothing.
func TestSaveContextCancelled(t *testing.T) {
	env, h, _ := chunkedHandlerConsumer(t, HandlerConfig{
		Model:     "tc1",
		Strategy:  Strategy{Route: RouteGPU, Mode: ModeSync},
		ChunkSize: 1 << 10,
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	snap := nn.TakeSnapshot(testModel(5))
	if _, err := h.SaveContext(ctx, snap, 1, 0.5); !errors.Is(err, context.Canceled) {
		t.Fatalf("SaveContext = %v, want context.Canceled", err)
	}
	if _, err := env.Meta.Get(MetaKey("tc1")); err == nil {
		t.Fatal("metadata was published for a cancelled save")
	}
}

// TestSubscribeContextCancel: cancelling the context closes the
// subscription, unblocking receivers; closing early stops the relay.
func TestSubscribeContextCancel(t *testing.T) {
	_, _, c := chunkedHandlerConsumer(t, HandlerConfig{
		Model:    "tc1",
		Strategy: Strategy{Route: RouteGPU, Mode: ModeSync},
	})
	ctx, cancel := context.WithCancel(context.Background())
	sub := c.SubscribeContext(ctx)
	cancel()
	if _, ok := <-sub.C; ok {
		t.Fatal("subscription channel still open after context cancel")
	}
	// The reverse order: Close first, the relay must exit on Done.
	sub2 := c.SubscribeContext(context.Background())
	sub2.Close()
	select {
	case <-sub2.Done():
	default:
		t.Fatal("Done not closed after Close")
	}
}

// TestLoadContextCancelled: a cancelled load fetches nothing.
func TestLoadContextCancelled(t *testing.T) {
	_, h, c := chunkedHandlerConsumer(t, HandlerConfig{
		Model:     "tc1",
		Strategy:  Strategy{Route: RouteGPU, Mode: ModeSync},
		ChunkSize: 1 << 10,
	})
	sub := c.Subscribe()
	defer sub.Close()
	snap := nn.TakeSnapshot(testModel(6))
	if _, err := h.Save(snap, 1, 0.5); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.HandleNotificationContext(ctx, <-sub.C); !errors.Is(err, context.Canceled) {
		t.Fatalf("HandleNotificationContext = %v, want context.Canceled", err)
	}
	if c.ActiveModel() != nil {
		t.Fatal("model installed despite cancelled context")
	}
}

package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"viper/internal/chunkstore"
	"viper/internal/nn"
	"viper/internal/tensor"
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

// requireWeights fails unless cons serves exactly snap.
func requireWeights(t *testing.T, cons *Consumer, snap nn.Snapshot) {
	t.Helper()
	got := cons.ActiveModel()
	for ti := range snap {
		for tj := range snap[ti].Data {
			if got.Weights[ti].Data[tj] != snap[ti].Data[tj] {
				t.Fatalf("weights differ at %d/%d", ti, tj)
			}
		}
	}
}

// TestLateJoinerInstallsNewest: every frame is a whole checkpoint and
// delivery is latest-wins, so a consumer that joins after v1 and finds v2
// and v3 queued installs v3, bit-identical, from its first load.
func TestLateJoinerInstallsNewest(t *testing.T) {
	env, h, c := chunkedHandlerConsumer(t, HandlerConfig{
		Model:     "tc1",
		Strategy:  Strategy{Route: RouteHost, Mode: ModeSync},
		ChunkSize: 256, // 32 elems/chunk: the 212-param model spans 7 chunks
	})
	model := testModel(8)
	if _, err := h.Save(nn.TakeSnapshot(model), 1, 0.9); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := pollViaMeta(c); err != nil || !ok {
		t.Fatalf("v1 load: %v %v", ok, err)
	}
	late, err := NewConsumerOpts(env, "tc1", ConsumerOptions{ExtraLinks: true})
	if err != nil {
		t.Fatal(err)
	}
	params := model.Params()
	params[0].Value.Data()[0] += 1
	if _, err := h.Save(nn.TakeSnapshot(model), 2, 0.8); err != nil {
		t.Fatal(err)
	}
	last := params[len(params)-1].Value.Data()
	last[len(last)-1] += 0.5
	snap3 := nn.TakeSnapshot(model)
	if _, err := h.Save(snap3, 3, 0.7); err != nil {
		t.Fatal(err)
	}
	for i, cons := range []*Consumer{c, late} {
		if rep, ok, err := pollViaMeta(cons); err != nil || !ok || rep.Meta.Version != 3 {
			t.Fatalf("consumer %d: load = %+v, %v, %v; want v3", i, rep, ok, err)
		}
		requireWeights(t, cons, snap3)
	}
}

// TestDroppedFrameInstallsNext: delivery is latest-wins and every frame is
// whole, so a consumer whose v2 frame was lost behind its back installs
// v3 — which moves only the last chunk — bit-identical from the next load.
func TestDroppedFrameInstallsNext(t *testing.T) {
	env, h, c := chunkedHandlerConsumer(t, HandlerConfig{
		Model:     "tc1",
		Strategy:  Strategy{Route: RouteHost, Mode: ModeSync},
		ChunkSize: 256,
	})
	model := testModel(8)
	if _, err := h.Save(nn.TakeSnapshot(model), 1, 0.9); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := pollViaMeta(c); err != nil || !ok {
		t.Fatalf("v1 load: %v %v", ok, err)
	}
	params := model.Params()
	params[0].Value.Data()[0] += 1
	if _, err := h.Save(nn.TakeSnapshot(model), 2, 0.8); err != nil {
		t.Fatal(err)
	}
	if _, ok := env.HostLink.TryRecv(); !ok {
		t.Fatal("expected the v2 frame queued")
	}
	last := params[len(params)-1].Value.Data()
	last[len(last)-1] += 0.5
	snap3 := nn.TakeSnapshot(model)
	if _, err := h.Save(snap3, 3, 0.7); err != nil {
		t.Fatal(err)
	}
	if rep, ok, err := pollViaMeta(c); err != nil || !ok || rep.Meta.Version != 3 {
		t.Fatalf("load = %+v, %v, %v; want v3", rep, ok, err)
	}
	requireWeights(t, c, snap3)
}

func TestQuantizedTransferFloat32(t *testing.T) {
	env, _ := newTestEnv()
	src := testModel(20)
	dst := testModel(21)
	h, err := NewWeightsHandler(env, HandlerConfig{
		Model:     "m",
		Strategy:  Strategy{Route: RouteGPU, Mode: ModeSync},
		Precision: vformat.PrecFloat32,
		ChunkSize: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	cons, err := NewConsumerOpts(env, "m", ConsumerOptions{Serving: dst})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := h.Save(nn.TakeSnapshot(src), 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Meta.Format != "vchunk" {
		t.Fatalf("format = %q", rep.Meta.Format)
	}
	if _, _, err := pollViaMeta(cons); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	x := tensor.RandNormal(rng, 0, 1, 4, 8)
	if !src.Predict(x).AllClose(dst.Predict(x), 1e-5) {
		t.Fatal("float32 transfer must preserve predictions to ~1e-6")
	}
}

func TestQuantizedHalvesAccountedSize(t *testing.T) {
	const full = 1 << 30
	mk := func(p vformat.Precision) int64 {
		env, _ := newTestEnv()
		h, err := NewWeightsHandler(env, HandlerConfig{
			Model: "m", Strategy: Strategy{Route: RouteGPU, Mode: ModeSync},
			Precision: p, VirtualSize: full, ChunkSize: 64,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := h.Save(nn.TakeSnapshot(testModel(30)), 1, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Meta.Size
	}
	s64 := mk(vformat.PrecFloat64)
	s32 := mk(vformat.PrecFloat32)
	s16 := mk(vformat.PrecFloat16)
	if !(s16 < s32 && s32 < s64) {
		t.Fatalf("accounted sizes %d/%d/%d must shrink with precision", s64, s32, s16)
	}
	if s32 != full/2 || s16 != full/4 {
		t.Fatalf("accounted sizes %d/%d, want exactly half and a quarter of %d", s32, s16, full)
	}
}

// TestHandlerConfigRejectsConflictingModes: precision and the store live
// in the chunked encoding, so asking for one on a whole-file baseline (v1
// at ChunkSize 0, or h5) is a construction error that names the missing
// setting.
func TestHandlerConfigRejectsConflictingModes(t *testing.T) {
	env, _ := newTestEnv()
	store, err := chunkstore.Open(t.TempDir(), chunkstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	memory := Strategy{Route: RouteGPU, Mode: ModeSync}
	for name, cfg := range map[string]HandlerConfig{
		"quantized, unchunked": {Strategy: memory, Precision: vformat.PrecFloat32},
		"store, unchunked":     {Strategy: memory, Store: store},
		"quantized, baseline":  {Strategy: Strategy{Route: RoutePFS, Baseline: true}, Precision: vformat.PrecFloat32, ChunkSize: 64},
		"store, baseline":      {Strategy: Strategy{Route: RoutePFS, Baseline: true}, Store: store, ChunkSize: 64},
	} {
		cfg.Model = "m"
		if _, err := NewWeightsHandler(env, cfg); err == nil || !strings.Contains(err.Error(), "ChunkSize") {
			t.Fatalf("%s: err = %v, want a construction error naming ChunkSize", name, err)
		}
	}
	if _, err := NewWeightsHandler(env, HandlerConfig{
		Model: "m", Strategy: memory, Precision: vformat.Precision(7),
	}); err == nil {
		t.Fatal("unknown precision must be rejected")
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

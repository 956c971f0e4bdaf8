package viper

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"viper/internal/models"
	"viper/internal/nn"
)

// optionsPair builds a producer through the functional-options API and
// a consumer next to it.
func optionsPair(t *testing.T, opts ...Option) (*Producer, *Consumer) {
	t.Helper()
	env := NewEnv(NewVirtualClock())
	prod, err := NewProducer(env, "nt3", opts...)
	if err != nil {
		t.Fatal(err)
	}
	cons, err := NewConsumer(env, "nt3")
	if err != nil {
		t.Fatal(err)
	}
	return prod, cons
}

// TestOptionsDefaultIsChunked: without options, NewProducer ships
// checkpoints through the chunked pipeline.
func TestOptionsDefaultIsChunked(t *testing.T) {
	prod, cons := optionsPair(t)
	sub := cons.Subscribe()
	defer sub.Close()
	m := models.NT3(rand.New(rand.NewSource(1)), 32)
	rep, err := prod.SaveWeights(nn.TakeSnapshot(m), 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Meta.Format != "vchunk" {
		t.Fatalf("default format = %q, want vchunk", rep.Meta.Format)
	}
	if _, err := cons.HandleNotification(<-sub.C); err != nil {
		t.Fatal(err)
	}
	if cons.ActiveVersion() != 1 {
		t.Fatalf("active version = %d", cons.ActiveVersion())
	}
}

// TestOptionsChunkSizeZeroIsMonolithic: WithChunkSize(0) selects the
// simulator's lean v1 reference baseline — and nothing that lives in
// the chunked encoding can be asked of it.
func TestOptionsChunkSizeZeroIsMonolithic(t *testing.T) {
	env := NewEnv(NewVirtualClock())
	for name, opt := range map[string]Option{
		"WithPrecision":  WithPrecision(PrecFloat16),
		"WithTimeTravel": WithTimeTravel(t.TempDir(), 0),
	} {
		if _, err := NewProducer(env, "nt3", WithChunkSize(0), opt); err == nil {
			t.Fatalf("WithChunkSize(0) + %s must be a construction error", name)
		}
	}

	prod, cons := optionsPair(t, WithChunkSize(0))
	sub := cons.Subscribe()
	defer sub.Close()
	m := models.NT3(rand.New(rand.NewSource(2)), 32)
	rep, err := prod.SaveWeights(nn.TakeSnapshot(m), 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Meta.Format != "vformat" {
		t.Fatalf("format = %q, want vformat", rep.Meta.Format)
	}
	if _, err := cons.HandleNotification(<-sub.C); err != nil {
		t.Fatal(err)
	}
}

// TestOptionsCompose: the options land on the handler configuration.
func TestOptionsCompose(t *testing.T) {
	prod, cons := optionsPair(t,
		WithStrategy(Strategy{Route: RouteHost, Mode: ModeSync}),
		WithVirtualSize(1<<30),
		WithFlushHistory(),
		WithChunkSize(2<<10),
		WithParallelism(2),
	)
	sub := cons.Subscribe()
	defer sub.Close()
	m := models.NT3(rand.New(rand.NewSource(3)), 32)
	rep, err := prod.SaveWeights(nn.TakeSnapshot(m), 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Meta.Format != "vchunk" || rep.Meta.Location != RouteHost {
		t.Fatalf("meta = %+v, want vchunk over the host route", rep.Meta)
	}
	if want := int64(1 << 30); rep.Meta.Size != want {
		t.Fatalf("accounted size = %d, want %d", rep.Meta.Size, want)
	}
	if rep.FlushTime <= 0 {
		t.Fatal("WithFlushHistory did not flush the checkpoint")
	}
	if _, err := cons.HandleNotification(<-sub.C); err != nil {
		t.Fatal(err)
	}
}

// TestOptionsPrecision: WithPrecision folds quantization into the chunk
// encoding and shrinks the accounted size with the stride.
func TestOptionsPrecision(t *testing.T) {
	prod, cons := optionsPair(t,
		WithPrecision(PrecFloat32),
		WithVirtualSize(1<<30),
		WithChunkSize(2<<10),
	)
	sub := cons.Subscribe()
	defer sub.Close()
	m := models.NT3(rand.New(rand.NewSource(5)), 32)
	rep, err := prod.SaveWeights(nn.TakeSnapshot(m), 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Meta.Format != "vchunk" {
		t.Fatalf("format = %q, want vchunk", rep.Meta.Format)
	}
	if want := int64(1<<30) / 2; rep.Meta.Size != want {
		t.Fatalf("accounted size = %d, want %d (float32 half)", rep.Meta.Size, want)
	}
	if _, err := cons.HandleNotification(<-sub.C); err != nil {
		t.Fatal(err)
	}
}

// TestSaveWeightsContextCancelled: the public context-aware save
// surfaces cancellation and publishes nothing.
func TestSaveWeightsContextCancelled(t *testing.T) {
	prod, cons := optionsPair(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := models.NT3(rand.New(rand.NewSource(4)), 32)
	if _, err := prod.SaveWeightsContext(ctx, nn.TakeSnapshot(m), 1, 0.5); !errors.Is(err, context.Canceled) {
		t.Fatalf("SaveWeightsContext = %v, want context.Canceled", err)
	}
	if _, err := cons.LatestMeta(); err == nil {
		t.Fatal("metadata published for a cancelled save")
	}
}

// TestConsumerOptionsBaseContext: WithBaseContext bounds the
// context-free API forms — a cancelled base context aborts
// HandleNotification before anything is installed.
func TestConsumerOptionsBaseContext(t *testing.T) {
	env := NewEnv(NewVirtualClock())
	prod, err := NewProducer(env, "nt3")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cons, err := NewConsumer(env, "nt3", WithBaseContext(ctx))
	if err != nil {
		t.Fatal(err)
	}
	sub := cons.Subscribe()
	defer sub.Close()
	m := models.NT3(rand.New(rand.NewSource(13)), 32)
	if _, err := prod.SaveWeights(nn.TakeSnapshot(m), 1, 0.5); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := cons.HandleNotification(<-sub.C); !errors.Is(err, context.Canceled) {
		t.Fatalf("HandleNotification = %v, want context.Canceled", err)
	}
	if cons.ActiveModel() != nil {
		t.Fatal("cancelled load installed a checkpoint")
	}
}

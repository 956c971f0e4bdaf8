package core

import (
	"math/rand"
	"strings"
	"testing"

	"viper/internal/nn"
	"viper/internal/pubsub"
	"viper/internal/vformat"
)

func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestSaveFailsAfterLinkClosed(t *testing.T) {
	env, _ := newTestEnv()
	h, err := NewWeightsHandler(env, HandlerConfig{Model: "m", Strategy: Strategy{Route: RouteGPU, Mode: ModeSync}})
	if err != nil {
		t.Fatal(err)
	}
	env.GPULink.Close()
	if _, err := h.Save(nn.TakeSnapshot(testModel(300)), 1, 0.5); err == nil {
		t.Fatal("save over a closed link must fail")
	}
}

func TestLoadUnknownLocation(t *testing.T) {
	env, _ := newTestEnv()
	cons, err := NewConsumerOpts(env, "m", ConsumerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	meta := &ModelMeta{Name: "m", Version: 1, Location: "tape", Path: "m/v1", Format: "vformat"}
	if _, err := cons.Load(meta); err == nil || !strings.Contains(err.Error(), "unknown checkpoint location") {
		t.Fatalf("err = %v", err)
	}
}

func TestLoadUnknownFormat(t *testing.T) {
	env, _ := newTestEnv()
	if err := env.Cluster.PFS.Write("m/v1", []byte("payload"), 0); err != nil {
		t.Fatal(err)
	}
	cons, err := NewConsumerOpts(env, "m", ConsumerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	meta := &ModelMeta{Name: "m", Version: 1, Location: RoutePFS, Path: "m/v1", Format: "pickle"}
	if _, err := cons.Load(meta); err == nil || !strings.Contains(err.Error(), "unknown checkpoint format") {
		t.Fatalf("err = %v", err)
	}
}

func TestLoadMissingPFSKey(t *testing.T) {
	env, _ := newTestEnv()
	cons, err := NewConsumerOpts(env, "m", ConsumerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	meta := &ModelMeta{Name: "m", Version: 1, Location: RoutePFS, Path: "m/ghost", Format: "vformat"}
	if _, err := cons.Load(meta); err == nil {
		t.Fatal("missing PFS object must error")
	}
}

func TestLoadCorruptPayload(t *testing.T) {
	env, _ := newTestEnv()
	if err := env.Cluster.PFS.Write("m/v1", []byte("not a checkpoint"), 0); err != nil {
		t.Fatal(err)
	}
	cons, err := NewConsumerOpts(env, "m", ConsumerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	meta := &ModelMeta{Name: "m", Version: 1, Location: RoutePFS, Path: "m/v1", Format: "vformat"}
	if _, err := cons.Load(meta); err == nil {
		t.Fatal("corrupt payload must error")
	}
}

func TestHandleNotificationBadPayload(t *testing.T) {
	env, _ := newTestEnv()
	cons, err := NewConsumerOpts(env, "m", ConsumerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cons.HandleNotification(pubsub.Message{Payload: "{broken"}); err == nil {
		t.Fatal("malformed notification must error")
	}
}

func TestRestoreIntoMismatchedServingModel(t *testing.T) {
	env, _ := newTestEnv()
	h, err := NewWeightsHandler(env, HandlerConfig{Model: "m", Strategy: Strategy{Route: RoutePFS}})
	if err != nil {
		t.Fatal(err)
	}
	// Serving model with a different architecture cannot absorb the
	// snapshot: the load must fail loudly rather than half-apply.
	wrong := nn.NewSequential("other", nn.NewDense("other", 3, 3, newRng(1)))
	cons, err := NewConsumerOpts(env, "m", ConsumerOptions{Serving: wrong})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Save(nn.TakeSnapshot(testModel(301)), 1, 0.5); err != nil {
		t.Fatal(err)
	}
	meta, err := cons.LatestMeta()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cons.Load(meta); err == nil || !strings.Contains(err.Error(), "restoring serving model") {
		t.Fatalf("err = %v", err)
	}
}

func TestStaleFrameRejected(t *testing.T) {
	env, _ := newTestEnv()
	h, err := NewWeightsHandler(env, HandlerConfig{Model: "m", Strategy: Strategy{Route: RouteGPU, Mode: ModeSync}})
	if err != nil {
		t.Fatal(err)
	}
	cons, err := NewConsumerOpts(env, "m", ConsumerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Save(nn.TakeSnapshot(testModel(302)), 1, 0.5); err != nil {
		t.Fatal(err)
	}
	// Forge metadata claiming a newer version than any sent frame.
	meta, err := cons.LatestMeta()
	if err != nil {
		t.Fatal(err)
	}
	meta.Version = 9
	meta.Path = CheckpointKey("m", 9)
	if _, err := cons.Load(meta); err == nil || !strings.Contains(err.Error(), "stale frame") {
		t.Fatalf("err = %v", err)
	}
}

func TestDoubleBufferSwapSemantics(t *testing.T) {
	b := NewDoubleBuffer()
	if b.Active() != nil {
		t.Fatal("empty buffer must have nil active")
	}
	if b.Swap() != nil {
		t.Fatal("swap with nothing staged must be a no-op")
	}
	c1 := &vformat.Checkpoint{Version: 1}
	b.Stage(c1)
	if b.Active() != nil {
		t.Fatal("staging must not publish")
	}
	if prev := b.Swap(); prev != nil {
		t.Fatal("first swap returns nil previous")
	}
	if b.Active() != c1 || b.Swaps() != 1 {
		t.Fatalf("after swap: active=%v swaps=%d", b.Active(), b.Swaps())
	}
	// Second stage + swap returns the prior checkpoint.
	c2 := &vformat.Checkpoint{Version: 2}
	b.Stage(c2)
	if prev := b.Swap(); prev != c1 {
		t.Fatalf("swap returned %v, want the prior checkpoint", prev)
	}
	if b.Active() != c2 || b.Swaps() != 2 {
		t.Fatalf("after second swap: active=%v swaps=%d", b.Active(), b.Swaps())
	}
}

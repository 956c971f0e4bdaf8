package core

import (
	"testing"

	"viper/internal/nn"
	"viper/internal/simclock"
	"viper/internal/transport"
)

// TestLoadReplenishesLinkCredits: every frame the consumer drains off a
// windowed link must be re-granted, or a producer publishing more than
// Window versions stalls forever once the unacked count reaches the
// window. Regression test for the recvVia path that consumed frames
// without granting credits back (found by viper-vet's pairbalance
// analyzer).
func TestLoadReplenishesLinkCredits(t *testing.T) {
	clock := simclock.NewVirtual()
	env := NewEnv(clock)
	const window = 2
	env.GPULink = transport.NewLinkWithOptions(transport.GPUDirectSpec, clock, 64,
		transport.LinkOptions{Window: window})
	src := testModel(1)
	h, err := NewWeightsHandler(env, HandlerConfig{Model: "m", Strategy: Strategy{Route: RouteGPU, Mode: ModeSync}})
	if err != nil {
		t.Fatal(err)
	}
	cons, err := NewConsumerOpts(env, "m", ConsumerOptions{Serving: testModel(2)})
	if err != nil {
		t.Fatal(err)
	}
	sub := cons.Subscribe()
	defer sub.Close()
	// One more round than the window: without per-frame grants the
	// credit pool underflows on round 1 (caught by the assertion) and a
	// real producer would stall on round window+1.
	for i := 1; i <= window+1; i++ {
		if _, err := h.Save(nn.TakeSnapshot(src), uint64(i), 0.5); err != nil {
			t.Fatalf("save %d: %v", i, err)
		}
		if _, err := cons.HandleNotification(<-sub.C); err != nil {
			t.Fatalf("load %d: %v", i, err)
		}
		if got := env.GPULink.Credits(); got != window {
			t.Fatalf("after load %d: credits = %d, want %d (frame consumed without Grant)", i, got, window)
		}
	}
}

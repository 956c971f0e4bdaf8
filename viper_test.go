package viper

import (
	"math/rand"
	"testing"
	"time"

	"viper/internal/models"
	"viper/internal/nn"
	"viper/internal/tensor"
)

func TestPublicAPISaveLoadRoundTrip(t *testing.T) {
	clock := NewVirtualClock()
	env := NewEnv(clock)
	rng := rand.New(rand.NewSource(1))
	trainModel := models.NT3(rng, 32)
	serving := models.NT3(rand.New(rand.NewSource(2)), 32)

	prod, err := NewProducer(env, "nt3",
		WithStrategy(Strategy{Route: RouteGPU, Mode: ModeSync}),
	)
	if err != nil {
		t.Fatal(err)
	}
	cons, err := NewConsumer(env, "nt3", WithServing(serving))
	if err != nil {
		t.Fatal(err)
	}
	sub := cons.Subscribe()
	defer sub.Close()

	rep, err := prod.SaveWeights(nn.TakeSnapshot(trainModel), 10, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Meta.Version != 1 || rep.Total <= 0 {
		t.Fatalf("save report = %+v", rep)
	}
	load, err := cons.HandleNotification(<-sub.C)
	if err != nil {
		t.Fatal(err)
	}
	if load == nil || load.Meta.Version != 1 {
		t.Fatalf("load report = %+v", load)
	}
	x := tensor.RandNormal(rng, 0, 1, 2, 32, 1)
	if !trainModel.Predict(x).AllClose(serving.Predict(x), 1e-12) {
		t.Fatal("serving model must match trained weights")
	}
}

func TestPublicSchedules(t *testing.T) {
	fixed := NewFixedSchedule(5, 10)
	if !fixed.ShouldCheckpoint(15, 0) || fixed.ShouldCheckpoint(16, 0) {
		t.Fatal("fixed schedule misfires")
	}
	explicit := NewExplicitSchedule("g", []int{3, 9})
	if !explicit.ShouldCheckpoint(9, 0) || explicit.ShouldCheckpoint(4, 0) {
		t.Fatal("explicit schedule misfires")
	}
	adaptive := NewAdaptiveSchedule(0.1, 0, 1.0)
	if adaptive.ShouldCheckpoint(1, 0.95) {
		t.Fatal("below-threshold improvement must not fire")
	}
	if !adaptive.ShouldCheckpoint(2, 0.7) {
		t.Fatal("above-threshold improvement must fire")
	}
}

func TestPublicPlanningPipeline(t *testing.T) {
	// Warm-up losses from a clean exponential decay.
	xs := make([]float64, 200)
	ys := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = 2.0*expApprox(-0.01*float64(i)) + 0.3
	}
	pred, err := FitPredictor(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if l0, l1 := pred.PredictLoss(0), pred.PredictLoss(500); l1 >= l0 {
		t.Fatalf("predictor must decay: %v -> %v", l0, l1)
	}
	cost := CostModel{
		TTrain: 50 * time.Millisecond,
		TInfer: 5 * time.Millisecond,
		TP:     60 * time.Millisecond,
		TC:     500 * time.Millisecond,
	}
	interval, err := PlanFixedInterval(pred, cost, 200, 1200, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if interval <= 0 || interval > 1000 {
		t.Fatalf("interval = %d", interval)
	}
	threshold := GreedyThreshold(ys)
	sched, err := PlanGreedy(pred, cost, 200, 1200, 10000, threshold)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(sched); i++ {
		if sched[i] <= sched[i-1] {
			t.Fatalf("greedy schedule not increasing: %v", sched)
		}
	}
}

// expApprox avoids importing math in a test about the public facade.
func expApprox(x float64) float64 {
	// 12th-order Taylor is plenty for x in [-2, 0].
	sum, term := 1.0, 1.0
	for i := 1; i <= 12; i++ {
		term *= x / float64(i)
		sum += term
	}
	return sum
}

func TestElapsedHelper(t *testing.T) {
	clock := NewVirtualClock()
	start := clock.Now()
	clock.Advance(3 * time.Second)
	if got := Elapsed(clock, start); got != 3*time.Second {
		t.Fatalf("Elapsed = %v", got)
	}
}

func TestTraceRecorderThroughFacade(t *testing.T) {
	env := NewEnv(NewVirtualClock())
	rec := NewTraceRecorder(0)
	env.Trace = rec
	rng := rand.New(rand.NewSource(50))
	m := models.NT3(rng, 32)
	prod, err := NewProducer(env, "nt3", WithStrategy(Strategy{Route: RouteGPU, Mode: ModeSync}))
	if err != nil {
		t.Fatal(err)
	}
	cons, err := NewConsumer(env, "nt3")
	if err != nil {
		t.Fatal(err)
	}
	sub := cons.Subscribe()
	defer sub.Close()
	if _, err := prod.SaveWeights(nn.TakeSnapshot(m), 1, 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := cons.HandleNotification(<-sub.C); err != nil {
		t.Fatal(err)
	}
	if rec.Len() < 4 { // save + stall + load + swap
		t.Fatalf("trace recorded %d events, want >= 4", rec.Len())
	}
}

package core

import (
	"testing"

	"viper/internal/ipp"
	"viper/internal/nn"
)

func newCallbackFixture(t *testing.T, sched ipp.Schedule) (*CheckpointCallback, *WeightsHandler, *Consumer) {
	t.Helper()
	env, _ := newTestEnv()
	h, err := NewWeightsHandler(env, HandlerConfig{Model: "m", Strategy: Strategy{Route: RouteGPU, Mode: ModeAsync}})
	if err != nil {
		t.Fatal(err)
	}
	cb, err := NewCheckpointCallback(testModel(400), h, sched)
	if err != nil {
		t.Fatal(err)
	}
	cons, err := NewConsumerOpts(env, "m", ConsumerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return cb, h, cons
}

func TestCallbackTriggersOnSchedule(t *testing.T) {
	cb, h, _ := newCallbackFixture(t, ipp.NewFixedEvery(5, 0))
	for iter := 0; iter < 21; iter++ {
		cb.OnIterationEnd(iter, 1.0/float64(iter+1))
	}
	// Fires at 5, 10, 15, 20.
	if got := len(cb.Reports()); got != 4 {
		t.Fatalf("reports = %d, want 4", got)
	}
	if h.Version() != 4 {
		t.Fatalf("handler version = %d", h.Version())
	}
	if got := len(cb.Losses()); got != 21 {
		t.Fatalf("recorded losses = %d, want 21", got)
	}
	if cb.TotalStall() <= 0 {
		t.Fatal("stall must accumulate")
	}
	if len(cb.Errors()) != 0 {
		t.Fatalf("unexpected errors: %v", cb.Errors())
	}
}

func TestCallbackScheduleSwapMidTraining(t *testing.T) {
	cb, _, _ := newCallbackFixture(t, ipp.NewFixedEvery(1000, 0))
	for iter := 0; iter < 10; iter++ {
		cb.OnIterationEnd(iter, 1)
	}
	if len(cb.Reports()) != 0 {
		t.Fatal("sparse schedule must not have fired yet")
	}
	// The IPP finished planning: swap in the dense schedule.
	cb.SetSchedule(ipp.NewFixedEvery(2, 10))
	if cb.Schedule().Name() != "fixed-2" {
		t.Fatalf("active schedule = %q", cb.Schedule().Name())
	}
	for iter := 10; iter < 20; iter++ {
		cb.OnIterationEnd(iter, 1)
	}
	// Fires at 12, 14, 16, 18.
	if got := len(cb.Reports()); got != 4 {
		t.Fatalf("reports after swap = %d, want 4", got)
	}
}

func TestCallbackRecordsSaveErrors(t *testing.T) {
	env, _ := newTestEnv()
	h, err := NewWeightsHandler(env, HandlerConfig{Model: "m", Strategy: Strategy{Route: RouteGPU, Mode: ModeSync}})
	if err != nil {
		t.Fatal(err)
	}
	cb, err := NewCheckpointCallback(testModel(401), h, ipp.NewFixedEvery(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	env.GPULink.Close() // every save will fail on the wire
	cb.OnIterationEnd(1, 0.5)
	cb.OnIterationEnd(2, 0.4)
	if got := len(cb.Errors()); got != 2 {
		t.Fatalf("errors = %d, want 2", got)
	}
	if len(cb.Reports()) != 0 {
		t.Fatal("failed saves must not produce reports")
	}
}

func TestCallbackConstructorValidation(t *testing.T) {
	env, _ := newTestEnv()
	h, err := NewWeightsHandler(env, HandlerConfig{Model: "m", Strategy: Strategy{Route: RoutePFS}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCheckpointCallback(nil, h, ipp.NewFixedEvery(1, 0)); err == nil {
		t.Fatal("nil model must be rejected")
	}
	if _, err := NewCheckpointCallback(testModel(402), nil, ipp.NewFixedEvery(1, 0)); err == nil {
		t.Fatal("nil handler must be rejected")
	}
	if _, err := NewCheckpointCallback(testModel(403), h, nil); err == nil {
		t.Fatal("nil schedule must be rejected")
	}
}

func TestCallbackCheckpointsCarryCurrentWeights(t *testing.T) {
	cb, _, cons := newCallbackFixture(t, ipp.NewFixedEvery(3, 0))
	model := cb.Model.(*nn.Sequential)
	// Mutate weights between triggers so versions differ.
	for iter := 0; iter < 7; iter++ {
		model.Params()[0].Value.Set(float64(iter), 0, 0)
		cb.OnIterationEnd(iter, 1)
	}
	// Triggers at 3 and 6 with marker values 3 and 6.
	if _, ok, err := pollViaMeta(cons); err != nil || !ok {
		t.Fatalf("load: %v %v", ok, err)
	}
	got := cons.ActiveModel()
	if got.Version != 2 {
		t.Fatalf("active version = %d, want the drained newest (2)", got.Version)
	}
	if marker := got.Weights[0].Data[0]; marker != 6 {
		t.Fatalf("weight marker = %v, want 6 (iteration-6 snapshot)", marker)
	}
}

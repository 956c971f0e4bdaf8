package viper

// End-to-end integration tests exercising the public API the way a
// downstream application would: warm-up training, IPP planning,
// fine-tuning with a checkpoint callback, and concurrent serving —
// including the quantized and multi-consumer modes.

import (
	"math/rand"
	"testing"
	"time"

	"viper/internal/dataset"
	"viper/internal/models"
	"viper/internal/nn"
	"viper/internal/train"
)

// pipelineFixture bundles one full producer/consumer deployment.
type pipelineFixture struct {
	env      *Env
	producer *Producer
	consumer *Consumer
	serving  *nn.Sequential
	task     *train.ClassificationTask
	trainer  *train.Trainer
}

func newPipeline(t *testing.T, opts ...Option) *pipelineFixture {
	t.Helper()
	data, err := dataset.SynthesizeClassification(dataset.ClassificationConfig{
		Samples: 96, Length: 32, Classes: models.NT3Classes, Noise: 0.4, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	trainSet, testSet := data.Split(0.25)
	env := NewEnv(NewVirtualClock())
	rng := rand.New(rand.NewSource(2))
	net := models.NT3(rng, 32)
	serving := models.NT3(rand.New(rand.NewSource(3)), 32)
	producer, err := NewProducer(env, "nt3", opts...)
	if err != nil {
		t.Fatal(err)
	}
	consumer, err := NewConsumer(env, "nt3", WithServing(serving))
	if err != nil {
		t.Fatal(err)
	}
	task := &train.ClassificationTask{Net: net, Data: trainSet, Eval: testSet, Opt: nn.NewSGD(0.01, 0.9)}
	return &pipelineFixture{
		env: env, producer: producer, consumer: consumer, serving: serving,
		task:    task,
		trainer: &train.Trainer{Task: task, BatchSize: 8, Seed: 4},
	}
}

// runAndServe fine-tunes with the given schedule and drains every update
// into the serving model, returning the number of applied updates.
func (p *pipelineFixture) runAndServe(t *testing.T, sched Schedule, epochs int) int {
	t.Helper()
	callback, err := p.producer.NewCheckpointCallback(p.task.Net, sched)
	if err != nil {
		t.Fatal(err)
	}
	sub := p.consumer.Subscribe()
	defer sub.Close()
	p.trainer.Callbacks = []train.Callback{callback}
	if _, err := p.trainer.Run(epochs); err != nil {
		t.Fatal(err)
	}
	if errs := callback.Errors(); len(errs) > 0 {
		t.Fatalf("checkpoint errors: %v", errs)
	}
	applied := 0
	for {
		select {
		case msg := <-sub.C:
			rep, err := p.consumer.HandleNotification(msg)
			if err != nil {
				t.Fatal(err)
			}
			if rep != nil {
				applied++
			}
		default:
			return applied
		}
	}
}

func TestPipelineFixedScheduleEndToEnd(t *testing.T) {
	p := newPipeline(t, WithStrategy(Strategy{Route: RouteGPU, Mode: ModeAsync}))
	applied := p.runAndServe(t, NewFixedSchedule(6, 0), 6)
	if applied == 0 {
		t.Fatal("no updates reached the consumer")
	}
	acc := nn.Accuracy(p.serving.Predict(p.task.Eval.X), p.task.Eval.Y)
	if acc < 0.8 {
		t.Fatalf("serving accuracy = %v after %d updates", acc, applied)
	}
}

func TestPipelineChunkedExactEndToEnd(t *testing.T) {
	// Small chunks, so the NT3 stand-in spans many and every update is a
	// real multi-chunk encode and decode.
	p := newPipeline(t, WithStrategy(Strategy{Route: RouteGPU, Mode: ModeSync}), WithChunkSize(1<<10))
	applied := p.runAndServe(t, NewFixedSchedule(4, 0), 6)
	if applied == 0 {
		t.Fatal("no updates reached the consumer")
	}
	// One final explicit save/load pair brings the consumer fully up to
	// date (training continued past the last scheduled checkpoint).
	if _, err := p.producer.SaveWeights(nn.TakeSnapshot(p.task.Net), 999, 0.01); err != nil {
		t.Fatal(err)
	}
	meta, err := p.consumer.LatestMeta()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.consumer.Load(meta); err != nil {
		t.Fatal(err)
	}
	// The consumer's weights must exactly match the producer's.
	prodSnap := nn.TakeSnapshot(p.task.Net)
	consSnap := nn.TakeSnapshot(p.serving)
	for i := range prodSnap {
		for j := range prodSnap[i].Data {
			if prodSnap[i].Data[j] != consSnap[i].Data[j] {
				t.Fatal("consumer weights diverged from the producer's")
			}
		}
	}
}

func TestPipelineQuantizedEndToEnd(t *testing.T) {
	p := newPipeline(t, WithStrategy(Strategy{Route: RouteHost, Mode: ModeAsync}),
		WithPrecision(PrecFloat16))
	applied := p.runAndServe(t, NewFixedSchedule(8, 0), 6)
	if applied == 0 {
		t.Fatal("no updates applied")
	}
	prodAcc := p.task.EvalAccuracy()
	servAcc := nn.Accuracy(p.serving.Predict(p.task.Eval.X), p.task.Eval.Y)
	if servAcc < prodAcc-0.05 {
		t.Fatalf("float16 serving accuracy %v lags producer %v", servAcc, prodAcc)
	}
}

func TestPipelineMultiConsumer(t *testing.T) {
	p := newPipeline(t, WithStrategy(Strategy{Route: RouteGPU, Mode: ModeSync}))
	extraServing := models.NT3(rand.New(rand.NewSource(9)), 32)
	extra, err := NewConsumer(p.env, "nt3", WithExtra(), WithServing(extraServing))
	if err != nil {
		t.Fatal(err)
	}
	extraSub := extra.Subscribe()
	defer extraSub.Close()
	applied := p.runAndServe(t, NewFixedSchedule(10, 0), 4)
	if applied == 0 {
		t.Fatal("primary consumer got no updates")
	}
	extraApplied := 0
	for {
		select {
		case msg := <-extraSub.C:
			rep, err := extra.HandleNotification(msg)
			if err != nil {
				t.Fatal(err)
			}
			if rep != nil {
				extraApplied++
			}
			continue
		default:
		}
		break
	}
	if extraApplied == 0 {
		t.Fatal("extra consumer got no updates")
	}
	// Both serving replicas agree with the producer.
	x := p.task.Eval.X
	if !p.serving.Predict(x).AllClose(extraServing.Predict(x), 1e-12) {
		t.Fatal("consumer replicas diverged")
	}
}

func TestPipelinePlanThenExecute(t *testing.T) {
	// The paper's full loop: warm-up, fit, plan with Algorithm 2, then
	// fine-tune on the planned schedule.
	p := newPipeline(t, WithStrategy(Strategy{Route: RouteGPU, Mode: ModeAsync}))
	rec := &train.LossRecorder{}
	p.trainer.Callbacks = []train.Callback{rec}
	if _, err := p.trainer.Run(2); err != nil {
		t.Fatal(err)
	}
	warm := p.trainer.Iterations()
	xs := make([]float64, warm)
	for i := range xs {
		xs[i] = float64(i)
	}
	pred, err := FitPredictor(xs, rec.Iter)
	if err != nil {
		t.Fatal(err)
	}
	cost := CostModel{TTrain: 40 * time.Millisecond, TInfer: 4 * time.Millisecond,
		TP: 25 * time.Millisecond, TC: 250 * time.Millisecond}
	interval, err := PlanFixedInterval(pred, cost, warm, warm+200, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if interval <= 0 {
		t.Fatalf("planned interval = %d", interval)
	}
	applied := p.runAndServe(t, NewFixedSchedule(interval, warm), 4)
	if applied == 0 {
		t.Fatal("planned schedule shipped no updates")
	}
}

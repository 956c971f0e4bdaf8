// CANDLE-TC1 scenario: coupled training + inference serving with the IPP
// in the loop. The producer trains the TC1 tumor-type classifier; after
// the warm-up it fits the training-loss predictor, searches the
// near-optimal fixed checkpoint interval (Algorithm 2), and fine-tunes
// with that schedule while the consumer serves with every delivered
// update.
//
// Run with:
//
//	go run ./examples/candle_tc1
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"viper"
	"viper/internal/dataset"
	"viper/internal/models"
	"viper/internal/nn"
	"viper/internal/train"
)

func main() {
	const (
		warmupEpochs = 2
		tuneEpochs   = 4
		totalInfers  = 20000
	)
	data, err := dataset.SynthesizeClassification(dataset.ClassificationConfig{
		Samples: 432, Length: 32, Classes: models.TC1Classes, Noise: 0.3, Seed: 11,
	})
	if err != nil {
		log.Fatal(err)
	}
	trainSet, testSet := data.Split(0.2)

	clock := viper.NewVirtualClock()
	env := viper.NewEnv(clock)
	rng := rand.New(rand.NewSource(11))
	net := models.TC1(rng, 32)
	task := &train.ClassificationTask{Net: net, Data: trainSet, Eval: testSet, Opt: nn.NewSGD(0.005, 0.5)}

	producer, err := viper.NewProducer(env, "tc1",
		viper.WithStrategy(viper.Strategy{Route: viper.RouteGPU, Mode: viper.ModeAsync}),
		viper.WithVirtualSize(47<<30/10),
	)
	if err != nil {
		log.Fatal(err)
	}
	serving := models.TC1(rand.New(rand.NewSource(12)), 32)
	consumer, err := viper.NewConsumer(env, "tc1", viper.WithServing(serving))
	if err != nil {
		log.Fatal(err)
	}
	sub := consumer.Subscribe()
	defer sub.Close()

	// Warm-up with loss recording.
	recorder := &train.LossRecorder{}
	trainer := &train.Trainer{Task: task, BatchSize: 2, Seed: 13, Callbacks: []train.Callback{recorder}}
	if _, err := trainer.Run(warmupEpochs); err != nil {
		log.Fatal(err)
	}
	warmIters := trainer.Iterations()
	fmt.Printf("warm-up: %d iterations, eval accuracy %.2f\n", warmIters, task.EvalAccuracy())

	// Fit the TLP on the warm-up losses and plan the fixed interval.
	xs := make([]float64, warmIters)
	for i := range xs {
		xs[i] = float64(i)
	}
	pred, err := viper.FitPredictor(xs, recorder.Iter)
	if err != nil {
		log.Fatal(err)
	}
	cost := viper.CostModel{
		TTrain: 60 * time.Millisecond,
		TInfer: 5 * time.Millisecond,
		TP:     63 * time.Millisecond,  // TC1 d2d capture at 75 GB/s
		TC:     616 * time.Millisecond, // delivery beyond the stall
	}
	endIter := warmIters + tuneEpochs*trainer.IterationsPerEpoch()
	interval, err := viper.PlanFixedInterval(pred, cost, warmIters, endIter, totalInfers)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("IPP: near-optimal fixed interval = %d iterations (epoch = %d)\n",
		interval, trainer.IterationsPerEpoch())

	// Fine-tune with the planned schedule.
	callback, err := producer.NewCheckpointCallback(net, viper.NewFixedSchedule(interval, warmIters))
	if err != nil {
		log.Fatal(err)
	}
	trainer.Callbacks = []train.Callback{callback}
	if _, err := trainer.Run(tuneEpochs); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fine-tuning: %d checkpoints, training stall %v\n",
		len(callback.Reports()), callback.TotalStall())

	// Consumer applies all queued updates; accuracy tracks the producer.
	applied := 0
	for {
		select {
		case msg := <-sub.C:
			if _, err := consumer.HandleNotification(msg); err != nil {
				log.Fatal(err)
			}
			applied++
		default:
			acc := nn.Accuracy(serving.Predict(testSet.X), testSet.Y)
			fmt.Printf("consumer: %d updates applied, serving accuracy %.2f (producer %.2f)\n",
				applied, acc, task.EvalAccuracy())
			fmt.Printf("virtual time elapsed: %v\n", clock.Elapsed())
			return
		}
	}
}

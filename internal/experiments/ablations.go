package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"viper/internal/core"
	"viper/internal/models"
	"viper/internal/nn"
	"viper/internal/simclock"
	"viper/internal/train"
	"viper/internal/vformat"

	ds "viper/internal/dataset"
)

// ---------------------------------------------------------------------
// Ablation 1: push notifications vs fixed-interval polling (§4.4).
// ---------------------------------------------------------------------

// NotifyRow is one row of the push-vs-poll ablation.
type NotifyRow struct {
	// Mechanism labels the discovery method.
	Mechanism string
	// MeanDelay is the average delay between a checkpoint landing and
	// the consumer discovering it.
	MeanDelay time.Duration
	// MaxDelay is the worst observed delay.
	MaxDelay time.Duration
}

// NotifyAblationResult compares model-update discovery latencies.
type NotifyAblationResult struct {
	// Rows contains push plus one row per polling interval.
	Rows []NotifyRow
	// Updates is the number of simulated model updates.
	Updates int
}

// RunNotifyAblation simulates checkpoint publications at random times and
// measures discovery latency under push notifications (immediate) versus
// fixed-interval polling (next tick), the comparison behind the paper's
// "<1 ms notify vs ≥1 ms polling floor" claim.
func RunNotifyAblation(updates int, pollIntervals []time.Duration, seed int64) (*NotifyAblationResult, error) {
	if updates <= 0 {
		return nil, fmt.Errorf("experiments: updates %d must be positive", updates)
	}
	if len(pollIntervals) == 0 {
		pollIntervals = []time.Duration{time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond}
	}
	rng := rand.New(rand.NewSource(seed))
	// Publication times spread over a window.
	times := make([]time.Duration, updates)
	var t time.Duration
	for i := range times {
		t += time.Duration(rng.Intn(200_000)+1) * time.Microsecond
		times[i] = t
	}
	res := &NotifyAblationResult{Updates: updates}
	// Push: delivery is one broker hop — effectively immediate on the
	// simulated timeline (the in-process broker measures ≪1 ms; see
	// pubsub's latency test).
	res.Rows = append(res.Rows, NotifyRow{Mechanism: "push (viper)", MeanDelay: 0, MaxDelay: 0})
	for _, p := range pollIntervals {
		var sum, max time.Duration
		for _, at := range times {
			// Next poll tick at or after the publication.
			next := ((at + p - 1) / p) * p
			delay := next - at
			sum += delay
			if delay > max {
				max = delay
			}
		}
		res.Rows = append(res.Rows, NotifyRow{
			Mechanism: fmt.Sprintf("poll every %v", p),
			MeanDelay: sum / time.Duration(updates),
			MaxDelay:  max,
		})
	}
	return res, nil
}

// Format renders the push-vs-poll table.
func (r *NotifyAblationResult) Format() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Mechanism, row.MeanDelay.String(), row.MaxDelay.String()})
	}
	return fmt.Sprintf("Ablation: model-update discovery latency over %d updates\n", r.Updates) +
		Table([]string{"mechanism", "mean_delay", "max_delay"}, rows)
}

// ---------------------------------------------------------------------
// Ablation 2: quantized transfer precision vs serving accuracy.
// ---------------------------------------------------------------------

// QuantRow is one row of the quantization ablation.
type QuantRow struct {
	// Precision is the wire encoding.
	Precision vformat.Precision
	// Latency is the end-to-end update latency at paper scale.
	Latency time.Duration
	// Accuracy is the consumer's serving accuracy after the transfer.
	Accuracy float64
}

// QuantAblationResult compares wire precisions.
type QuantAblationResult struct {
	// Rows are f64, f32, f16.
	Rows []QuantRow
	// TrainAccuracy is the producer-side accuracy (upper bound).
	TrainAccuracy float64
}

// RunQuantAblation trains TC1 to a useful accuracy, transfers it at each
// precision through the real engine, and measures the consumer's serving
// accuracy and the (virtual-time) update latency.
func RunQuantAblation(seed int64) (*QuantAblationResult, error) {
	data, err := ds.SynthesizeClassification(ds.ClassificationConfig{
		Samples: 144, Length: 32, Classes: models.TC1Classes, Noise: 0.3, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	net := models.TC1(rng, 32)
	task := &train.ClassificationTask{Net: net, Data: data, Eval: data, Opt: nn.NewSGD(0.01, 0.9)}
	tr := &train.Trainer{Task: task, BatchSize: 8, Seed: seed + 1}
	if _, err := tr.Run(10); err != nil {
		return nil, err
	}
	res := &QuantAblationResult{TrainAccuracy: task.EvalAccuracy()}
	snap := nn.TakeSnapshot(net)
	for _, p := range []vformat.Precision{vformat.PrecFloat64, vformat.PrecFloat32, vformat.PrecFloat16} {
		clock := simclock.NewVirtual()
		env := core.NewEnv(clock)
		h, err := core.NewWeightsHandler(env, core.HandlerConfig{
			Model: "tc1", Strategy: core.Strategy{Route: core.RouteGPU, Mode: core.ModeSync},
			Precision: p, VirtualSize: models.SizeTC1,
			ChunkSize: vformat.DefaultChunkBytes,
		})
		if err != nil {
			return nil, err
		}
		serving := models.TC1(rand.New(rand.NewSource(seed+2)), 32)
		cons, err := core.NewConsumerOpts(env, "tc1", core.ConsumerOptions{Serving: serving})
		if err != nil {
			return nil, err
		}
		save, err := h.Save(snap, 1, 0.1)
		if err != nil {
			return nil, err
		}
		meta, err := cons.LatestMeta()
		if err != nil {
			return nil, err
		}
		load, err := cons.Load(meta)
		if err != nil {
			return nil, err
		}
		acc := accuracyOf(serving, data)
		res.Rows = append(res.Rows, QuantRow{
			Precision: p,
			Latency:   save.Total + load.LoadTime,
			Accuracy:  acc,
		})
		env.Close()
	}
	return res, nil
}

func accuracyOf(net *nn.Sequential, data *ds.Classification) float64 {
	return nn.Accuracy(net.Predict(data.X), data.Y)
}

// Format renders the quantization ablation table.
func (r *QuantAblationResult) Format() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Precision.String(),
			fmt.Sprintf("%.3fs", row.Latency.Seconds()),
			fmt.Sprintf("%.3f", row.Accuracy),
		})
	}
	return fmt.Sprintf("Ablation: wire precision (producer accuracy %.3f)\n", r.TrainAccuracy) +
		Table([]string{"precision", "update_latency", "serving_accuracy"}, rows)
}

// ---------------------------------------------------------------------
// Ablation 3: broadcast fan-out cost vs consumer count.
// ---------------------------------------------------------------------

// FanoutRow is one row of the fan-out ablation.
type FanoutRow struct {
	// Consumers is the total consumer count.
	Consumers int
	// SaveTotal is the producer-side end-to-end time for one update.
	SaveTotal time.Duration
}

// FanoutAblationResult reports broadcast cost scaling.
type FanoutAblationResult struct {
	// Rows are ordered by ascending consumer count.
	Rows []FanoutRow
}

// RunFanoutAblation measures the producer's per-update cost as consumers
// are added to the broadcast (the paper's multi-consumer future work).
func RunFanoutAblation(maxConsumers int) (*FanoutAblationResult, error) {
	if maxConsumers < 1 {
		return nil, fmt.Errorf("experiments: maxConsumers %d must be >= 1", maxConsumers)
	}
	snap := SmallSnapshot(77)
	res := &FanoutAblationResult{}
	for n := 1; n <= maxConsumers; n++ {
		clock := simclock.NewVirtual()
		env := core.NewEnv(clock)
		h, err := core.NewWeightsHandler(env, core.HandlerConfig{
			Model: "m", Strategy: core.Strategy{Route: core.RouteGPU, Mode: core.ModeSync},
			VirtualSize: models.SizeTC1,
		})
		if err != nil {
			return nil, err
		}
		for i := 1; i < n; i++ {
			env.AddConsumerLinks()
		}
		rep, err := h.Save(snap, 1, 0.5)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, FanoutRow{Consumers: n, SaveTotal: rep.Total})
		env.Close()
	}
	return res, nil
}

// Format renders the fan-out ablation table.
func (r *FanoutAblationResult) Format() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{fmt.Sprint(row.Consumers), fmt.Sprintf("%.3fs", row.SaveTotal.Seconds())})
	}
	return "Ablation: broadcast save cost vs consumer count (TC1, GPU sync)\n" +
		Table([]string{"consumers", "save_total"}, rows)
}

// Package coupled simulates a full producer/consumer run — training on one
// node, inference serving on the other, checkpoints flowing between them —
// on an exact discrete-event timeline built from the §4.3 timing
// quantities (t_train, t_infer, t_p/stall, delivery). It produces the
// measured Cumulative Inference Loss (CIL), checkpoint counts, and
// training overhead that the paper's Figures 9–10 and Table 1 report.
//
// The timeline arithmetic mirrors the paper's Figure 1: inferences are
// issued at a fixed rate; each is served by the newest model whose
// delivery completed before the request; every checkpoint stalls training
// by the strategy's stall time.
package coupled

import (
	"fmt"
	"sort"
	"time"

	"viper/internal/core"
	"viper/internal/ipp"
	"viper/internal/nn"
	"viper/internal/simclock"
)

// Timing carries the per-strategy timing constants of one coupled run.
type Timing struct {
	// TTrain is the time of one training iteration.
	TTrain time.Duration
	// TInfer is the time of one inference request.
	TInfer time.Duration
	// Stall is how long each checkpoint blocks training (t_p).
	Stall time.Duration
	// Delivery is the end-to-end time from checkpoint trigger until the
	// consumer serves with the new model (capture + transfer + load +
	// swap; ≥ Stall for sync strategies).
	Delivery time.Duration
}

// Validate reports configuration errors.
func (t Timing) Validate() error {
	if t.TTrain <= 0 || t.TInfer <= 0 {
		return fmt.Errorf("coupled: TTrain (%v) and TInfer (%v) must be positive", t.TTrain, t.TInfer)
	}
	if t.Stall < 0 || t.Delivery < 0 {
		return fmt.Errorf("coupled: Stall (%v) and Delivery (%v) must be non-negative", t.Stall, t.Delivery)
	}
	return nil
}

// CostModel converts the timing into the predictor's cost model (the
// delivery beyond the stall plays t_c's role).
func (t Timing) CostModel() ipp.CostModel {
	tc := t.Delivery - t.Stall
	if tc < 0 {
		tc = 0
	}
	return ipp.CostModel{TTrain: t.TTrain, TInfer: t.TInfer, TP: t.Stall, TC: tc}
}

// MeasureTiming runs one real save/load cycle of the given strategy on a
// throwaway virtual environment and extracts (Stall, Delivery) — the
// "measure the current I/O bandwidth" step of §4.3 performed with the
// actual engine code path.
func MeasureTiming(strategy core.Strategy, virtualSize int64, snapshot nn.Snapshot) (stall, delivery time.Duration, err error) {
	clock := simclock.NewVirtual()
	env := core.NewEnv(clock)
	defer env.Close()
	h, err := core.NewWeightsHandler(env, core.HandlerConfig{
		Model: "probe", Strategy: strategy, VirtualSize: virtualSize,
	})
	if err != nil {
		return 0, 0, err
	}
	cons, err := core.NewConsumerOpts(env, "probe", core.ConsumerOptions{})
	if err != nil {
		return 0, 0, err
	}
	save, err := h.Save(snapshot, 0, 1)
	if err != nil {
		return 0, 0, err
	}
	meta, err := cons.LatestMeta()
	if err != nil {
		return 0, 0, err
	}
	load, err := cons.Load(meta)
	if err != nil {
		return 0, 0, err
	}
	return save.Stall, save.Total + load.LoadTime, nil
}

// Config describes one coupled run.
type Config struct {
	// Loss returns the training loss at a global iteration; under the
	// paper's Assumption 2 it is also the inference loss of a checkpoint
	// taken there.
	Loss func(iter int) float64
	// Schedule lists checkpoint iterations (ascending, all > StartIter).
	Schedule []int
	// StartIter is the end of warm-up: training resumes here and the
	// consumer starts serving with the checkpoint taken at StartIter.
	StartIter int
	// TotalInfers is the number of inference requests to serve (M).
	TotalInfers int
	// Timing carries the strategy's timing constants.
	Timing Timing
}

// Result reports one coupled run.
type Result struct {
	// CIL is the cumulative inference loss over TotalInfers requests.
	CIL float64
	// Inferences is the number served (== TotalInfers).
	Inferences int
	// Checkpoints is the number of model updates triggered during the
	// serving window.
	Checkpoints int
	// TrainingOverhead is the total training stall caused by those
	// checkpoints (the orange line of Figure 9).
	TrainingOverhead time.Duration
	// Duration is the serving window length.
	Duration time.Duration
	// FinalServedLoss is the loss of the model serving the last request.
	FinalServedLoss float64
	// UpdatesApplied counts model swaps that happened early enough to
	// serve at least one request.
	UpdatesApplied int
}

// Run executes the coupled simulation.
func Run(cfg Config) (*Result, error) {
	if cfg.Loss == nil {
		return nil, fmt.Errorf("coupled: nil loss function")
	}
	if cfg.TotalInfers <= 0 {
		return nil, fmt.Errorf("coupled: TotalInfers %d must be positive", cfg.TotalInfers)
	}
	if err := cfg.Timing.Validate(); err != nil {
		return nil, err
	}
	sched := append([]int(nil), cfg.Schedule...)
	sort.Ints(sched)
	for _, it := range sched {
		if it <= cfg.StartIter {
			return nil, fmt.Errorf("coupled: scheduled iteration %d not after warm-up end %d", it, cfg.StartIter)
		}
	}

	type update struct {
		avail time.Duration // consumer wall time the model becomes active
		loss  float64
	}
	// Initial model: the warm-up checkpoint, active from t=0.
	updates := make([]update, 0, len(sched)+1)
	updates = append(updates, update{avail: 0, loss: cfg.Loss(cfg.StartIter)})
	// Producer timeline: iteration c completes at
	// (c-Start)*TTrain + (#prior stalls)*Stall.
	for j, c := range sched {
		trigger := time.Duration(c-cfg.StartIter)*cfg.Timing.TTrain + time.Duration(j)*cfg.Timing.Stall
		updates = append(updates, update{avail: trigger + cfg.Timing.Delivery, loss: cfg.Loss(c)})
	}

	duration := time.Duration(cfg.TotalInfers) * cfg.Timing.TInfer
	res := &Result{Inferences: cfg.TotalInfers, Duration: duration}
	cur := 0
	applied := map[int]bool{}
	for k := 0; k < cfg.TotalInfers; k++ {
		t := time.Duration(k) * cfg.Timing.TInfer
		for cur+1 < len(updates) && updates[cur+1].avail <= t {
			cur++
		}
		res.CIL += updates[cur].loss
		if cur > 0 {
			applied[cur] = true
		}
		if k == cfg.TotalInfers-1 {
			res.FinalServedLoss = updates[cur].loss
		}
	}
	res.UpdatesApplied = len(applied)
	// Checkpoints triggered within the serving window and their stalls.
	for j, c := range sched {
		trigger := time.Duration(c-cfg.StartIter)*cfg.Timing.TTrain + time.Duration(j)*cfg.Timing.Stall
		if trigger < duration {
			res.Checkpoints++
		}
	}
	res.TrainingOverhead = time.Duration(res.Checkpoints) * cfg.Timing.Stall
	return res, nil
}

// LossFromHistory builds a loss function from a measured per-iteration
// history anchored at iteration 0; beyond the history it extrapolates
// with the predictor (or holds the final value when pred is nil).
// Negative iterations clamp to the first entry.
func LossFromHistory(history []float64, pred ipp.LossPredictor) (func(iter int) float64, error) {
	if len(history) == 0 {
		return nil, fmt.Errorf("coupled: empty loss history")
	}
	h := append([]float64(nil), history...)
	return func(iter int) float64 {
		if iter < 0 {
			return h[0]
		}
		if iter < len(h) {
			return h[iter]
		}
		if pred != nil {
			return pred.PredictLoss(float64(iter))
		}
		return h[len(h)-1]
	}, nil
}

package core

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"viper/internal/models"
	"viper/internal/nn"
	"viper/internal/simclock"
	"viper/internal/tensor"
	"viper/internal/trace"
)

func testModel(seed int64) *nn.Sequential {
	rng := rand.New(rand.NewSource(seed))
	return nn.NewSequential("m",
		nn.NewDense("d1", 8, 16, rng),
		nn.NewTanh("t"),
		nn.NewDense("d2", 16, 4, rng),
	)
}

func newTestEnv() (*Env, *simclock.Virtual) {
	clock := simclock.NewVirtual()
	return NewEnv(clock), clock
}

// perturb nudges a fraction of the model's weights in place.
func perturb(m nn.Model, rng *rand.Rand, fraction, scale float64) {
	for _, p := range m.Params() {
		d := p.Value.Data()
		for i := range d {
			if rng.Float64() < fraction {
				d[i] += scale * rng.NormFloat64()
			}
		}
	}
}

// pollViaMeta loads the latest metadata directly (bypassing pub/sub).
func pollViaMeta(c *Consumer) (*LoadReport, bool, error) {
	meta, err := c.LatestMeta()
	if err != nil {
		return nil, false, err
	}
	rep, err := c.Load(meta)
	if err != nil {
		return nil, false, err
	}
	return rep, rep != nil, nil
}

func TestStrategyString(t *testing.T) {
	cases := []struct {
		s    Strategy
		want string
	}{
		{Strategy{Route: RoutePFS, Baseline: true}, "baseline-h5"},
		{Strategy{Route: RoutePFS}, "viper-pfs"},
		{Strategy{Route: RouteGPU, Mode: ModeSync}, "viper-sync-gpu"},
		{Strategy{Route: RouteHost, Mode: ModeAsync}, "viper-async-host"},
	}
	for _, c := range cases {
		if got := c.s.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestStrategyValidate(t *testing.T) {
	good := []Strategy{
		{Route: RoutePFS},
		{Route: RoutePFS, Baseline: true},
		{Route: RouteGPU, Mode: ModeSync},
		{Route: RouteHost, Mode: ModeAsync},
	}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("Validate(%v) = %v", s, err)
		}
	}
	bad := []Strategy{
		{Route: "nvme"},
		{Route: RouteGPU, Baseline: true},
		{Route: RouteGPU, Mode: "lazy"},
		{Route: RouteGPU}, // missing mode
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("Validate(%+v) must fail", s)
		}
	}
}

func TestMetaEncodeDecodeRoundTrip(t *testing.T) {
	m := &ModelMeta{
		Name: "tc1", Version: 3, Iteration: 650, TrainLoss: 0.12,
		Location: RouteGPU, Path: "tc1/v00000003", Size: models.SizeTC1,
		Format: "vformat", SavedAt: time.Unix(100, 0),
	}
	s, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMeta(s)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != m.Name || got.Version != m.Version || got.Iteration != m.Iteration ||
		got.TrainLoss != m.TrainLoss || got.Location != m.Location || got.Path != m.Path ||
		got.Size != m.Size || got.Format != m.Format || !got.SavedAt.Equal(m.SavedAt) {
		t.Fatalf("round trip: got %+v, want %+v", got, m)
	}
	if _, err := DecodeMeta("{not json"); err == nil {
		t.Fatal("bad JSON must error")
	}
}

// endToEnd saves once and loads once under the given strategy, returning
// the reports.
func endToEnd(t *testing.T, strat Strategy, virtualSize int64) (*SaveReport, *LoadReport, *Env) {
	t.Helper()
	env, _ := newTestEnv()
	model := testModel(1)
	h, err := NewWeightsHandler(env, HandlerConfig{Model: "m", Strategy: strat, VirtualSize: virtualSize})
	if err != nil {
		t.Fatal(err)
	}
	cons, err := NewConsumerOpts(env, "m", ConsumerOptions{Serving: testModel(2)})
	if err != nil {
		t.Fatal(err)
	}
	sub := cons.Subscribe()
	defer sub.Close()
	save, err := h.Save(nn.TakeSnapshot(model), 42, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	var load *LoadReport
	if strat.Baseline {
		var ok bool
		load, ok, err = cons.Poll()
		if err != nil || !ok {
			t.Fatalf("Poll = %v, %v", ok, err)
		}
	} else {
		select {
		case msg := <-sub.C:
			load, err = cons.HandleNotification(msg)
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("notification not delivered")
		}
	}
	return save, load, env
}

func TestEndToEndAllStrategies(t *testing.T) {
	strategies := []Strategy{
		{Route: RoutePFS, Baseline: true},
		{Route: RoutePFS},
		{Route: RouteHost, Mode: ModeSync},
		{Route: RouteHost, Mode: ModeAsync},
		{Route: RouteGPU, Mode: ModeSync},
		{Route: RouteGPU, Mode: ModeAsync},
	}
	for _, s := range strategies {
		t.Run(s.String(), func(t *testing.T) {
			save, load, _ := endToEnd(t, s, 0)
			if save.Meta.Version != 1 {
				t.Fatalf("version = %d", save.Meta.Version)
			}
			if load.Meta.Version != 1 {
				t.Fatalf("loaded version = %d", load.Meta.Version)
			}
			if save.Total <= 0 || load.LoadTime < 0 {
				t.Fatalf("timings save=%v load=%v", save.Total, load.LoadTime)
			}
		})
	}
}

func TestLoadedWeightsMatchSaved(t *testing.T) {
	env, _ := newTestEnv()
	src := testModel(3)
	dst := testModel(4)
	h, err := NewWeightsHandler(env, HandlerConfig{Model: "m", Strategy: Strategy{Route: RouteGPU, Mode: ModeSync}})
	if err != nil {
		t.Fatal(err)
	}
	cons, err := NewConsumerOpts(env, "m", ConsumerOptions{Serving: dst})
	if err != nil {
		t.Fatal(err)
	}
	sub := cons.Subscribe()
	defer sub.Close()
	if _, err := h.Save(nn.TakeSnapshot(src), 1, 0.9); err != nil {
		t.Fatal(err)
	}
	if _, err := cons.HandleNotification(<-sub.C); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	x := tensor.RandNormal(rng, 0, 1, 5, 8)
	if !src.Predict(x).AllClose(dst.Predict(x), 1e-12) {
		t.Fatal("consumer's serving model must match the producer's weights")
	}
}

func TestBaselineH5RoundTripWeights(t *testing.T) {
	env, _ := newTestEnv()
	src := testModel(5)
	dst := testModel(6)
	h, err := NewWeightsHandler(env, HandlerConfig{Model: "m", Strategy: Strategy{Route: RoutePFS, Baseline: true}})
	if err != nil {
		t.Fatal(err)
	}
	cons, err := NewConsumerOpts(env, "m", ConsumerOptions{Serving: dst})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Save(nn.TakeSnapshot(src), 1, 0.9); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := cons.Poll(); err != nil || !ok {
		t.Fatalf("Poll = %v, %v", ok, err)
	}
	rng := rand.New(rand.NewSource(10))
	x := tensor.RandNormal(rng, 0, 1, 5, 8)
	if !src.Predict(x).AllClose(dst.Predict(x), 1e-12) {
		t.Fatal("h5 baseline must also round-trip weights exactly")
	}
}

func TestLatencyOrderingAcrossStrategies(t *testing.T) {
	// The paper's Figure 8 shape: GPU < host < Viper-PFS < baseline.
	size := int64(models.SizeTC1)
	latency := func(s Strategy) time.Duration {
		save, load, _ := endToEnd(t, s, size)
		return save.Total + load.LoadTime
	}
	baseline := latency(Strategy{Route: RoutePFS, Baseline: true})
	pfs := latency(Strategy{Route: RoutePFS})
	host := latency(Strategy{Route: RouteHost, Mode: ModeSync})
	gpu := latency(Strategy{Route: RouteGPU, Mode: ModeSync})
	if !(gpu < host && host < pfs && pfs < baseline) {
		t.Fatalf("latency ordering gpu=%v host=%v pfs=%v baseline=%v", gpu, host, pfs, baseline)
	}
	if ratio := float64(baseline) / float64(gpu); ratio < 5 {
		t.Fatalf("baseline/gpu ratio = %.1f, want >= 5 (paper: ≈9-15x)", ratio)
	}
	if ratio := float64(baseline) / float64(host); ratio < 2 {
		t.Fatalf("baseline/host ratio = %.1f, want >= 2 (paper: ≈3-4x)", ratio)
	}
	if baseline <= pfs {
		t.Fatal("baseline must be slower than Viper-PFS")
	}
}

func TestAsyncStallsLessThanSync(t *testing.T) {
	size := int64(models.SizeTC1)
	syncSave, _, _ := endToEnd(t, Strategy{Route: RouteGPU, Mode: ModeSync}, size)
	asyncSave, _, _ := endToEnd(t, Strategy{Route: RouteGPU, Mode: ModeAsync}, size)
	if asyncSave.Stall >= syncSave.Stall {
		t.Fatalf("async stall %v must be below sync stall %v", asyncSave.Stall, syncSave.Stall)
	}
	// But async end-to-end is slightly slower (the extra staging copy).
	if asyncSave.Total <= syncSave.Total {
		t.Fatalf("async total %v must exceed sync total %v", asyncSave.Total, syncSave.Total)
	}
}

func TestVersionsIncrement(t *testing.T) {
	env, _ := newTestEnv()
	h, err := NewWeightsHandler(env, HandlerConfig{Model: "m", Strategy: Strategy{Route: RouteGPU, Mode: ModeSync}})
	if err != nil {
		t.Fatal(err)
	}
	model := testModel(7)
	for want := uint64(1); want <= 3; want++ {
		rep, err := h.Save(nn.TakeSnapshot(model), want*10, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Meta.Version != want {
			t.Fatalf("version = %d, want %d", rep.Meta.Version, want)
		}
	}
	if h.Version() != 3 {
		t.Fatalf("Version() = %d", h.Version())
	}
}

func TestConsumerPollSkipsStaleVersions(t *testing.T) {
	env, _ := newTestEnv()
	h, _ := NewWeightsHandler(env, HandlerConfig{Model: "m", Strategy: Strategy{Route: RoutePFS}})
	cons, _ := NewConsumerOpts(env, "m", ConsumerOptions{})
	if _, ok, err := cons.Poll(); err != nil || ok {
		t.Fatalf("Poll before any save = %v, %v", ok, err)
	}
	model := testModel(8)
	if _, err := h.Save(nn.TakeSnapshot(model), 1, 0.5); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := cons.Poll(); !ok {
		t.Fatal("Poll must pick up the new version")
	}
	if _, ok, _ := cons.Poll(); ok {
		t.Fatal("Poll must not reload the same version")
	}
	if cons.ActiveVersion() != 1 {
		t.Fatalf("ActiveVersion = %d", cons.ActiveVersion())
	}
}

func TestFlushHistoryWritesPFS(t *testing.T) {
	env, _ := newTestEnv()
	h, _ := NewWeightsHandler(env, HandlerConfig{
		Model: "m", Strategy: Strategy{Route: RouteGPU, Mode: ModeSync}, FlushHistory: true,
	})
	model := testModel(9)
	rep, err := h.Save(nn.TakeSnapshot(model), 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !env.Cluster.PFS.Has(rep.Meta.Path) {
		t.Fatal("flush-history must land the checkpoint on the PFS")
	}
	if rep.FlushTime <= 0 {
		t.Fatal("flush time must be accounted")
	}
	if h.Stats().FlushedBytes <= 0 {
		t.Fatal("flushed bytes must be counted")
	}
	// The flush must not have stalled training: stall ≪ flush cost.
	if rep.Stall >= rep.FlushTime {
		t.Fatalf("stall %v should be far below PFS flush time %v for a GPU-route save", rep.Stall, rep.FlushTime)
	}
}

func TestGPUCapacityFallbackToHost(t *testing.T) {
	env, _ := newTestEnv()
	h, _ := NewWeightsHandler(env, HandlerConfig{
		Model:       "m",
		Strategy:    Strategy{Route: RouteGPU, Mode: ModeSync},
		VirtualSize: 60 << 30, // exceeds the 40GB A100 tier
	})
	cons, _ := NewConsumerOpts(env, "m", ConsumerOptions{})
	sub := cons.Subscribe()
	defer sub.Close()
	model := testModel(10)
	rep, err := h.Save(nn.TakeSnapshot(model), 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Meta.Location != RouteHost {
		t.Fatalf("location = %q, want fallback to host", rep.Meta.Location)
	}
	if h.Stats().Fallbacks != 1 {
		t.Fatalf("fallbacks = %d, want 1", h.Stats().Fallbacks)
	}
	// The consumer must still be able to load it (via the host link).
	if _, err := cons.HandleNotification(<-sub.C); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryTierKeepsOnlyLatest(t *testing.T) {
	env, _ := newTestEnv()
	h, _ := NewWeightsHandler(env, HandlerConfig{
		Model:       "m",
		Strategy:    Strategy{Route: RouteGPU, Mode: ModeSync},
		VirtualSize: 30 << 30, // two don't fit in 40GB: old one must go
	})
	model := testModel(11)
	if _, err := h.Save(nn.TakeSnapshot(model), 1, 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Save(nn.TakeSnapshot(model), 2, 0.4); err != nil {
		t.Fatal(err)
	}
	gpu := env.Cluster.Producer.GPU
	if gpu.Has(CheckpointKey("m", 1)) {
		t.Fatal("older checkpoint must be evicted from the memory tier")
	}
	if !gpu.Has(CheckpointKey("m", 2)) {
		t.Fatal("latest checkpoint must be buffered")
	}
}

func TestHandlerConfigValidation(t *testing.T) {
	env, _ := newTestEnv()
	if _, err := NewWeightsHandler(nil, HandlerConfig{Model: "m", Strategy: Strategy{Route: RoutePFS}}); err == nil {
		t.Fatal("nil env must be rejected")
	}
	if _, err := NewWeightsHandler(env, HandlerConfig{Strategy: Strategy{Route: RoutePFS}}); err == nil {
		t.Fatal("empty model must be rejected")
	}
	if _, err := NewWeightsHandler(env, HandlerConfig{Model: "m", Strategy: Strategy{Route: "x"}}); err == nil {
		t.Fatal("bad strategy must be rejected")
	}
	if _, err := NewWeightsHandler(env, HandlerConfig{Model: "m", Strategy: Strategy{Route: RoutePFS}, VirtualSize: -1}); err == nil {
		t.Fatal("negative size must be rejected")
	}
	if _, err := NewConsumerOpts(env, "", ConsumerOptions{}); err == nil {
		t.Fatal("empty consumer model must be rejected")
	}
	if _, err := NewConsumerOpts(nil, "m", ConsumerOptions{}); err == nil {
		t.Fatal("nil consumer env must be rejected")
	}
}

func TestBaselineDoesNotNotify(t *testing.T) {
	env, _ := newTestEnv()
	h, _ := NewWeightsHandler(env, HandlerConfig{Model: "m", Strategy: Strategy{Route: RoutePFS, Baseline: true}})
	cons, _ := NewConsumerOpts(env, "m", ConsumerOptions{})
	sub := cons.Subscribe()
	defer sub.Close()
	model := testModel(12)
	if _, err := h.Save(nn.TakeSnapshot(model), 1, 0.5); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-sub.C:
		t.Fatalf("baseline must not push notifications, got %+v", msg)
	case <-time.After(20 * time.Millisecond):
	}
}

func TestCheckpointKeyFormat(t *testing.T) {
	key := CheckpointKey("tc1", 42)
	if !strings.HasPrefix(key, "tc1/v") || !strings.HasSuffix(key, "00000042") {
		t.Fatalf("key = %q", key)
	}
	// Lexicographic order must match version order (eviction relies on it).
	if !(CheckpointKey("m", 9) < CheckpointKey("m", 10)) {
		t.Fatal("checkpoint keys must sort by version")
	}
}

func TestTraceRecordsTimeline(t *testing.T) {
	env, _ := newTestEnv()
	rec := trace.NewRecorder(0)
	env.Trace = rec
	h, _ := NewWeightsHandler(env, HandlerConfig{Model: "m", Strategy: Strategy{Route: RouteGPU, Mode: ModeSync}})
	cons, _ := NewConsumerOpts(env, "m", ConsumerOptions{})
	if _, err := h.Save(nn.TakeSnapshot(testModel(40)), 1, 0.5); err != nil {
		t.Fatal(err)
	}
	if _, _, err := pollViaMeta(cons); err != nil {
		t.Fatal(err)
	}
	s := rec.Summarize()
	for _, kind := range []trace.Kind{"save", "stall", "load", "swap"} {
		if s.Counts[kind] != 1 {
			t.Fatalf("trace %s count = %d, want 1 (summary: %v)", kind, s.Counts[kind], s.Counts)
		}
	}
}

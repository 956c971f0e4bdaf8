package core

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"viper/internal/chunkstore"
	"viper/internal/nn"
	"viper/internal/tensor"
	"viper/internal/trace"
	"viper/internal/vformat"
)

func newTraceRecorder() *trace.Recorder { return trace.NewRecorder(0) }

func traceKind(s string) trace.Kind { return trace.Kind(s) }

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

// incrementalChunk is small enough that the 212-parameter test model
// spans 27 chunks, so a sparse perturbation leaves most of them alone.
const incrementalChunk = 64

// incrementalPair builds a producer/consumer wired for delta transfer.
func incrementalPair(t *testing.T, fullEvery int, virtualSize int64) (*WeightsHandler, *Consumer, *nn.Sequential, *nn.Sequential, *Env) {
	t.Helper()
	env, _ := newTestEnv()
	src := testModel(100)
	dst := testModel(101)
	h, err := NewWeightsHandler(env, HandlerConfig{
		Model:       "m",
		Strategy:    Strategy{Route: RouteGPU, Mode: ModeSync},
		Incremental: true,
		FullEvery:   fullEvery,
		VirtualSize: virtualSize,
		ChunkSize:   incrementalChunk,
	})
	if err != nil {
		t.Fatal(err)
	}
	cons, err := NewConsumerOpts(env, "m", ConsumerOptions{Serving: dst})
	if err != nil {
		t.Fatal(err)
	}
	return h, cons, src, dst, env
}

func TestIncrementalFirstSaveIsFull(t *testing.T) {
	h, cons, src, _, _ := incrementalPair(t, 10, 0)
	rep, err := h.Save(nn.TakeSnapshot(src), 1, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Meta.Format != "vchunk" {
		t.Fatalf("first save format = %q, want full", rep.Meta.Format)
	}
	if _, ok, err := pollViaMeta(cons); err != nil || !ok {
		t.Fatalf("consumer load: %v %v", ok, err)
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

func TestIncrementalDeltaChainRoundTrip(t *testing.T) {
	h, cons, src, dst, _ := incrementalPair(t, 10, 0)
	rng := rand.New(rand.NewSource(7))
	const updates = 5
	for v := 1; v <= updates; v++ {
		if v > 1 {
			perturb(src, rng, 0.05, 0.2) // sparse weight changes
		}
		rep, err := h.Save(nn.TakeSnapshot(src), uint64(v), 0.5)
		if err != nil {
			t.Fatal(err)
		}
		wantFormat := "vrecon"
		if v == 1 {
			wantFormat = "vchunk"
		}
		if rep.Meta.Format != wantFormat {
			t.Fatalf("save %d format = %q, want %q", v, rep.Meta.Format, wantFormat)
		}
		if _, ok, err := pollViaMeta(cons); err != nil || !ok {
			t.Fatalf("load %d: %v %v", v, ok, err)
		}
	}
	// After the chain, the consumer's serving model matches exactly.
	x := tensor.RandNormal(rng, 0, 1, 4, 8)
	if !src.Predict(x).AllClose(dst.Predict(x), 1e-12) {
		t.Fatal("incremental chain must reconstruct the exact weights")
	}
}

func TestIncrementalDeltaSmallerAccountedSize(t *testing.T) {
	const full = 1 << 30
	h, cons, src, _, _ := incrementalPair(t, 10, full)
	rng := rand.New(rand.NewSource(8))
	rep1, err := h.Save(nn.TakeSnapshot(src), 1, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := pollViaMeta(cons); err != nil {
		t.Fatal(err)
	}
	if rep1.Meta.Size != full {
		t.Fatalf("full size = %d, want %d", rep1.Meta.Size, full)
	}
	// A local change: deltas are chunk-granular, so what shrinks the
	// payload is how few chunks moved, not how few elements.
	for i, d := 0, src.Params()[0].Value.Data(); i < 4; i++ {
		d[i] += 0.1 * rng.NormFloat64()
	}
	rep2, err := h.Save(nn.TakeSnapshot(src), 2, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Meta.Format != "vrecon" {
		t.Fatalf("format = %q", rep2.Meta.Format)
	}
	// Chunk-granular: the changed chunks plus the manifest's hash list.
	if rep2.Meta.Size >= full/2 {
		t.Fatalf("delta accounted size %d not much smaller than full %d", rep2.Meta.Size, full)
	}
	// Smaller payload → smaller stall.
	if rep2.Stall >= rep1.Stall {
		t.Fatalf("delta stall %v must be below full stall %v", rep2.Stall, rep1.Stall)
	}
}

func TestIncrementalFullRefreshCadence(t *testing.T) {
	h, cons, src, _, _ := incrementalPair(t, 3, 0)
	rng := rand.New(rand.NewSource(9))
	formats := []string{}
	for v := 1; v <= 7; v++ {
		perturb(src, rng, 0.05, 0.1)
		rep, err := h.Save(nn.TakeSnapshot(src), uint64(v), 0.5)
		if err != nil {
			t.Fatal(err)
		}
		formats = append(formats, rep.Meta.Format)
		if _, _, err := pollViaMeta(cons); err != nil {
			t.Fatal(err)
		}
	}
	// FullEvery=3: versions 1, 4, 7 are full.
	want := []string{"vchunk", "vrecon", "vrecon", "vchunk", "vrecon", "vrecon", "vchunk"}
	if strings.Join(formats, ",") != strings.Join(want, ",") {
		t.Fatalf("formats = %v, want %v", formats, want)
	}
}

func TestIncrementalChainBreakDetected(t *testing.T) {
	h, cons, src, _, env := incrementalPair(t, 100, 0)
	if _, err := h.Save(nn.TakeSnapshot(src), 1, 0.9); err != nil {
		t.Fatal(err)
	}
	if _, _, err := pollViaMeta(cons); err != nil {
		t.Fatal(err)
	}
	// v2 changes the first chunk; its frame is dropped behind the
	// consumer's back.
	params := src.Params()
	params[0].Value.Data()[0] += 0.5
	if _, err := h.Save(nn.TakeSnapshot(src), 2, 0.8); err != nil {
		t.Fatal(err)
	}
	if _, ok := env.GPULink.TryRecv(); !ok {
		t.Fatal("expected v2 frame queued")
	}
	// v3 changes the last chunk only, so its manifest elides v2's first
	// chunk — which this consumer never received.
	last := params[len(params)-1].Value.Data()
	last[len(last)-1] += 0.5
	if _, err := h.Save(nn.TakeSnapshot(src), 3, 0.7); err != nil {
		t.Fatal(err)
	}
	meta, err := cons.LatestMeta()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cons.Load(meta); !errors.Is(err, vformat.ErrMissingChunk) {
		t.Fatalf("err = %v, want ErrMissingChunk for the broken chain", err)
	}
}

func TestQuantizedTransferFloat32(t *testing.T) {
	env, _ := newTestEnv()
	src := testModel(20)
	dst := testModel(21)
	h, err := NewWeightsHandler(env, HandlerConfig{
		Model:     "m",
		Strategy:  Strategy{Route: RouteGPU, Mode: ModeSync},
		Precision: vformat.PrecFloat32,
		ChunkSize: incrementalChunk,
	})
	if err != nil {
		t.Fatal(err)
	}
	cons, err := NewConsumerOpts(env, "m", ConsumerOptions{Serving: dst})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := h.Save(nn.TakeSnapshot(src), 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Meta.Format != "vchunk" {
		t.Fatalf("format = %q", rep.Meta.Format)
	}
	if _, _, err := pollViaMeta(cons); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	x := tensor.RandNormal(rng, 0, 1, 4, 8)
	if !src.Predict(x).AllClose(dst.Predict(x), 1e-5) {
		t.Fatal("float32 transfer must preserve predictions to ~1e-6")
	}
}

func TestQuantizedHalvesAccountedSize(t *testing.T) {
	const full = 1 << 30
	mk := func(p vformat.Precision) int64 {
		env, _ := newTestEnv()
		h, err := NewWeightsHandler(env, HandlerConfig{
			Model: "m", Strategy: Strategy{Route: RouteGPU, Mode: ModeSync},
			Precision: p, VirtualSize: full, ChunkSize: incrementalChunk,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := h.Save(nn.TakeSnapshot(testModel(30)), 1, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Meta.Size
	}
	s64 := mk(vformat.PrecFloat64)
	s32 := mk(vformat.PrecFloat32)
	s16 := mk(vformat.PrecFloat16)
	if !(s16 < s32 && s32 < s64) {
		t.Fatalf("accounted sizes %d/%d/%d must shrink with precision", s64, s32, s16)
	}
	if s32 != full/2 || s16 != full/4 {
		t.Fatalf("accounted sizes %d/%d, want exactly half and a quarter of %d", s32, s16, full)
	}
}

func TestHandlerConfigRejectsConflictingModes(t *testing.T) {
	env, _ := newTestEnv()
	if _, err := NewWeightsHandler(env, HandlerConfig{
		Model: "m", Strategy: Strategy{Route: RouteGPU, Mode: ModeSync},
		Incremental: true, Precision: vformat.PrecFloat16, ChunkSize: incrementalChunk,
	}); err == nil {
		t.Fatal("incremental + quantized must be rejected")
	}
	// Precision, deltas and the store live in the chunked encoding: asking
	// for one on a whole-file baseline (v1 at ChunkSize 0, or h5) is a
	// construction error that names the missing setting.
	store, err := chunkstore.Open(t.TempDir(), chunkstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	memory := Strategy{Route: RouteGPU, Mode: ModeSync}
	for name, cfg := range map[string]HandlerConfig{
		"incremental, unchunked": {Strategy: memory, Incremental: true},
		"quantized, unchunked":   {Strategy: memory, Precision: vformat.PrecFloat32},
		"store, unchunked":       {Strategy: memory, Store: store},
		"quantized, baseline":    {Strategy: Strategy{Route: RoutePFS, Baseline: true}, Precision: vformat.PrecFloat32, ChunkSize: incrementalChunk},
		"store, baseline":        {Strategy: Strategy{Route: RoutePFS, Baseline: true}, Store: store, ChunkSize: incrementalChunk},
	} {
		cfg.Model = "m"
		if _, err := NewWeightsHandler(env, cfg); err == nil || !strings.Contains(err.Error(), "ChunkSize") {
			t.Fatalf("%s: err = %v, want a construction error naming ChunkSize", name, err)
		}
	}
	if _, err := NewWeightsHandler(env, HandlerConfig{
		Model: "m", Strategy: Strategy{Route: RoutePFS, Baseline: true},
		Incremental: true,
	}); err == nil {
		t.Fatal("incremental + baseline must be rejected")
	}
	if _, err := NewWeightsHandler(env, HandlerConfig{
		Model: "m", Strategy: Strategy{Route: RouteGPU, Mode: ModeSync},
		Precision: vformat.Precision(7),
	}); err == nil {
		t.Fatal("unknown precision must be rejected")
	}
	if _, err := NewWeightsHandler(env, HandlerConfig{
		Model: "m", Strategy: Strategy{Route: RouteGPU, Mode: ModeSync},
		Incremental: true, DeltaEps: -0.5, ChunkSize: incrementalChunk,
	}); err == nil {
		t.Fatal("negative delta threshold must be rejected")
	}
}

func TestTraceRecordsTimeline(t *testing.T) {
	env, _ := newTestEnv()
	rec := newTraceRecorder()
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
	for _, kind := range []string{"save", "stall", "load", "swap"} {
		if s.Counts[traceKind(kind)] != 1 {
			t.Fatalf("trace %s count = %d, want 1 (summary: %v)", kind, s.Counts[traceKind(kind)], s.Counts)
		}
	}
}

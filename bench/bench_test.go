package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"viper/internal/vformat"
)

// installOf returns a checkpoint holding a deep copy of the model's
// current snapshot, as a consumer would install it.
func installOf(m *model, version uint64) *vformat.Checkpoint {
	return &vformat.Checkpoint{ModelName: modelName, Version: version, Weights: m.snap.Clone()}
}

// TestVerifyInstallCountsBadInstallsAsFailed feeds the one verification
// function a correct install and three broken ones — a flipped mantissa
// bit, a wrong version, an element outside eps — and checks that exactly
// the broken ones count toward failed_ops_share.
func TestVerifyInstallCountsBadInstallsAsFailed(t *testing.T) {
	sc := scale{elems: numChunks * 64}
	m := newModel(1, sc)

	m.denseStep()
	good := installOf(m, 7)
	flipped := installOf(m, 7)
	flipped.Weights[2].Data[5] = math.Float64frombits(math.Float64bits(flipped.Weights[2].Data[5]) ^ 1)
	stale := installOf(m, 6)

	m.deltaStep(deltaEps)
	if len(m.hot) == 0 {
		t.Fatal("deltaStep moved no element by more than eps")
	}
	suppressed := installOf(m, 8) // every cold element may sit anywhere within eps
	hot := make(map[int]bool, len(m.hot))
	for _, i := range m.hot {
		hot[i] = true
	}
	flat := 0
	for _, w := range suppressed.Weights {
		for i := range w.Data {
			if !hot[flat+i] {
				w.Data[i] += deltaEps / 2
			}
		}
		flat += len(w.Data)
	}
	drifted := installOf(m, 8)
	cold := 0
	for hot[cold] {
		cold++
	}
	drifted.Weights[0].Data[cold] += 2 * deltaEps // tensor 0 starts at flattened index 0
	inexact := installOf(m, 8)
	starts := m.tensorStarts()
	ti := sort.SearchInts(starts, m.hot[0]+1) - 1
	inexact.Weights[ti].Data[m.hot[0]-starts[ti]] += deltaEps / 2

	cases := []struct {
		name    string
		got     *vformat.Checkpoint
		version uint64
		eps     float64
		exact   []int
		bad     bool
	}{
		{"bit-identical install", good, 7, 0, nil, false},
		{"one flipped mantissa bit", flipped, 7, 0, nil, true},
		{"wrong version", stale, 7, 0, nil, true},
		{"no checkpoint", nil, 7, 0, nil, true},
		{"cold elements within eps", suppressed, 8, deltaEps, m.hot, false},
		{"cold element outside eps", drifted, 8, deltaEps, m.hot, true},
		{"super-eps element within eps but not exact", inexact, 8, deltaEps, m.hot, true},
	}
	// The dense cases were cloned before deltaStep moved the snapshot on;
	// verify them against the snapshot they were cloned from.
	denseWant := good.Weights
	var samples []sample
	wantFailed := 0
	for _, c := range cases {
		want := m.snap
		if c.eps == 0 {
			want = denseWant
		}
		err := verifyInstall(want, c.version, c.got, c.eps, c.exact)
		if (err != nil) != c.bad {
			t.Errorf("%s: verifyInstall = %v, want failure %v", c.name, err, c.bad)
		}
		if c.bad {
			wantFailed++
		}
		samples = append(samples, sample{err: err})
	}
	if failed, _ := failures(samples); failed != wantFailed {
		t.Errorf("%d of %d ops counted as failed, want %d", failed, len(samples), wantFailed)
	}
}

func TestCovered(t *testing.T) {
	iv := [][2]int64{{5, 10}, {0, 4}, {8, 20}, {30, 50}}
	if got := covered(iv, 2, 40); got != 2+15+10 {
		t.Errorf("covered = %d, want 27", got)
	}
}

// benchmarkNames reads the metric and workload names BENCHMARK.json
// declares.
func benchmarkNames(t *testing.T) (workloadNames, endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name string `json:"name"`
	}
	var doc struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	names := func(ns []named) []string {
		out := make([]string, len(ns))
		for i, n := range ns {
			out[i] = n.Name
		}
		sort.Strings(out)
		return out
	}
	return names(doc.Workloads), names(doc.EndToEnd), names(doc.PerLayer)
}

// TestSmokeEveryWorkload runs all four workloads untraced and traced at
// -quick scale (1 MiB model, 5 ops), so the harness keeps compiling and
// passing as remote/relay are refactored, and checks that the metrics it
// prints are exactly the ones BENCHMARK.json declares.
func TestSmokeEveryWorkload(t *testing.T) {
	wantWorkloads, wantE2E, wantLayer := benchmarkNames(t)
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	sort.Strings(have)
	if !slices.Equal(have, wantWorkloads) {
		t.Errorf("workloads %v, BENCHMARK.json declares %v", have, wantWorkloads)
	}
	for _, w := range workloads {
		cfg := runConfig{sp: w, sc: quickScale, seed: 1, seconds: 1, dir: t.TempDir(), outDir: t.TempDir()}
		res, err := runUntraced(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Attempted != quickScale.fixedOps || res.Failed != 0 {
			t.Errorf("%s untraced: correct %v, attempted %d, failed %d", w.name, res.Correct, res.Attempted, res.Failed)
		}
		if got := sortedKeys(res.Metrics); !slices.Equal(got, wantE2E) {
			t.Errorf("%s: end-to-end metrics %v, BENCHMARK.json declares %v", w.name, got, wantE2E)
		}
		for name, m := range res.Metrics {
			if !(m.Value > 0) {
				t.Errorf("%s: %s = %v, want > 0", w.name, name, m.Value)
			}
		}

		res, err = runTraced(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s traced: correct %v, failed %d of %d", w.name, res.Correct, res.Failed, res.Attempted)
		}
		if got := sortedKeys(res.Metrics); !slices.Equal(got, wantLayer) {
			t.Errorf("%s: per-layer metrics differ from BENCHMARK.json:\n got %v\nwant %v", w.name, got, wantLayer)
		}
		for _, name := range mustBeZero {
			if v := res.Metrics[name].Value; v > 0 {
				t.Errorf("%s: %s = %v, want 0", w.name, name, v)
			}
		}
		if fi, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+w.name+".jsonl")); err != nil || fi.Size() == 0 {
			t.Errorf("%s: no span file written (%v)", w.name, err)
		}
	}
}

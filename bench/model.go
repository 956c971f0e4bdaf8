package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"viper/internal/nn"
	"viper/internal/vformat"
)

// numChunks is the chunk count of every benchmark model: the chunk size
// is the model size / 64, so the quick (1 MiB) model keeps the "2 of 64
// chunks change" shape of the full (16 MiB) one.
const numChunks = 64

// tensorShares are the leading tensors' shares of the model; the last
// tensor takes the remainder. One tensor holds ~80 % and every size is
// odd, so chunks cross tensor boundaries mid-chunk.
var tensorShares = []float64{0.03, 0.10, 0.80, 0.05, 0.015}

// scale fixes the sizes of one benchmark run.
type scale struct {
	elems     int // fp64 elements in the model
	warmups   int // untimed ops after each set-up
	fixedOps  int // timed ops per window; 0 = run for -seconds
	setups    int // set-ups timed per untraced run (median reported)
	layerReps int // repetitions of each isolated layer timing (min reported)
	seedVers  int // versions seeded into the store on cold_join
}

var (
	fullScale  = scale{elems: 2 << 20, warmups: 5, setups: 7, layerReps: 10, seedVers: 8}
	quickScale = scale{elems: 128 << 10, warmups: 1, fixedOps: 5, setups: 1, layerReps: 2, seedVers: 8}
)

func (sc scale) payloadBytes() int { return sc.elems * 8 }
func (sc scale) chunkBytes() int   { return sc.payloadBytes() / numChunks }
func (sc scale) chunkElems() int   { return sc.elems / numChunks }

// model generates the checkpoint sequence of one workload from a seed.
// The program under test only ever sees snap; the generator mutates it
// in place between publishes (Publish never retains the caller's
// snapshot), which keeps the harness's own CPU inside the timed window
// to one pass over the weights.
type model struct {
	snap nn.Snapshot
	sc   scale
	rng  *rand.Rand
	ver  uint64 // versions generated so far
	// hot lists, ascending, the flattened element indices the latest
	// deltaStep/sparseStep moved by more than eps.
	hot []int
}

func newModel(seed int64, sc scale) *model {
	rng := rand.New(rand.NewSource(seed))
	sizes := make([]int, 0, len(tensorShares)+1)
	left := sc.elems
	for _, share := range tensorShares {
		n := int(share*float64(sc.elems)) | 1
		sizes = append(sizes, n)
		left -= n
	}
	sizes = append(sizes, left)
	snap := make(nn.Snapshot, len(sizes))
	for i, n := range sizes {
		data := make([]float64, n)
		for j := range data {
			data[j] = rng.NormFloat64()
		}
		snap[i] = nn.NamedTensor{Name: fmt.Sprintf("layer%d/w", i), Shape: []int{n}, Data: data}
	}
	return &model{snap: snap, sc: sc, rng: rng}
}

// denseStep changes every element: the next version shares no chunk
// with any earlier one.
func (m *model) denseStep() {
	step := (1 + m.rng.Float64()) / 1024
	for _, t := range m.snap {
		for i := range t.Data {
			t.Data[i] += step
		}
	}
	m.hot = nil
	m.ver++
}

// sparseStep moves a stride of elements in 2 of the 64 chunks by 2–3×
// eps and leaves every other element bit-identical.
func (m *model) sparseStep(eps float64) {
	a := m.rng.Intn(numChunks)
	b := (a + 1 + m.rng.Intn(numChunks-1)) % numChunks
	if a > b {
		a, b = b, a
	}
	const stride = 7
	ce := m.sc.chunkElems()
	m.hot = m.hot[:0]
	for _, c := range []int{a, b} {
		for i := c*ce + m.rng.Intn(stride); i < (c+1)*ce; i += stride {
			m.hot = append(m.hot, i)
		}
	}
	starts := m.tensorStarts()
	for _, flat := range m.hot {
		ti := sort.SearchInts(starts, flat+1) - 1
		jump := (2 + m.rng.Float64()) * eps
		if m.rng.Intn(2) == 0 {
			jump = -jump
		}
		m.snap[ti].Data[flat-starts[ti]] += jump
	}
	m.ver++
}

// deltaStep is the steady-state training step of delta_steady_16m:
// every element drifts by eps/5 (alternating sign, so no element ever
// strays further than that from the value last put on the wire) and 2
// of 64 chunks receive super-eps changes.
func (m *model) deltaStep(eps float64) {
	drift := eps / 5
	if m.ver%2 == 1 {
		drift = -drift
	}
	for _, t := range m.snap {
		for i := range t.Data {
			t.Data[i] += drift
		}
	}
	m.sparseStep(eps)
}

func (m *model) tensorStarts() []int {
	starts := make([]int, len(m.snap))
	off := 0
	for i, t := range m.snap {
		starts[i] = off
		off += len(t.Data)
	}
	return starts
}

// verifyInstall is the one place an op is judged: got must be version
// wantVersion of the published snapshot want. With eps == 0 every
// element must be bit-identical. With eps > 0 (base-suppressed delta
// encoding) every element must lie within eps of the published value
// and the elements listed in exact — flattened indices, ascending, the
// ones the publisher moved by more than eps — must be bit-identical.
func verifyInstall(want nn.Snapshot, wantVersion uint64, got *vformat.Checkpoint, eps float64, exact []int) error {
	if got == nil {
		return fmt.Errorf("no checkpoint installed")
	}
	if got.Version != wantVersion {
		return fmt.Errorf("installed v%d, want v%d", got.Version, wantVersion)
	}
	if len(got.Weights) != len(want) {
		return fmt.Errorf("installed %d tensors, want %d", len(got.Weights), len(want))
	}
	for ti, w := range want {
		g := got.Weights[ti]
		if g.Name != w.Name || len(g.Data) != len(w.Data) {
			return fmt.Errorf("tensor %d is %s[%d], want %s[%d]", ti, g.Name, len(g.Data), w.Name, len(w.Data))
		}
		for i, wv := range w.Data {
			gv := g.Data[i]
			if math.Float64bits(gv) == math.Float64bits(wv) {
				continue
			}
			if d := gv - wv; !(d <= eps && d >= -eps) || eps == 0 { // NaN fails both comparisons
				return fmt.Errorf("%s[%d] = %x, want %x within eps %g", w.Name, i, math.Float64bits(gv), math.Float64bits(wv), eps)
			}
		}
	}
	ti, start := 0, 0
	for _, flat := range exact {
		for flat >= start+len(want[ti].Data) {
			start += len(want[ti].Data)
			ti++
		}
		gv, wv := got.Weights[ti].Data[flat-start], want[ti].Data[flat-start]
		if math.Float64bits(gv) != math.Float64bits(wv) {
			return fmt.Errorf("%s[%d] = %x, want exactly %x", want[ti].Name, flat-start, math.Float64bits(gv), math.Float64bits(wv))
		}
	}
	return nil
}

package metrics

import (
	"encoding/json"
	"math"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry("test")
	c := r.Counter("frames_sent")
	c.Inc()
	c.Add(4)
	c.Add(-10) // monotonic: ignored
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("frames_sent") != c {
		t.Fatal("Counter must return a stable pointer per name")
	}
}

func TestGaugeBasics(t *testing.T) {
	r := NewRegistry("test")
	g := r.Gauge("queue_depth")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var r *Registry // a component with observability disabled
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z")
	c.Inc()
	c.Add(3)
	g.Set(9)
	g.Add(1)
	h.Observe(5)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil instruments must be inert")
	}
	if s := r.Snapshot(); s.Registry != "" || len(s.Points) != 0 {
		t.Fatalf("nil registry snapshot = %+v", s)
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	r := NewRegistry("test")
	h := r.Histogram("send_wait_ns")
	// 99 observations at ~100, one at ~1e6: p50 must sit in the small
	// bucket, p99 must reach past the outlier's bucket lower bound.
	for i := 0; i < 99; i++ {
		h.Observe(100)
	}
	h.Observe(1_000_000)
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 99*100+1_000_000 {
		t.Fatalf("sum = %d", h.Sum())
	}
	p50 := h.Quantile(0.50)
	if p50 < 100 || p50 > 256 {
		t.Fatalf("p50 = %d, want within the [64,128) bucket's upper bound 128 (allowing 2x resolution)", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 100 || p99 > 256 {
		t.Fatalf("p99 = %d: 99 of 100 observations are 100", p99)
	}
	p100 := h.Quantile(1.0)
	if p100 < 1_000_000 {
		t.Fatalf("p100 = %d, must cover the outlier", p100)
	}
	if h.Mean() != float64(99*100+1_000_000)/100 {
		t.Fatalf("mean = %v", h.Mean())
	}
}

func TestHistogramEdgeValues(t *testing.T) {
	var h Histogram
	h.Observe(-5) // clamps to 0
	h.Observe(0)
	h.Observe(1)
	h.Observe(math.MaxInt64)
	if h.Count() != 4 {
		t.Fatalf("count = %d", h.Count())
	}
	if q := h.Quantile(1.0); q != math.MaxInt64 {
		t.Fatalf("top quantile = %d, want MaxInt64 sentinel", q)
	}
	if q := h.Quantile(0.25); q != 2 {
		t.Fatalf("bottom quantile = %d, want bucket-0 upper bound 2", q)
	}
}

func TestEmptyHistogramQuantile(t *testing.T) {
	var h Histogram
	if h.Quantile(0.99) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
}

func TestSnapshotSortedAndJSON(t *testing.T) {
	r := NewRegistry("transport")
	r.Counter("frames_sent").Add(3)
	r.Gauge("credits").Set(8)
	r.Histogram("send_wait_ns").Observe(1000)
	s := r.Snapshot()
	if s.Registry != "transport" || len(s.Points) != 3 {
		t.Fatalf("snapshot = %+v", s)
	}
	for i := 1; i < len(s.Points); i++ {
		if s.Points[i-1].Name >= s.Points[i].Name {
			t.Fatalf("points not sorted: %q before %q", s.Points[i-1].Name, s.Points[i].Name)
		}
	}
	if got := s.Get("frames_sent"); got.Kind != KindCounter || got.Value != 3 {
		t.Fatalf("Get(frames_sent) = %+v", got)
	}
	if got := s.Get("absent"); got.Name != "" {
		t.Fatalf("Get(absent) = %+v", got)
	}
	blob, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Registry != "transport" || back.Get("send_wait_ns").Count != 1 {
		t.Fatalf("JSON round trip = %+v", back)
	}
}

func TestFormatRendersEveryKind(t *testing.T) {
	r := NewRegistry("relay")
	r.Counter("ingest_frames").Add(2)
	r.Histogram("serve_wait_ns").Observe(64)
	out := r.Snapshot().Format()
	for _, want := range []string{"[relay]", "ingest_frames", "serve_wait_ns", "p99="} {
		if !containsStr(out, want) {
			t.Fatalf("Format output missing %q:\n%s", want, out)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestConcurrentRecording hammers one registry from many goroutines
// (run under -race): lookups race with records race with snapshots.
func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry("race")
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			c := r.Counter("ops")
			h := r.Histogram("lat_ns")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(int64(i))
				if i%500 == 0 {
					_ = r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("ops").Value(); got != workers*perWorker {
		t.Fatalf("ops = %d, want %d", got, workers*perWorker)
	}
	if got := r.Histogram("lat_ns").Count(); got != workers*perWorker {
		t.Fatalf("observations = %d, want %d", got, workers*perWorker)
	}
}

// boundStats is a component's exported statistics: two event counts and a
// piece of state the binder leaves alone.
type boundStats struct {
	Sent    int64 `metric:"frames_sent"`
	Open    int   // state, reported from under the component's own lock
	Dropped int64 `metric:"frames_dropped"`
}

type boundCounters struct{ Sent, Dropped Counter }

// TestBindParentsInstanceCountersToTheRegistry: each instance counts its
// own events, the registry the sum of every instance that ever lived, and
// View loads an instance's counters into the tagged fields only.
func TestBindParentsInstanceCountersToTheRegistry(t *testing.T) {
	reg := NewRegistry("bind")
	var a, b boundCounters
	Bind[boundStats](reg, &a)
	Bind[boundStats](reg, &b)
	a.Sent.Inc()
	a.Sent.Add(2)
	b.Sent.Inc()
	b.Dropped.Add(5)
	if got := View[boundStats](&a); got != (boundStats{Sent: 3}) {
		t.Fatalf("a's view = %+v, want its own 3 sends", got)
	}
	if got := View[boundStats](&b); got != (boundStats{Sent: 1, Dropped: 5}) {
		t.Fatalf("b's view = %+v, want its own send and 5 drops", got)
	}
	if s, d := reg.Counter("frames_sent").Value(), reg.Counter("frames_dropped").Value(); s != 4 || d != 5 {
		t.Fatalf("registry counts %d sent, %d dropped; the instances sum to 4 and 5", s, d)
	}
	if n := len(reg.Snapshot().Points); n != 2 {
		t.Fatalf("registry holds %d instruments, want the two the tags name", n)
	}
}

// TestBindRefusesWhatItCannotBind: a tagged field with no counter of its
// name, a counter no tag names, a tag on a non-int64 field and a name off
// the convention each panic at construction.
func TestBindRefusesWhatItCannotBind(t *testing.T) {
	for name, bind := range map[string]func(*Registry){
		"missing counter": func(r *Registry) { Bind[boundStats](r, &struct{ Sent Counter }{}) },
		"extra counter":   func(r *Registry) { Bind[boundStats](r, &struct{ Sent, Dropped, Lost Counter }{}) },
		"misnamed":        func(r *Registry) { Bind[boundStats](r, &struct{ Dropped, Sent Counter }{}) },
		"not an int64": func(r *Registry) {
			Bind[struct {
				Sent int `metric:"frames_sent"`
			}](r, &struct{ Sent Counter }{})
		},
		"bad name": func(r *Registry) {
			Bind[struct {
				Sent int64 `metric:"FramesSent"`
			}](r, &struct{ Sent Counter }{})
		},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("Bind accepted it")
				}
			}()
			bind(NewRegistry("bindbad"))
		})
	}
}

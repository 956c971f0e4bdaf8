// Package metrics is Viper's one statistics surface: stdlib-only
// counters, gauges, and histograms grouped into named registries, with
// lock-free atomic hot paths and JSON-able snapshots.
//
// Every delivery package (transport, relay, remote, chunkstore, pubsub,
// kvstore) owns one package-level Registry and exposes it through a
// Metrics() accessor; cmd/viper-top, the relay's metrics endpoint and the
// debug server render AllSnapshots live. The two speeds are split apart:
//
//   - Recording is an atomic add on a pre-resolved instrument. Instruments
//     are looked up once (in a package init or a constructor); the hot
//     paths never touch a map, a lock or reflection.
//   - Reading walks the registry under its mutex and copies values out,
//     which only monitoring paths pay for.
//
// Instance and registry. A component that reports per-instance Stats (a
// Relay, a Producer, a Link, a Store) owns a struct of Counter values,
// one per event it counts, which Bind parents to the package registry's
// same-named counters: the one statement c.Inc() moves the instance's
// count and the process-wide sum together, so the registry never lags an
// instance, sums every instance that ever lived (Close takes nothing
// back) and needs no flush. The component's Stats() is a view — View
// loads the counters into the exported struct — and a gauge is set where
// the state it reports changes, last writer wins. An event is recorded by
// that one statement and nowhere else: no Stats field written beside an
// instrument, no shadow copy, no counter under a mutex.
//
// Write order. Counters are independent atomics, so a Stats() read is not
// a consistent cut. An event that moves several counters moves the one
// observers wait on last (served_versions after delta_fanouts,
// link_loads after delta_loads, cached_versions after everything commit
// counts): whoever has seen that counter move may assert the others.
//
// Naming convention (DESIGN.md §10): snake_case, <noun>_<unit> for
// counters and gauges (frames_sent, bytes_dropped, cache_bytes),
// <verb>_<unit> histograms carry their unit suffix (send_wait_ns).
// Counters are monotonic; gauges are set/adjusted levels; histograms
// record value distributions into fixed power-of-two buckets.
//
// The package deliberately imports nothing from the repository: like
// simclock it is a leaf every layer may depend on (enforced by the
// layering analyzer), and it holds no clock — callers time their own
// durations and Observe the result, keeping simclockpurity trivial.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing count. The zero value is ready
// to use; one that came from a Registry appears in its snapshots, and one
// that Bind parented to such a counter feeds it with every add.
type Counter struct {
	v      atomic.Int64
	parent *Counter
}

// Add increments the counter by n (negative n is ignored: counters are
// monotonic by contract).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
	if c.parent != nil {
		c.parent.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// validName is the instrument naming rule, ^[a-z][a-z0-9_]*$ (viper-vet's
// metricreg checks the same one where names are written).
func validName(s string) bool {
	for i, c := range s {
		if (c < 'a' || c > 'z') && (i == 0 || c != '_' && (c < '0' || c > '9')) {
			return false
		}
	}
	return s != ""
}

// Bind makes counters — a pointer to a component instance's struct of
// Counter values — feed reg. S is the component's exported Stats struct:
// each of its fields tagged `metric:"name"` must be an int64 and names,
// in order, the field of counters called the same, which is parented to
// reg's counter of that name. Untagged fields of S are state the
// component reports from under its own lock. It panics on a mismatch, so
// a Stats field that nothing counts cannot be declared.
func Bind[S any](reg *Registry, counters any) {
	cs, st := reflect.ValueOf(counters).Elem(), reflect.TypeOf((*S)(nil)).Elem()
	var tagged []int
	for i := 0; i < st.NumField(); i++ {
		f, n := st.Field(i), len(tagged)
		name, ok := f.Tag.Lookup("metric")
		if !ok {
			continue
		}
		if n >= cs.NumField() || cs.Type().Field(n).Name != f.Name || f.Type.Kind() != reflect.Int64 || !validName(name) {
			panic(fmt.Sprintf("metrics: cannot bind %s.%s (metric %q) to counter %d of %s", st, f.Name, name, n, cs.Type()))
		}
		cs.Field(n).Addr().Interface().(*Counter).parent = reg.Counter(name)
		tagged = append(tagged, i)
	}
	if len(tagged) != cs.NumField() {
		panic(fmt.Sprintf("metrics: %s has %d counters, %s tags %d fields", cs.Type(), cs.NumField(), st, len(tagged)))
	}
	taggedFields.Store(st, tagged)
}

// taggedFields maps a Stats type Bind has seen to the indices of its
// tagged fields, so a View reads no tag.
var taggedFields sync.Map

// View loads counters, bound with Bind[S], into the tagged fields of an S.
func View[S any](counters any) S {
	var out S
	cs, ov := reflect.ValueOf(counters).Elem(), reflect.ValueOf(&out).Elem()
	tagged, _ := taggedFields.Load(ov.Type())
	for n, i := range tagged.([]int) {
		ov.Field(i).SetInt(cs.Field(n).Addr().Interface().(*Counter).Value())
	}
	return out
}

// Gauge is an instantaneous level that can move both ways.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adjusts the gauge by n (may be negative).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current level.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the number of power-of-two histogram buckets. Bucket i
// counts observations in [2^i, 2^(i+1)) (bucket 0 additionally catches
// v <= 1); 63 buckets cover the whole non-negative int64 range, so any
// nanosecond duration or byte size fits without configuration.
const histBuckets = 63

// Histogram records a distribution of non-negative int64 observations
// (durations in nanoseconds, sizes in bytes) into fixed power-of-two
// buckets. Observe is a pair of atomic adds; quantiles are estimated
// from the bucket counts at read time.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// bucketOf maps an observation to its bucket index: floor(log2(v)),
// clamped to the table.
func bucketOf(v int64) int {
	if v <= 1 {
		return 0
	}
	b := bits.Len64(uint64(v)) - 1
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// Observe records one value. Negative observations clamp to zero.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketOf(v)].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Quantile estimates the q-quantile (0 <= q <= 1) from the bucket
// counts, returning the upper bound of the bucket holding the target
// rank — an over-estimate by at most 2x, which is the resolution the
// power-of-two buckets buy. Returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := 0; i < histBuckets; i++ {
		seen += h.buckets[i].Load()
		if seen >= rank {
			if i+1 >= 63 {
				return math.MaxInt64
			}
			return int64(1) << uint(i+1)
		}
	}
	return math.MaxInt64
}

// Mean returns the arithmetic mean of the observations (0 when empty).
func (h *Histogram) Mean() float64 {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Kind tags a snapshot point with its instrument type.
type Kind string

// Instrument kinds.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Point is one instrument's state in a Snapshot.
type Point struct {
	// Name is the instrument name within its registry.
	Name string `json:"name"`
	// Kind is the instrument type.
	Kind Kind `json:"kind"`
	// Value is the counter count or gauge level (histograms: 0).
	Value int64 `json:"value,omitempty"`
	// Count/Sum/P50/P99 describe a histogram (other kinds: 0).
	Count int64 `json:"count,omitempty"`
	Sum   int64 `json:"sum,omitempty"`
	P50   int64 `json:"p50,omitempty"`
	P99   int64 `json:"p99,omitempty"`
}

// Snapshot is a registry's state at one instant.
type Snapshot struct {
	// Registry is the registry name.
	Registry string `json:"registry"`
	// Points lists every instrument, sorted by name.
	Points []Point `json:"points"`
}

// Get returns the point with the given name (zero Point when absent).
func (s Snapshot) Get(name string) Point {
	for _, p := range s.Points {
		if p.Name == name {
			return p
		}
	}
	return Point{}
}

// Registry is a named set of instruments. Lookups are get-or-create and
// return stable pointers, so callers resolve instruments once and
// record through the pointer forever after.
type Registry struct {
	name string

	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// all tracks every registry created in the process, so one exporter
// (the relay's metrics endpoint, viper-top) can surface every
// subsystem's instruments without each subsystem registering itself.
var (
	allMu sync.Mutex
	all   []*Registry
)

// NewRegistry creates an empty registry with the given name and records
// it in the process-wide registry list (see AllSnapshots).
func NewRegistry(name string) *Registry {
	r := &Registry{
		name:       name,
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
	allMu.Lock()
	all = append(all, r)
	allMu.Unlock()
	return r
}

// AllSnapshots snapshots every registry in the process, sorted by
// registry name (creation order breaks ties, which cannot happen for
// the package-level registries — each subsystem owns one name).
func AllSnapshots() []Snapshot {
	allMu.Lock()
	regs := append([]*Registry(nil), all...)
	allMu.Unlock()
	snaps := make([]Snapshot, 0, len(regs))
	for _, r := range regs {
		snaps = append(snaps, r.Snapshot())
	}
	sort.SliceStable(snaps, func(i, j int) bool { return snaps[i].Registry < snaps[j].Registry })
	return snaps
}

// Name returns the registry name.
func (r *Registry) Name() string {
	if r == nil {
		return ""
	}
	return r.name
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil instrument, whose methods are no-ops — so a
// component can thread an optional registry without branching at every
// record site.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Snapshot copies every instrument's current state, sorted by name.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	points := make([]Point, 0, len(r.counters)+len(r.gauges)+len(r.histograms))
	for name, c := range r.counters {
		points = append(points, Point{Name: name, Kind: KindCounter, Value: c.Value()})
	}
	for name, g := range r.gauges {
		points = append(points, Point{Name: name, Kind: KindGauge, Value: g.Value()})
	}
	for name, h := range r.histograms {
		points = append(points, Point{
			Name: name, Kind: KindHistogram,
			Count: h.Count(), Sum: h.Sum(),
			P50: h.Quantile(0.50), P99: h.Quantile(0.99),
		})
	}
	r.mu.Unlock()
	sort.Slice(points, func(i, j int) bool { return points[i].Name < points[j].Name })
	return Snapshot{Registry: r.name, Points: points}
}

// Format renders the snapshot as aligned human-readable lines, one per
// instrument (the viper-top text surface).
func (s Snapshot) Format() string {
	out := fmt.Sprintf("[%s]\n", s.Registry)
	for _, p := range s.Points {
		switch p.Kind {
		case KindHistogram:
			out += fmt.Sprintf("  %-28s count=%d sum=%d p50=%d p99=%d\n",
				p.Name, p.Count, p.Sum, p.P50, p.P99)
		default:
			out += fmt.Sprintf("  %-28s %d\n", p.Name, p.Value)
		}
	}
	return out
}

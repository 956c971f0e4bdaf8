package metrics

import "testing"

// The record path is what a TCPLink pays per frame; it must stay a handful
// of nanoseconds (ci.sh smoke-runs these).

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry("bench").Counter("ops")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry("bench").Histogram("lat_ns")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

func BenchmarkCounterIncParallel(b *testing.B) {
	c := NewRegistry("bench").Counter("ops")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkSnapshot(b *testing.B) {
	r := NewRegistry("bench")
	for i := 0; i < 16; i++ {
		r.Counter(string(rune('a' + i))).Inc()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.Snapshot()
	}
}

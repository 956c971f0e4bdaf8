package relay

import (
	"context"
	"fmt"
	"net"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"viper/internal/nn"
	"viper/internal/transport"
	"viper/internal/vformat"
)

// benchSnapshot is a ~16 MiB single-tensor model state: 2M float64
// elements, the scale the fan-out claim is stated at.
func benchSnapshot() nn.Snapshot {
	data := make([]float64, 2<<20)
	for i := range data {
		data[i] = float64(i%977) * 0.001
	}
	return nn.Snapshot{{Name: "w", Shape: []int{2 << 20}, Data: data}}
}

// benchFrames encodes one chunked version into the frame sequence a
// relay-mode producer puts on the wire. The frames alias the encoder's
// pooled blob — callers must finish sending before enc.Release().
func benchFrames(tb testing.TB, version uint64, snap nn.Snapshot) (*vformat.ChunkEncoder, []transport.Frame) {
	tb.Helper()
	ckpt := &vformat.Checkpoint{ModelName: "bench", Version: version, Weights: snap}
	enc, err := vformat.NewChunkEncoder(ckpt, vformat.ChunkOptions{ChunkBytes: 1 << 20})
	if err != nil {
		tb.Fatal(err)
	}
	key := fmt.Sprintf("bench/v%08d", version)
	vtag := strconv.FormatUint(version, 10)
	frames := make([]transport.Frame, 0, enc.NumChunks()+1)
	frames = append(frames, transport.Frame{Key: key, Payload: enc.Header(), Meta: map[string]string{
		"model": "bench", "version": vtag,
		transport.MetaChunkRole:  transport.ChunkRoleHeader,
		transport.MetaChunkCount: strconv.Itoa(enc.NumChunks()),
	}})
	err = enc.EncodeStream(context.Background(), func(idx int, rec []byte) error {
		frames = append(frames, transport.Frame{Key: key, Payload: rec, Meta: map[string]string{
			"model": "bench", "version": vtag,
			transport.MetaChunkRole: transport.ChunkRoleChunk,
		}})
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	return enc, frames
}

// drainConsumer reads raw bytes off conn into the void, counting them,
// until the conn closes. The counter lets the measurement wait (outside
// the timed region) for full delivery without participating in framing.
func drainConsumer(conn net.Conn, counter *int64) {
	buf := make([]byte, 256<<10)
	for {
		n, err := conn.Read(buf)
		atomic.AddInt64(counter, int64(n))
		if err != nil {
			return
		}
	}
}

// waitDelivered blocks (outside the timed region) until every counter
// has grown by at least want bytes since the before snapshot.
func waitDelivered(tb testing.TB, counters []*int64, before []int64, want int64) {
	tb.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for i, c := range counters {
		for atomic.LoadInt64(c)-before[i] < want {
			if time.Now().After(deadline) {
				tb.Fatalf("consumer %d received %d of %d bytes", i, atomic.LoadInt64(c)-before[i], want)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// timePublishes publishes n versions of snap and returns the mean
// producer-side cost of one: the encode plus push putting the frames on
// the wire. The wait for every consumer to hold the version is outside
// the timed region.
func timePublishes(tb testing.TB, n int, snap nn.Snapshot, counters []*int64, push func([]transport.Frame)) time.Duration {
	tb.Helper()
	before := make([]int64, len(counters))
	var timed time.Duration
	for v := 1; v <= n; v++ {
		for i, c := range counters {
			before[i] = atomic.LoadInt64(c)
		}
		start := time.Now()
		enc, frames := benchFrames(tb, uint64(v), snap)
		push(frames)
		timed += time.Since(start)
		waitDelivered(tb, counters, before, int64(enc.EncodedSize()))
		enc.Release()
	}
	return timed / time.Duration(n)
}

// fanOutDirect measures the serial-broadcast baseline: the producer
// encodes once but pushes the full frame sequence over its own NIC once
// per consumer, so the producer-side cost of a publish grows linearly in
// the consumer count.
func fanOutDirect(tb testing.TB, consumers, n int, snap nn.Snapshot) time.Duration {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	defer ln.Close()

	links := make([]*transport.TCPLink, consumers)
	counters := make([]*int64, consumers)
	accepted := make(chan *transport.TCPLink, consumers)
	go func() {
		for i := 0; i < consumers; i++ {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepted <- transport.WrapTCP(c)
		}
	}()
	for i := 0; i < consumers; i++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			tb.Fatal(err)
		}
		defer conn.Close()
		counters[i] = new(int64)
		go drainConsumer(conn, counters[i])
		links[i] = <-accepted
		defer links[i].Close()
	}
	return timePublishes(tb, n, snap, counters, func(frames []transport.Frame) {
		for _, link := range links {
			for _, f := range frames {
				if err := link.Send(f); err != nil {
					tb.Fatal(err)
				}
			}
		}
	})
}

// fanOutRelay measures the relay path: the producer pushes the frame
// sequence to the relay exactly once regardless of consumer count and the
// relay's cache serves every consumer, so the producer-side cost of a
// publish stays ~flat from 1 to 32 consumers (TestGateFanOutFlat).
func fanOutRelay(tb testing.TB, consumers, n int, snap nn.Snapshot) time.Duration {
	tb.Helper()
	r, err := New(Config{IngestAddr: "127.0.0.1:0", ServeAddr: "127.0.0.1:0"})
	if err != nil {
		tb.Fatal(err)
	}
	defer r.Close()

	counters := make([]*int64, consumers)
	for i := 0; i < consumers; i++ {
		conn, err := net.Dial("tcp", r.ServeAddr())
		if err != nil {
			tb.Fatal(err)
		}
		defer conn.Close()
		counters[i] = new(int64)
		go drainConsumer(conn, counters[i])
	}

	up, err := transport.DialTCP(r.IngestAddr())
	if err != nil {
		tb.Fatal(err)
	}
	defer up.Close()
	return timePublishes(tb, n, snap, counters, func(frames []transport.Frame) {
		for _, f := range frames {
			if err := up.Send(f); err != nil {
				tb.Fatal(err)
			}
		}
	})
}

// benchFanOut reports measure's producer-side publish cost as ns/op at 1,
// 8 and 32 consumers.
func benchFanOut(b *testing.B, measure func(tb testing.TB, consumers, n int, snap nn.Snapshot) time.Duration) {
	snap := benchSnapshot()
	for _, consumers := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("consumers=%d", consumers), func(b *testing.B) {
			b.ReportMetric(float64(measure(b, consumers, b.N, snap)), "ns/op")
		})
	}
}

func BenchmarkFanOutDirect(b *testing.B) { benchFanOut(b, fanOutDirect) }
func BenchmarkFanOutRelay(b *testing.B)  { benchFanOut(b, fanOutRelay) }

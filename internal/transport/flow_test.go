package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"viper/internal/memsim"
	"viper/internal/simclock"
)

// mframe builds a frame carrying one whole version of model.
func mframe(model string, version, size int) Frame {
	return Frame{
		Key:     fmt.Sprintf("%s/v%06d", model, version),
		Payload: make([]byte, size),
		Meta:    map[string]string{MetaModel: model},
	}
}

// SendLatest's unit is the frame: on a full queue it evicts every queued
// frame a later frame of the same model supersedes — queued or incoming —
// and nothing else, so each model's newest frame survives another
// model's burst.
func TestSendLatestShedsSupersededFrames(t *testing.T) {
	l := NewLink(LinkSpec{Name: "t"}, simclock.NewVirtual(), 4)
	defer l.Close()
	for _, f := range []Frame{mframe("a", 1, 10), mframe("b", 1, 20), mframe("a", 2, 30), mframe("b", 2, 40)} {
		if err := l.SendLatest(f); err != nil {
			t.Fatal(err)
		}
	}
	// a/v3 supersedes a/v1 and a/v2; b/v1 goes too, superseded by the
	// queued b/v2, which nothing supersedes.
	if err := l.SendLatest(mframe("a", 3, 50)); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"b/v000002", "a/v000003"} {
		if f, ok := l.TryRecv(); !ok || f.Key != want {
			t.Fatalf("drained %+v, want %s", f, want)
		}
	}
	if f, ok := l.TryRecv(); ok {
		t.Fatalf("superseded frame %s survived the shed", f.Key)
	}
	s := l.Stats()
	if s.FramesSent != 5 || s.FramesDropped != 3 {
		t.Fatalf("stats = %+v, want 5 sent / 3 dropped", s)
	}
	if s.BytesSent != 150 || s.BytesDropped != 60 {
		t.Fatalf("byte accounting = sent %d dropped %d, want 150/60", s.BytesSent, s.BytesDropped)
	}
}

// When every queued frame is its model's newest and the incoming frame
// is of yet another model, nothing is superseded: SendLatest blocks like
// Send until the consumer makes room, and drops nothing.
func TestSendLatestBlocksWhenNothingIsSuperseded(t *testing.T) {
	l := NewLink(LinkSpec{Name: "t"}, simclock.NewVirtual(), 2)
	defer l.Close()
	for _, f := range []Frame{mframe("a", 1, 1), mframe("b", 1, 1)} {
		if err := l.SendLatest(f); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- l.SendLatest(mframe("c", 1, 1)) }()
	select {
	case err := <-done:
		t.Fatalf("SendLatest completed on a full queue with nothing to supersede (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	if f, err := l.Recv(); err != nil || f.Key != "a/v000001" {
		t.Fatalf("recv = %+v, %v", f, err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("SendLatest still blocked after the consumer made room")
	}
	if d := l.Stats().FramesDropped; d != 0 {
		t.Fatalf("dropped %d frames, want 0", d)
	}
}

// Regression (accounting bug): evicted frames used to stay counted in
// FramesSent/BytesSent with no dropped-bytes record, so sent-byte stats
// overstated delivery with no way to reconcile. Both invariants must
// hold exactly.
func TestSendLatestByteAccountingReconciles(t *testing.T) {
	l := NewLink(LinkSpec{Name: "t"}, simclock.NewVirtual(), 1)
	defer l.Close()
	if err := l.SendLatest(Frame{Key: "a", Payload: make([]byte, 100)}); err != nil {
		t.Fatal(err)
	}
	if err := l.SendLatest(Frame{Key: "b", Payload: make([]byte, 200)}); err != nil {
		t.Fatal(err)
	}
	f, ok := l.TryRecv()
	if !ok || f.Key != "b" {
		t.Fatalf("drained %+v, want the superseding frame", f)
	}
	s := l.Stats()
	if s.FramesSent != 2 || s.FramesDropped != 1 {
		t.Fatalf("frame accounting = %+v", s)
	}
	if s.BytesSent != 300 || s.BytesDropped != 100 {
		t.Fatalf("byte accounting = sent %d dropped %d, want 300/100", s.BytesSent, s.BytesDropped)
	}
	if delivered := s.BytesSent - s.BytesDropped; delivered != 200 {
		t.Fatalf("delivered bytes = %d, want 200", delivered)
	}
}

// Regression (uninterruptible transfer): the modelled transfer charge
// used to be a bare clock.Sleep, so closing the link left senders stuck
// for the full modelled duration. Close must abort the charge.
func TestCloseInterruptsModeledTransfer(t *testing.T) {
	// 1 B/s: this frame's modelled transfer takes 30s on a clock nobody
	// advances, so only Close can end it.
	spec := LinkSpec{Name: "slow", Model: memsim.BandwidthModel{BytesPerSec: 1}}
	clock := simclock.NewVirtualManual()
	l := NewLink(spec, clock, 1)
	done := make(chan error, 1)
	go func() { done <- l.Send(Frame{Key: "k", Payload: make([]byte, 30)}) }()
	for clock.Pending() != 1 { // the send is inside its modelled transfer
		runtime.Gosched()
	}
	l.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("interrupted Send = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Send stuck in an uninterruptible modelled transfer after Close")
	}
}

// The registry does not lag a link: every instrument moves under the
// link's lock beside the Stats field it mirrors, with no flush and no
// Stats() call in between.
func TestLinkMetricsRecordSendsAndDrops(t *testing.T) {
	get := func(name string) int64 { return Metrics().Snapshot().Get(name).Value }
	sent0, drop0, depth0 := get("link_frames_sent"), get("link_frames_dropped"), get("link_queue_depth")
	l := NewLink(LinkSpec{Name: "t"}, simclock.NewVirtual(), 1)
	defer l.Close()
	for i, send := range []func(Frame) error{l.SendLatest, l.SendLatest, l.SendLatestShared} {
		if err := send(Frame{Key: fmt.Sprintf("f%d", i), Payload: []byte("x")}); err != nil {
			t.Fatal(err)
		}
		if got := get("link_frames_sent") - sent0; got != int64(i+1) {
			t.Fatalf("after send %d: link_frames_sent delta = %d, want %d", i, got, i+1)
		}
		if got := get("link_frames_dropped") - drop0; got != int64(i) {
			t.Fatalf("after send %d: link_frames_dropped delta = %d, want %d", i, got, i)
		}
		if got := get("link_queue_depth") - depth0; got != 1 {
			t.Fatalf("after send %d: link_queue_depth delta = %d, want 1", i, got)
		}
	}
	if _, ok := l.TryRecv(); !ok {
		t.Fatal("no frame queued")
	}
	if got := get("link_queue_depth") - depth0; got != 0 {
		t.Fatalf("after drain: link_queue_depth delta = %d, want 0", got)
	}
}

// Property: two producers, one per model, interleave SendLatest and
// plain Send against a consumer that drains in bursts, at several queue
// depths. At quiescence both Stats invariants hold to the unit, each
// model's keys reached the consumer strictly increasing, each model's
// last frame was delivered (nothing supersedes it), and nobody spun or
// deadlocked (the watchdog; ci.sh reruns this under -race -count=10).
func TestPropLatestWinsQueue(t *testing.T) {
	const versions = 400
	models := []string{"a", "b"}
	for _, depth := range []int{1, 2, 3, 8} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("depth%d/seed%d", depth, seed), func(t *testing.T) {
				l := NewLink(LinkSpec{Name: "t"}, simclock.NewVirtual(), depth)
				var producers sync.WaitGroup
				for i, model := range models {
					producers.Add(1)
					go func(model string, rng *rand.Rand) {
						defer producers.Done()
						for v := 1; v <= versions; v++ {
							send := l.SendLatest
							if rng.Intn(4) == 0 {
								send = l.Send
							}
							if err := send(mframe(model, v, 1+rng.Intn(64))); err != nil {
								t.Errorf("%s/v%d: %v", model, v, err)
								return
							}
						}
					}(model, rand.New(rand.NewSource(seed*10+int64(i))))
				}
				go func() {
					producers.Wait()
					l.Close()
				}()
				watchdog := time.AfterFunc(20*time.Second, func() {
					t.Error("link wedged: producers or consumer still running after 20s")
					l.Close()
				})
				defer watchdog.Stop()

				rng := rand.New(rand.NewSource(seed))
				last := map[string]string{}
				var frames, bytes int64
				for {
					if rng.Intn(3) == 0 {
						runtime.Gosched() // let the queue fill so sends evict or block
					}
					f, err := l.Recv()
					if errors.Is(err, ErrClosed) {
						break
					}
					if err != nil {
						t.Fatal(err)
					}
					model := f.Meta[MetaModel]
					if f.Key <= last[model] {
						t.Fatalf("model %s: %s delivered after %s", model, f.Key, last[model])
					}
					last[model] = f.Key
					frames++
					bytes += int64(len(f.Payload))
				}
				for _, model := range models {
					if want := mframe(model, versions, 0).Key; last[model] != want {
						t.Fatalf("model %s converged to %q, want its last frame %s", model, last[model], want)
					}
				}
				s := l.Stats()
				if s.FramesSent != 2*versions || s.FramesSent != frames+s.FramesDropped {
					t.Fatalf("frames: sent %d, delivered %d + dropped %d, want %d sent", s.FramesSent, frames, s.FramesDropped, 2*versions)
				}
				if s.BytesSent != bytes+s.BytesDropped {
					t.Fatalf("bytes: sent %d != delivered %d + dropped %d", s.BytesSent, bytes, s.BytesDropped)
				}
			})
		}
	}
}

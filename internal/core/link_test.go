package core

import (
	"bytes"
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
func mframe(model string, version, size int) LinkFrame {
	return LinkFrame{
		Key:     fmt.Sprintf("%s/v%06d", model, version),
		Model:   model,
		Payload: make([]byte, size),
	}
}

// freeLink is a link whose transfers cost nothing.
func freeLink(depth int) *Link {
	return NewLink(memsim.BandwidthModel{}, simclock.NewVirtual(), depth)
}

// drain returns the keys of every frame queued on l.
func drain(l *Link) []string {
	var keys []string
	for {
		f, ok := l.TryRecv()
		if !ok {
			return keys
		}
		keys = append(keys, f.Key)
	}
}

// parkedIn reports whether some goroutine is blocked on a sync.Cond inside
// fn — a receiver or sender the link has put to sleep.
func parkedIn(fn string) bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("[sync.Cond.Wait")) && bytes.Contains(g, []byte(fn)) {
			return true
		}
	}
	return false
}

func TestLinkSendRecvRoundTrip(t *testing.T) {
	l := NewLink(gpuDirectModel, simclock.NewVirtual(), 4)
	defer l.Close()
	want := LinkFrame{Key: "tc1/v1", Model: "tc1", Payload: []byte("weights"), Size: 7}
	if err := l.SendLatest(want); err != nil {
		t.Fatal(err)
	}
	got, err := l.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Key != want.Key || got.Model != want.Model || string(got.Payload) != "weights" || got.Size != 7 {
		t.Fatalf("got %+v", got)
	}
}

// The link charges the accounted size, not the payload's: a one-byte
// stand-in for a 2 GiB checkpoint takes 2 s at 1 GiB/s.
func TestLinkChargesVirtualTime(t *testing.T) {
	clock := simclock.NewVirtual()
	l := NewLink(memsim.BandwidthModel{BytesPerSec: float64(1 << 30)}, clock, 4)
	defer l.Close()
	if err := l.SendLatest(LinkFrame{Key: "k", Payload: []byte("x"), Size: 2 << 30}); err != nil {
		t.Fatal(err)
	}
	if got := clock.Elapsed(); got != 2*time.Second {
		t.Fatalf("SendLatest advanced clock by %v, want 2s", got)
	}
	if f, ok := l.TryRecv(); !ok || f.Key != "k" {
		t.Fatalf("TryRecv = %+v, %v", f, ok)
	}
}

func TestLinkTransferTimeOrdering(t *testing.T) {
	size := int64(4 << 30)
	if !(gpuDirectModel.Time(size) < hostIBModel.Time(size)) {
		t.Fatal("GPUDirect must be faster than host IB")
	}
}

func TestLinkCloseUnblocksRecv(t *testing.T) {
	l := freeLink(1)
	done := make(chan error, 1)
	go func() {
		_, err := l.Recv()
		done <- err
	}()
	for !parkedIn("(*Link).Recv") {
		runtime.Gosched()
	}
	l.Close()
	select {
	case err := <-done:
		if !errors.Is(err, errLinkClosed) {
			t.Fatalf("Recv err = %v, want errLinkClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Recv did not unblock on Close")
	}
	if err := l.SendLatest(LinkFrame{Key: "k"}); !errors.Is(err, errLinkClosed) {
		t.Fatalf("SendLatest after close = %v, want errLinkClosed", err)
	}
}

func TestLinkTryRecv(t *testing.T) {
	l := freeLink(2)
	defer l.Close()
	if _, ok := l.TryRecv(); ok {
		t.Fatal("TryRecv on empty link must report false")
	}
	_ = l.SendLatest(LinkFrame{Key: "k"})
	f, ok := l.TryRecv()
	if !ok || f.Key != "k" {
		t.Fatalf("TryRecv = %+v, %v", f, ok)
	}
}

// TestSendLatestSharedAliasesPayload pins the encode-once/send-many
// contract: SendLatest puts the caller's exact payload backing array on
// every link (zero copies — what the handler's broadcast loop relies on).
func TestSendLatestSharedAliasesPayload(t *testing.T) {
	payload := []byte{1, 2, 3, 4}
	f := LinkFrame{Key: "k", Model: "m", Payload: payload}
	for i := 0; i < 2; i++ {
		l := freeLink(4)
		if err := l.SendLatest(f); err != nil {
			t.Fatal(err)
		}
		g, ok := l.TryRecv()
		if !ok {
			t.Fatal("no frame after SendLatest")
		}
		if &g.Payload[0] != &payload[0] {
			t.Fatal("SendLatest copied the payload; every link must alias the caller's array")
		}
		l.Close()
	}
}

// SendLatest's unit is the frame: on a full queue it evicts every queued
// frame a later frame of the same model supersedes — queued or incoming —
// and nothing else, so each model's newest frame survives another
// model's burst.
func TestSendLatestShedsSupersededFrames(t *testing.T) {
	l := freeLink(4)
	defer l.Close()
	for _, f := range []LinkFrame{mframe("a", 1, 10), mframe("b", 1, 20), mframe("a", 2, 30), mframe("b", 2, 40)} {
		if err := l.SendLatest(f); err != nil {
			t.Fatal(err)
		}
	}
	// a/v3 supersedes a/v1 and a/v2; b/v1 goes too, superseded by the
	// queued b/v2, which nothing supersedes.
	if err := l.SendLatest(mframe("a", 3, 50)); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(drain(l)); got != "[b/v000002 a/v000003]" {
		t.Fatalf("drained %s, want only each model's newest frame", got)
	}
}

// When every queued frame is its model's newest and the incoming frame
// is of yet another model, nothing is superseded: SendLatest blocks until
// the consumer makes room, and drops nothing.
func TestSendLatestBlocksWhenNothingIsSuperseded(t *testing.T) {
	l := freeLink(2)
	defer l.Close()
	for _, f := range []LinkFrame{mframe("a", 1, 1), mframe("b", 1, 1)} {
		if err := l.SendLatest(f); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- l.SendLatest(mframe("c", 1, 1)) }()
	for !parkedIn("(*Link).SendLatest") {
		runtime.Gosched()
	}
	select {
	case err := <-done:
		t.Fatalf("SendLatest completed on a full queue with nothing to supersede (err=%v)", err)
	default:
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
	if got := fmt.Sprint(drain(l)); got != "[b/v000001 c/v000001]" {
		t.Fatalf("drained %s after the first frame, want b and c: nothing dropped", got)
	}
}

// Regression (accounting bug): an evicted frame's bytes used to stay
// counted as delivered. What reaches the consumer is the superseding frame
// alone, all of its bytes and none of the evicted one's.
func TestSendLatestByteAccountingReconciles(t *testing.T) {
	l := freeLink(1)
	defer l.Close()
	for _, f := range []LinkFrame{{Key: "a", Payload: make([]byte, 100)}, {Key: "b", Payload: make([]byte, 200)}} {
		if err := l.SendLatest(f); err != nil {
			t.Fatal(err)
		}
	}
	f, ok := l.TryRecv()
	if !ok || f.Key != "b" || len(f.Payload) != 200 {
		t.Fatalf("drained %q (%d bytes), want the superseding frame's 200", f.Key, len(f.Payload))
	}
	if rest := drain(l); len(rest) != 0 {
		t.Fatalf("evicted frames delivered after all: %v", rest)
	}
}

// Regression (uninterruptible transfer): the modelled transfer charge
// used to be a bare clock.Sleep, so closing the link left senders stuck
// for the full modelled duration. Close must abort the charge.
func TestCloseInterruptsModeledTransfer(t *testing.T) {
	// 1 B/s: this frame's modelled transfer takes 30s on a clock nobody
	// advances, so only Close can end it.
	clock := simclock.NewVirtualManual()
	l := NewLink(memsim.BandwidthModel{BytesPerSec: 1}, clock, 1)
	done := make(chan error, 1)
	go func() { done <- l.SendLatest(LinkFrame{Key: "k", Payload: make([]byte, 30), Size: 30}) }()
	for clock.Pending() != 1 { // the send is inside its modelled transfer
		runtime.Gosched()
	}
	l.Close()
	select {
	case err := <-done:
		if !errors.Is(err, errLinkClosed) {
			t.Fatalf("interrupted SendLatest = %v, want errLinkClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("SendLatest stuck in an uninterruptible modelled transfer after Close")
	}
}

// Property: two producers, one per model, send against a consumer that
// drains in bursts, at several queue depths. Every version sent reaches
// the consumer or is superseded by a newer one of its model that does:
// each model's keys arrive strictly increasing, and each model's last
// frame is delivered (nothing supersedes it). Nobody spins or deadlocks
// (the watchdog; ci.sh reruns this under -race through TestInterleavings).
func TestPropLatestWinsQueue(t *testing.T) {
	const versions = 400
	models := []string{"a", "b"}
	for _, depth := range []int{1, 2, 3, 8} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("depth%d/seed%d", depth, seed), func(t *testing.T) {
				l := freeLink(depth)
				var producers sync.WaitGroup
				for i, model := range models {
					producers.Add(1)
					go func(model string, rng *rand.Rand) {
						defer producers.Done()
						for v := 1; v <= versions; v++ {
							if err := l.SendLatest(mframe(model, v, 1+rng.Intn(64))); err != nil {
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
				for {
					if rng.Intn(3) == 0 {
						runtime.Gosched() // let the queue fill so sends evict or block
					}
					f, err := l.Recv()
					if errors.Is(err, errLinkClosed) {
						break
					}
					if err != nil {
						t.Fatal(err)
					}
					if f.Key <= last[f.Model] {
						t.Fatalf("model %s: %s delivered after %s", f.Model, f.Key, last[f.Model])
					}
					last[f.Model] = f.Key
				}
				for _, model := range models {
					if want := mframe(model, versions, 0).Key; last[model] != want {
						t.Fatalf("model %s converged to %q, want its last frame %s", model, last[model], want)
					}
				}
			})
		}
	}
}

// Regression for the SendLatest busy-spin: with a racing consumer
// draining the queue between the producer's send attempt and its
// eviction attempt, the old implementation looped through two
// non-blocking selects with no yield. The rewritten loop blocks in its
// retry arm, so this adversarial interleaving must terminate promptly,
// every frame delivered at most once and in order, and the final frame
// always delivered last.
func TestSendLatestRacingConsumerTerminatesWithExactAccounting(t *testing.T) {
	l := freeLink(2)
	defer l.Close()
	const n = 5000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			if err := l.SendLatest(LinkFrame{Key: fmt.Sprintf("f%06d", i), Payload: make([]byte, 8+i%13)}); err != nil {
				t.Errorf("SendLatest %d: %v", i, err)
				return
			}
		}
	}()
	// Drain concurrently and adversarially: sometimes immediately,
	// sometimes after letting the queue fill.
	last := ""
	take := func() bool {
		f, ok := l.TryRecv()
		if ok {
			if f.Key <= last {
				t.Fatalf("%s delivered after %s", f.Key, last)
			}
			last = f.Key
		}
		return ok
	}
	for {
		if take() {
			continue
		}
		select {
		case <-done:
			for take() { // the producer finished; drain the residue
			}
			// The newest frame can never be evicted (nothing supersedes
			// it), so the consumer's last observation is the final send.
			if want := fmt.Sprintf("f%06d", n-1); last != want {
				t.Fatalf("last frame = %q, want %q", last, want)
			}
			return
		default:
		}
	}
}

func TestSendLatestBlocksInsteadOfSpinningWhenEvictRaces(t *testing.T) {
	l := freeLink(1)
	defer l.Close()
	if err := l.SendLatest(LinkFrame{Key: "old"}); err != nil {
		t.Fatal(err)
	}
	// Queue full. SendLatest must complete by evicting the oldest even
	// with no consumer at all.
	doneA := make(chan error, 1)
	go func() { doneA <- l.SendLatest(LinkFrame{Key: "new"}) }()
	select {
	case err := <-doneA:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("SendLatest stuck on a full queue")
	}
	if got := fmt.Sprint(drain(l)); got != "[new]" {
		t.Fatalf("queue holds %s, want only the superseding frame", got)
	}
}

// Close/teardown races: concurrent Close against SendLatest and Recv must
// neither deadlock nor corrupt state (run under -race).
func TestLinkCloseRaces(t *testing.T) {
	for round := 0; round < 50; round++ {
		l := freeLink(1)
		var wg sync.WaitGroup
		for _, model := range []string{"a", "b"} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					if err := l.SendLatest(LinkFrame{Key: "s", Model: model}); err != nil {
						return
					}
				}
			}()
		}
		wg.Add(2)
		go func() {
			defer wg.Done()
			for {
				if _, err := l.Recv(); err != nil {
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			l.Close()
		}()
		doneCh := make(chan struct{})
		go func() { wg.Wait(); close(doneCh) }()
		select {
		case <-doneCh:
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: close race deadlocked", round)
		}
		if err := l.SendLatest(LinkFrame{Key: "after"}); !errors.Is(err, errLinkClosed) {
			t.Fatalf("SendLatest after close = %v", err)
		}
	}
}

package remote

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"viper/internal/nn"
)

// startPairBase wires a producer/consumer pair whose lifecycle contexts
// both derive from base.
func startPairBase(t *testing.T, base context.Context) (*Producer, *Consumer) {
	t.Helper()
	metaAddr, notifyAddr := testServices(t)
	linkAddr := make(chan string, 1)
	var prod *Producer
	var prodErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		prod, prodErr = NewProducer(ProducerConfig{
			Model: "m", MetaAddr: metaAddr, NotifyAddr: notifyAddr,
			ListenAddr: "127.0.0.1:0", OnListen: func(a string) { linkAddr <- a },
			BaseContext: base,
		})
	}()
	cons, err := NewConsumer(ConsumerConfig{
		Model: "m", MetaAddr: metaAddr, NotifyAddr: notifyAddr,
		ProducerAddr: <-linkAddr, BaseContext: base,
	})
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if prodErr != nil {
		t.Fatal(prodErr)
	}
	t.Cleanup(func() { prod.Close(); cons.Close() })
	return prod, cons
}

// TestBaseContextCancelAbortsPublish: cancelling the configured
// BaseContext makes the context-free Publish shim abort (it now runs
// under the producer's lifecycle context rather than a fresh
// context.Background()) and nothing is announced.
func TestBaseContextCancelAbortsPublish(t *testing.T) {
	base, cancel := context.WithCancel(context.Background())
	prod, cons := startPairBase(t, base)
	cancel()
	if _, err := prod.Publish(nn.TakeSnapshot(testModel(71)), 1, 0.5); !errors.Is(err, context.Canceled) {
		t.Fatalf("Publish after base cancel = %v, want context.Canceled", err)
	}
	if _, err := cons.LatestMeta(); err == nil {
		t.Fatal("metadata was published by a cancelled producer")
	}
}

// TestBaseContextCancelUnblocksNext: a consumer parked in the
// context-free Next wakes up when the configured BaseContext is
// cancelled instead of sleeping out its full timeout.
func TestBaseContextCancelUnblocksNext(t *testing.T) {
	base, cancel := context.WithCancel(context.Background())
	s := startScriptWith(t, func(cfg *ConsumerConfig) { cfg.BaseContext = base })
	res := s.next() // returns once Next has armed its timeout: it is waiting
	cancel()
	select {
	case r := <-res:
		if !errors.Is(r.err, context.Canceled) {
			t.Fatalf("Next after base cancel = %v, want context.Canceled", r.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Next did not unblock on base-context cancel")
	}
}

// TestCloseCancelsLifecycleContext: Close cancels the lifecycle
// context, so a later context-free Publish fails with
// context.Canceled (checked before any network activity) instead of
// publishing through half-torn-down connections.
func TestCloseCancelsLifecycleContext(t *testing.T) {
	prod, _ := startPairBase(t, nil)
	prod.Close()
	if _, err := prod.Publish(nn.TakeSnapshot(testModel(72)), 1, 0.5); !errors.Is(err, context.Canceled) {
		t.Fatalf("Publish after Close = %v, want context.Canceled", err)
	}
}

// TestConsumerCloseConcurrent: Close must be idempotent under
// concurrency. The original guard — a non-blocking receive on c.closed
// before close(c.closed) — let two goroutines both take the default
// branch and double-close (TOCTOU, found by viper-vet's chanlife
// analyzer); sync.Once makes the close race-free.
func TestConsumerCloseConcurrent(t *testing.T) {
	_, cons := startPairBase(t, context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cons.Close()
		}()
	}
	wg.Wait()
}

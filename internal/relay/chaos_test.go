package relay

import (
	"net"
	"sync"
	"testing"
	"time"

	"viper/internal/faults"
	"viper/internal/nn"
	"viper/internal/remote"
)

// converge drains c.Next until it installs target, reporting an error
// if the deadline passes first. Every installed checkpoint must be
// byte-identical to what the producer published. It reports through
// t.Errorf and its result, so it may run off the test goroutine.
func converge(t *testing.T, c *remote.Consumer, published map[uint64]nn.Snapshot, target uint64, deadline time.Duration) bool {
	t.Helper()
	stop := time.Now().Add(deadline)
	var last uint64
	for last < target {
		ckpt, err := c.Next(2 * time.Second)
		if err != nil {
			if time.Now().After(stop) {
				t.Errorf("stuck at v%d: %v (stats %+v)", last, err, c.Stats())
				return false
			}
			continue
		}
		want, ok := published[ckpt.Version]
		if !ok {
			t.Errorf("installed never-published v%d", ckpt.Version)
			return false
		}
		if !snapshotsEqual(ckpt.Weights, want) {
			t.Errorf("v%d corrupted in flight", ckpt.Version)
			return false
		}
		last = ckpt.Version
	}
	return true
}

// TestChaosRelayKillMidFanout kills the relay while versions are still
// flowing. The producer's own staging + notification path is untouched
// by relay mode, so every consumer must still converge — backfilling
// from the KV staging area once the relay is gone.
func TestChaosRelayKillMidFanout(t *testing.T) {
	metaAddr, notifyAddr := testServices(t)
	r, err := New(Config{
		IngestAddr: "127.0.0.1:0", ServeAddr: "127.0.0.1:0",
		MetaAddr: metaAddr, NotifyAddr: notifyAddr, Retry: quickPolicy(11),
	})
	if err != nil {
		t.Fatal(err)
	}
	relayClosed := false
	defer func() {
		if !relayClosed {
			closeChecked(t, r)
		}
	}()

	prod, err := remote.NewProducer(remote.ProducerConfig{
		Model: "m", MetaAddr: metaAddr, NotifyAddr: notifyAddr,
		RelayAddr: r.IngestAddr(), Retry: quickPolicy(12), ChunkSize: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer prod.Close()

	const nConsumers = 4
	consumers := make([]*remote.Consumer, nConsumers)
	for i := range consumers {
		c, err := remote.NewConsumer(remote.ConsumerConfig{
			Model: "m", MetaAddr: metaAddr, NotifyAddr: notifyAddr,
			ProducerAddr: r.ServeAddr(), Retry: quickPolicy(int64(20 + i)),
			LinkWait: 200 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("consumer %d: %v", i, err)
		}
		defer c.Close()
		consumers[i] = c
	}

	published := make(map[uint64]nn.Snapshot)
	publish := func(v int) {
		snap := nn.TakeSnapshot(testModel(int64(200 + v)))
		meta, err := prod.Publish(snap, uint64(v*10), float64(v))
		if err != nil {
			t.Fatalf("publish %d: %v", v, err)
		}
		published[meta.Version] = snap
	}

	for v := 1; v <= 5; v++ {
		publish(v)
	}
	// Kill the relay mid-stream: everything after this point can only
	// reach consumers through the producer's staging + notification.
	r.Close()
	relayClosed = true
	for v := 6; v <= 15; v++ {
		publish(v)
	}

	if ps := prod.Stats(); ps.LinkFailures == 0 {
		t.Fatalf("relay kill never surfaced as a link failure: %+v", ps)
	}
	// The consumers converge side by side: each pays LinkWait per version
	// it backfills, and none of them waits on another.
	var wg sync.WaitGroup
	for i, c := range consumers {
		wg.Add(1)
		go func(i int, c *remote.Consumer) {
			defer wg.Done()
			if !converge(t, c, published, 15, 90*time.Second) {
				return
			}
			if st := c.Stats(); st.StagedLoads == 0 {
				t.Errorf("consumer %d converged without touching staging after relay death: %+v", i, st)
			}
		}(i, c)
	}
	wg.Wait()
}

// TestChaosRelayPipelineFaults injects >=10% connection failures and
// payload corruption at every hop — producer→relay ingest, relay serve,
// and consumer dial — and requires byte-identical convergence anyway.
// Frame CRCs (transport layer) and chunk-record CRCs (relay ingest)
// must together turn every corruption into a retry, never an install.
func TestChaosRelayPipelineFaults(t *testing.T) {
	metaAddr, notifyAddr := testServices(t)

	ingestInj := faults.New(faults.Config{Seed: 31, FailRate: 0.10, CorruptRate: 0.05, SkipFirst: 2})
	serveInj := faults.New(faults.Config{Seed: 32, FailRate: 0.10, CorruptRate: 0.05, SkipFirst: 2})
	prodInj := faults.New(faults.Config{Seed: 33, FailRate: 0.10, CorruptRate: 0.05, SkipFirst: 2})
	consInj := faults.New(faults.Config{Seed: 34, FailRate: 0.10, CorruptRate: 0.05, SkipFirst: 2})

	r, err := New(Config{
		IngestAddr: "127.0.0.1:0", ServeAddr: "127.0.0.1:0",
		MetaAddr: metaAddr, NotifyAddr: notifyAddr, Retry: quickPolicy(13),
		IngestWrap: func(c net.Conn) net.Conn { return faults.WrapConn(c, ingestInj) },
		ServeWrap:  func(c net.Conn) net.Conn { return faults.WrapConn(c, serveInj) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closeChecked(t, r)

	prod, err := remote.NewProducer(remote.ProducerConfig{
		Model: "m", MetaAddr: metaAddr, NotifyAddr: notifyAddr,
		RelayAddr: r.IngestAddr(),
		RelayDial: faults.WrapDial(func(a string) (net.Conn, error) {
			return net.Dial("tcp", a)
		}, prodInj),
		Retry: quickPolicy(14), ChunkSize: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer prod.Close()

	const nConsumers = 3
	consumers := make([]*remote.Consumer, nConsumers)
	for i := range consumers {
		c, err := remote.NewConsumer(remote.ConsumerConfig{
			Model: "m", MetaAddr: metaAddr, NotifyAddr: notifyAddr,
			ProducerAddr: r.ServeAddr(), Retry: quickPolicy(int64(40 + i)),
			LinkDial: faults.WrapDial(func(a string) (net.Conn, error) {
				return net.Dial("tcp", a)
			}, consInj),
			LinkWait: 200 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("consumer %d: %v", i, err)
		}
		defer c.Close()
		consumers[i] = c
	}

	const versions = 30
	published := make(map[uint64]nn.Snapshot, versions)
	for v := 1; v <= versions; v++ {
		snap := nn.TakeSnapshot(testModel(int64(300 + v)))
		meta, err := prod.Publish(snap, uint64(v*10), float64(v))
		if err != nil {
			t.Fatalf("publish %d: %v", v, err)
		}
		published[meta.Version] = snap
	}

	for _, c := range consumers {
		if !converge(t, c, published, versions, 90*time.Second) {
			t.FailNow()
		}
	}

	injected := ingestInj.Stats().Failures + serveInj.Stats().Failures +
		prodInj.Stats().Failures + consInj.Stats().Failures
	if injected == 0 {
		t.Fatal("fault injectors never fired; the drill proved nothing")
	}
	t.Logf("converged through %d injected faults (relay stats %+v)", injected, r.Stats())
}

// TestChaosConsumerChurn cycles consumers in and out while versions
// flow: each joiner must converge to the then-newest version from the
// relay cache, and every departure must leave no goroutine behind (the
// package's leakcheck TestMain enforces the latter).
func TestChaosConsumerChurn(t *testing.T) {
	metaAddr, notifyAddr := testServices(t)
	r, err := New(Config{
		IngestAddr: "127.0.0.1:0", ServeAddr: "127.0.0.1:0",
		MetaAddr: metaAddr, NotifyAddr: notifyAddr, Retry: quickPolicy(15),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closeChecked(t, r)

	prod, err := remote.NewProducer(remote.ProducerConfig{
		Model: "m", MetaAddr: metaAddr, NotifyAddr: notifyAddr,
		RelayAddr: r.IngestAddr(), Retry: quickPolicy(16), ChunkSize: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer prod.Close()

	published := make(map[uint64]nn.Snapshot)
	for round := 1; round <= 8; round++ {
		snap := nn.TakeSnapshot(testModel(int64(400 + round)))
		meta, err := prod.Publish(snap, uint64(round*10), float64(round))
		if err != nil {
			t.Fatalf("publish %d: %v", round, err)
		}
		published[meta.Version] = snap

		c, err := remote.NewConsumer(remote.ConsumerConfig{
			Model: "m", MetaAddr: metaAddr, NotifyAddr: notifyAddr,
			ProducerAddr: r.ServeAddr(), Retry: quickPolicy(int64(50 + round)),
			LinkWait: 2 * time.Second,
		})
		if err != nil {
			t.Fatalf("round %d consumer: %v", round, err)
		}
		ckpt, err := c.Next(20 * time.Second)
		if err != nil {
			c.Close()
			t.Fatalf("round %d: %v", round, err)
		}
		want, ok := published[ckpt.Version]
		if !ok || !snapshotsEqual(ckpt.Weights, want) {
			c.Close()
			t.Fatalf("round %d installed bad v%d", round, ckpt.Version)
		}
		// Churn: this consumer leaves immediately; the next round's
		// joiner must be served from the cache all the same.
		c.Close()
	}
	if st := r.Stats(); st.Sessions < 8 {
		t.Fatalf("relay saw %d sessions across churn, want >= 8", st.Sessions)
	}
}

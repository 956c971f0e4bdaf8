package remote

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"viper/internal/faults"
	"viper/internal/nn"
	"viper/internal/retry"
)

// chaosPolicy is a fast deterministic retry schedule for chaos runs.
func chaosPolicy(seed int64) retry.Policy {
	return retry.Policy{
		MaxAttempts: 8, BaseDelay: time.Millisecond,
		MaxDelay: 20 * time.Millisecond, Multiplier: 2,
		Jitter: 0.2, Seed: seed,
	}
}

// snapshotsEqual compares two weight snapshots bit-for-bit.
func snapshotsEqual(a, b nn.Snapshot) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || len(a[i].Data) != len(b[i].Data) {
			return false
		}
		for j := range a[i].Data {
			if a[i].Data[j] != b[i].Data[j] {
				return false
			}
		}
	}
	return true
}

// TestChaosConsumerConvergesUnderLinkFaults is the end-to-end fault
// drill: both ends of the direct checkpoint link pass through fault
// injectors that randomly kill connections and corrupt bytes (well over
// 10% of operations affected in aggregate), and the metadata path is
// faulted too. The consumer must still converge to the final published
// version — over the reconnecting link or the KV staging fallback —
// and every checkpoint it installs must be byte-identical to what the
// producer published (corrupt frames are rejected, never delivered).
func TestChaosConsumerConvergesUnderLinkFaults(t *testing.T) {
	metaAddr, notifyAddr := testServices(t)

	prodInj := faults.New(faults.Config{Seed: 7, FailRate: 0.10, CorruptRate: 0.04, SkipFirst: 2})
	consInj := faults.New(faults.Config{Seed: 11, FailRate: 0.10, CorruptRate: 0.04, SkipFirst: 2})
	metaInj := faults.New(faults.Config{Seed: 13, FailRate: 0.05, SkipFirst: 4})

	linkAddr := make(chan string, 1)
	var prod *Producer
	var prodErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		prod, prodErr = NewProducer(ProducerConfig{
			Model: "m", MetaAddr: metaAddr, NotifyAddr: notifyAddr,
			ListenAddr: "127.0.0.1:0",
			OnListen:   func(a string) { linkAddr <- a },
			Retry:      chaosPolicy(1),
			LinkWrap:   func(c net.Conn) net.Conn { return faults.WrapConn(c, prodInj) },
		})
	}()
	cons, err := NewConsumer(ConsumerConfig{
		Model: "m", MetaAddr: metaAddr, NotifyAddr: notifyAddr,
		ProducerAddr: <-linkAddr,
		Retry:        chaosPolicy(2),
		LinkWait:     150 * time.Millisecond,
		LinkDial: faults.WrapDial(func(a string) (net.Conn, error) {
			return net.Dial("tcp", a)
		}, consInj),
		MetaDial: faults.WrapDial(func(a string) (net.Conn, error) {
			return net.Dial("tcp", a)
		}, metaInj),
	})
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if prodErr != nil {
		t.Fatal(prodErr)
	}
	defer func() { prod.Close(); cons.Close() }()

	// Publish `versions` distinct snapshots, remembering each one so
	// received checkpoints can be verified bit-for-bit.
	const versions = 30
	published := make(map[uint64]nn.Snapshot, versions)
	for i := 1; i <= versions; i++ {
		snap := nn.TakeSnapshot(testModel(int64(100 + i)))
		meta, err := prod.Publish(snap, uint64(i*10), float64(i))
		if err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
		published[meta.Version] = snap
	}

	// Drain updates until the final version lands. Individual versions
	// may legitimately be skipped (lost on the link and already evicted
	// from staging), but the final one can always be recovered.
	deadline := time.Now().Add(90 * time.Second)
	var lastVersion uint64
	for lastVersion < versions {
		ckpt, err := cons.Next(2 * time.Second)
		if errors.Is(err, ErrTimeout) {
			if time.Now().After(deadline) {
				t.Fatalf("consumer stuck at version %d/%d; producer %+v consumer %+v",
					lastVersion, versions, prod.Stats(), cons.Stats())
			}
			continue
		}
		if err != nil {
			t.Fatalf("Next at version %d: %v", lastVersion, err)
		}
		if ckpt.Version <= lastVersion {
			t.Fatalf("version went backwards: %d after %d", ckpt.Version, lastVersion)
		}
		want, ok := published[ckpt.Version]
		if !ok {
			t.Fatalf("received never-published version %d", ckpt.Version)
		}
		if !snapshotsEqual(ckpt.Weights, want) {
			t.Fatalf("version %d delivered corrupted weights", ckpt.Version)
		}
		lastVersion = ckpt.Version
	}

	// The drill proves nothing unless faults actually fired.
	injected := prodInj.Stats().Failures + consInj.Stats().Failures + metaInj.Stats().Failures
	if injected == 0 {
		t.Fatalf("no faults injected (prod %+v cons %+v meta %+v)",
			prodInj.Stats(), consInj.Stats(), metaInj.Stats())
	}
	pStats, cStats := prod.Stats(), cons.Stats()
	if pStats.LinkSends+pStats.LinkFailures != versions {
		t.Fatalf("producer accounted %d sends + %d failures, want %d total",
			pStats.LinkSends, pStats.LinkFailures, versions)
	}
	if cStats.LinkLoads+cStats.StagedLoads == 0 {
		t.Fatal("consumer installed nothing through either path")
	}
	t.Logf("faults injected: %d; producer %+v; consumer %+v", injected, pStats, cStats)
}

// TestProducerDegradesToStagingWhenLinkDead kills the direct link
// permanently: every publish must still succeed via the KV staging path
// with the metadata marking the degraded route, and the consumer must
// keep converging through staged backfills alone.
func TestProducerDegradesToStagingWhenLinkDead(t *testing.T) {
	metaAddr, notifyAddr := testServices(t)
	// The producer's side of the link fails every operation.
	dead := faults.New(faults.Config{Seed: 3, FailRate: 1})
	linkAddr := make(chan string, 1)
	var prod *Producer
	var prodErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		prod, prodErr = NewProducer(ProducerConfig{
			Model: "m", MetaAddr: metaAddr, NotifyAddr: notifyAddr,
			ListenAddr: "127.0.0.1:0",
			OnListen:   func(a string) { linkAddr <- a },
			Retry:      chaosPolicy(5),
			LinkWrap:   func(c net.Conn) net.Conn { return faults.WrapConn(c, dead) },
		})
	}()
	cons, err := NewConsumer(ConsumerConfig{
		Model: "m", MetaAddr: metaAddr, NotifyAddr: notifyAddr,
		ProducerAddr: <-linkAddr,
		Retry:        chaosPolicy(6),
		LinkWait:     100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if prodErr != nil {
		t.Fatal(prodErr)
	}
	defer func() { prod.Close(); cons.Close() }()

	src := testModel(42)
	meta, err := prod.Publish(nn.TakeSnapshot(src), 5, 0.5)
	if err != nil {
		t.Fatalf("publish over dead link must degrade, not fail: %v", err)
	}
	if string(meta.Location) != "pfs" {
		t.Fatalf("degraded publish recorded location %q, want pfs", meta.Location)
	}
	// The copy was staged before Publish returned: it is the version's only
	// delivery path.
	if ps := prod.Stats(); ps.Staged != 1 {
		t.Fatalf("producer stats = %+v, want the failed send staged synchronously", ps)
	}
	ckpt, err := cons.Next(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if ckpt.Version != 1 {
		t.Fatalf("version = %d", ckpt.Version)
	}
	if cons.Stats().StagedLoads != 1 {
		t.Fatalf("stats = %+v, want exactly one staged load", cons.Stats())
	}
	if prod.Stats().LinkFailures != 1 {
		t.Fatalf("producer stats = %+v, want one link failure", prod.Stats())
	}
}

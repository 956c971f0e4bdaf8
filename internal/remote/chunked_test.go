package remote

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"viper/internal/core"
	"viper/internal/faults"
	"viper/internal/nn"
	"viper/internal/transport"
	"viper/internal/vformat"
)

// chunkedPairConfig tweaks startChunkedPair's wiring.
type chunkedPairConfig struct {
	chunkSize int
	linkWrap  func(net.Conn) net.Conn
	linkDial  func(addr string) (net.Conn, error)
	linkWait  time.Duration
	noDelta   bool    // disable delta reconciliation on both ends
	deltaEps  float64 // producer-side base-suppression threshold
}

// startChunkedPair wires a chunked-pipeline producer and a consumer
// through real TCP services.
func startChunkedPair(t *testing.T, serving nn.Model, cfg chunkedPairConfig) (*Producer, *Consumer) {
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
			Retry:                 chaosPolicy(21),
			LinkWrap:              cfg.linkWrap,
			ChunkSize:             cfg.chunkSize,
			DisableDeltaReconcile: cfg.noDelta,
			DeltaEps:              cfg.deltaEps,
		})
	}()
	cons, err := NewConsumer(ConsumerConfig{
		Model: "m", MetaAddr: metaAddr, NotifyAddr: notifyAddr,
		ProducerAddr: <-linkAddr, Serving: serving,
		Retry:                 chaosPolicy(22),
		LinkWait:              cfg.linkWait,
		LinkDial:              cfg.linkDial,
		DisableDeltaReconcile: cfg.noDelta,
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

// TestPublishChunkedAndReceive: a chunked producer publishes "vchunk"
// metadata, streams the checkpoint as multiple frames, and the consumer
// assembles bit-identical weights over the direct link.
func TestPublishChunkedAndReceive(t *testing.T) {
	src := testModel(31)
	// 64-byte chunks split the test model's 58 float64 params into
	// several frames, exercising real multi-frame assembly.
	prod, cons := startChunkedPair(t, nil, chunkedPairConfig{chunkSize: 64})
	snap := nn.TakeSnapshot(src)
	meta, err := prod.Publish(snap, 9, 0.33)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Format != "vchunk" {
		t.Fatalf("format = %q, want vchunk", meta.Format)
	}
	ckpt, err := cons.Next(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !snapshotsEqual(ckpt.Weights, snap) {
		t.Fatal("assembled weights differ from published snapshot")
	}
	if s := cons.Stats(); s.LinkLoads != 1 || s.StagedLoads != 0 {
		t.Fatalf("stats = %+v, want the update via the link", s)
	}
}

// TestPublishChunkedMultipleInOrder: successive chunk streams on one
// link stay separable; every version arrives in order.
func TestPublishChunkedMultipleInOrder(t *testing.T) {
	prod, cons := startChunkedPair(t, nil, chunkedPairConfig{chunkSize: 128})
	const n = 4
	published := make([]nn.Snapshot, n+1)
	for i := 1; i <= n; i++ {
		snap := nn.TakeSnapshot(testModel(int64(40 + i)))
		published[i] = snap
		if _, err := prod.Publish(snap, uint64(i), float64(i)); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	for i := 1; i <= n; i++ {
		ckpt, err := cons.Next(5 * time.Second)
		if err != nil {
			t.Fatalf("next %d: %v", i, err)
		}
		if ckpt.Version != uint64(i) {
			t.Fatalf("got version %d, want %d", ckpt.Version, i)
		}
		if !snapshotsEqual(ckpt.Weights, published[i]) {
			t.Fatalf("version %d weights differ", i)
		}
	}
}

// TestChunkedDegradesToStaging: with the link dead, a chunked publish
// still reaches the consumer through the staged chunked blob, which
// DecodeAuto recognises by its magic.
//
// It is also the encoder-blob side of the pools' contract (DESIGN.md §8)
// on the path that once broke it: the link dies under the header frame,
// so the stream encode runs only afterwards, for the staging copy, and the
// blob changes hands twice (encoder → retained blob → KV client) on error
// returns. With the check armed (TestMain) a blob handed back before the
// staging write would stage 0xDB — the install below is bit-identical — a
// second hand-back on any of those returns would panic, and the one
// hand-back there is, Close's, is seen to have happened.
func TestChunkedDegradesToStaging(t *testing.T) {
	dead := faults.New(faults.Config{Seed: 9, FailRate: 1})
	src := testModel(51)
	prod, cons := startChunkedPair(t, nil, chunkedPairConfig{
		chunkSize: 64,
		linkWrap:  func(c net.Conn) net.Conn { return faults.WrapConn(c, dead) },
		linkWait:  100 * time.Millisecond,
	})
	snap := nn.TakeSnapshot(src)
	meta, err := prod.Publish(snap, 5, 0.5)
	if err != nil {
		t.Fatalf("publish over dead link must degrade, not fail: %v", err)
	}
	if string(meta.Location) != "pfs" || meta.Format != "vchunk" {
		t.Fatalf("degraded meta = %+v, want pfs/vchunk", meta)
	}
	ckpt, err := cons.Next(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !snapshotsEqual(ckpt.Weights, snap) {
		t.Fatal("staged chunked blob decoded to different weights")
	}
	if s := cons.Stats(); s.StagedLoads != 1 {
		t.Fatalf("stats = %+v, want exactly one staged load", s)
	}
	r, refs := prod.retained()
	if r == nil || refs != 1 || poisoned(r.buf) {
		t.Fatalf("after the publish the producer holds %d references to its blob (handed back: %v), want its own one", refs, r != nil && poisoned(r.buf))
	}
	blob := r.buf
	prod.Close()
	if !prod.released(r) || !poisoned(blob[:cap(blob)]) {
		t.Fatal("Close did not hand the retained blob back")
	}
}

// TestPlainLinkFrameBackfillsFromStaging: the link carries chunk streams
// only. A frame addressed to the notified version that opens no stream —
// here a well-formed v1 encoding of that very version — is unusable, and
// the version installs from the staging copy like any torn stream. The
// staging area is no way in for another format either: the same encoding,
// or a complete manifest-bearing blob of the version, planted at the
// notified version's staging key fails Next and is never installed.
func TestPlainLinkFrameBackfillsFromStaging(t *testing.T) {
	prod, cons := startChunkedPair(t, nil, chunkedPairConfig{chunkSize: 64, linkWait: 100 * time.Millisecond})
	snap := nn.TakeSnapshot(testModel(53))
	v1, err := (&vformat.Checkpoint{ModelName: "m", Version: 1, Weights: snap}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	err = prod.link.Send(transport.Frame{
		Key: core.CheckpointKey("m", 1), Payload: v1,
		Meta: map[string]string{"model": "m", "version": "1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prod.Publish(snap, 5, 0.5); err != nil {
		t.Fatal(err)
	}
	ckpt, err := cons.Next(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if s := cons.Stats(); s.StagedLoads != 1 || s.LinkLoads != 0 || !snapshotsEqual(ckpt.Weights, snap) {
		t.Fatalf("stats = %+v, want one bit-identical staged install and no link load", s)
	}

	s := startScript(t)
	s.send(stray(1)) // the link reaches v1 without a stream for it
	s.stage(1, v1)
	res := s.next()
	s.notify(1, false)
	if r := <-res; r.err == nil || s.cons.Loads() != 0 {
		t.Fatalf("a v1 blob at the staging key: Next = %+v after %d installs, want an error and none", r, s.cons.Loads())
	}

	_, blob := s.stream(2, snap)
	full, _, _, _, err := vformat.BuildManifestBlob(blob, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.send(stray(2))
	s.stage(2, full)
	res = s.next()
	s.notify(2, false)
	if r := <-res; r.err == nil || s.cons.Loads() != 0 {
		t.Fatalf("a manifest-bearing blob at the staging key: Next = %+v after %d installs, want an error and none", r, s.cons.Loads())
	}
}

// TestChunkedSlowConsumerDoesNotDeadlock floods the consumer's frame
// buffer (32 slots) with many chunk streams before the consumer drains
// anything, while link faults tear connections mid-flood. This is the
// slow-consumer deadlock shape: the producer blocks in re-accept
// waiting for a redial that only the consumer's pump can drive, so the
// pump must shed buffered frames rather than park on a full channel.
// Convergence is through staging for whatever the shed frames tore.
func TestChunkedSlowConsumerDoesNotDeadlock(t *testing.T) {
	inj := faults.New(faults.Config{Seed: 33, FailRate: 0.15, SkipFirst: 40})
	prod, cons := startChunkedPair(t, nil, chunkedPairConfig{
		chunkSize: 64, // 9 frames per version: 12 versions ≫ the 32-slot buffer
		linkWrap:  func(c net.Conn) net.Conn { return faults.WrapConn(c, inj) },
		linkWait:  100 * time.Millisecond,
	})
	const versions = 12
	published := make(map[uint64]nn.Snapshot, versions)
	flooded := make(chan error, 1)
	go func() {
		for i := 1; i <= versions; i++ {
			snap := nn.TakeSnapshot(testModel(int64(300 + i)))
			meta, err := prod.Publish(snap, uint64(i*5), float64(i))
			if err != nil {
				flooded <- err
				return
			}
			published[meta.Version] = snap
		}
		flooded <- nil
	}()
	select {
	case err := <-flooded:
		if err != nil {
			t.Fatalf("flood publish: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("producer deadlocked against the undrained consumer; producer %+v", prod.Stats())
	}
	deadline := time.Now().Add(60 * time.Second)
	var lastVersion uint64
	for lastVersion < versions {
		ckpt, err := cons.Next(2 * time.Second)
		if errors.Is(err, ErrTimeout) {
			if time.Now().After(deadline) {
				t.Fatalf("consumer stuck at version %d/%d; consumer %+v",
					lastVersion, versions, cons.Stats())
			}
			continue
		}
		if err != nil {
			t.Fatalf("Next after version %d: %v", lastVersion, err)
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
	t.Logf("producer %+v; consumer %+v", prod.Stats(), cons.Stats())
}

// TestChaosChunkedConverges is the chunked analogue of the link-fault
// drill: chunk streams are torn by injected failures and corruption
// mid-stream, and the consumer must converge through reassembly or the
// staged backfill, never installing corrupted weights.
func TestChaosChunkedConverges(t *testing.T) {
	prodInj := faults.New(faults.Config{Seed: 17, FailRate: 0.08, CorruptRate: 0.03, SkipFirst: 2})
	consInj := faults.New(faults.Config{Seed: 19, FailRate: 0.08, CorruptRate: 0.03, SkipFirst: 2})
	prod, cons := startChunkedPair(t, nil, chunkedPairConfig{
		chunkSize: 96,
		linkWrap:  func(c net.Conn) net.Conn { return faults.WrapConn(c, prodInj) },
		linkDial: faults.WrapDial(func(a string) (net.Conn, error) {
			return net.Dial("tcp", a)
		}, consInj),
		linkWait: 150 * time.Millisecond,
	})
	const versions = 20
	published := make(map[uint64]nn.Snapshot, versions)
	for i := 1; i <= versions; i++ {
		snap := nn.TakeSnapshot(testModel(int64(200 + i)))
		meta, err := prod.Publish(snap, uint64(i*10), float64(i))
		if err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
		published[meta.Version] = snap
	}
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
	t.Logf("producer %+v; consumer %+v", prod.Stats(), cons.Stats())
}

// TestPublishContextCancelled: a cancelled publish never announces the
// checkpoint — no metadata write, no notification.
func TestPublishContextCancelled(t *testing.T) {
	prod, cons := startChunkedPair(t, nil, chunkedPairConfig{chunkSize: 64})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	snap := nn.TakeSnapshot(testModel(61))
	if _, err := prod.PublishContext(ctx, snap, 1, 0.5); !errors.Is(err, context.Canceled) {
		t.Fatalf("PublishContext = %v, want context.Canceled", err)
	}
	if _, err := cons.LatestMeta(); err == nil {
		t.Fatal("metadata was published for a cancelled publish")
	}
}

// TestNextContextCancelled: cancelling the context unblocks a waiting
// consumer immediately.
func TestNextContextCancelled(t *testing.T) {
	s := startScript(t)
	ctx, cancel := context.WithCancel(context.Background())
	res := make(chan error, 1)
	go func() {
		_, err := s.cons.NextContext(ctx, scriptTimeout)
		res <- err
	}()
	s.clock.waitAfter(t, scriptTimeout) // Next has armed its timeout: it is waiting
	cancel()
	select {
	case err := <-res:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("NextContext = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("NextContext did not unblock on cancel")
	}
}

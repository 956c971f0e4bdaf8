package remote

import (
	"context"
	"errors"
	"net"
	"strconv"
	"testing"
	"time"

	"viper/internal/core"
	"viper/internal/kvstore"
	"viper/internal/nn"
	"viper/internal/pubsub"
	"viper/internal/retry"
	"viper/internal/simclock"
	"viper/internal/transport"
	"viper/internal/vformat"
)

// The tests below drive a real Consumer from a scripted producer: the
// test holds the producer end of the direct link, a KV client and a
// pub/sub client, and decides frame by frame what the link carries, what
// is staged and what is announced. The consumer runs on a manual virtual
// clock, so every wait (Next's timeout, LinkWait, the staging poll) ends
// only when the test advances it.

const (
	scriptLinkWait = time.Minute
	scriptBackoff  = 7 * time.Millisecond // the staging poll's first delay
	scriptTimeout  = time.Hour            // Next's timeout
)

// signalClock is a manual virtual clock that reports every After call,
// so a test can tell which wait the consumer has just entered.
type signalClock struct {
	*simclock.Virtual
	afters chan time.Duration
}

func (c *signalClock) After(d time.Duration) <-chan time.Time {
	ch := c.Virtual.After(d) // registered before it is reported
	select {
	case c.afters <- d:
	default:
	}
	return ch
}

// waitAfter returns once the consumer has armed a wait of exactly d.
func (c *signalClock) waitAfter(t *testing.T, d time.Duration) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case got := <-c.afters:
			if got == d {
				return
			}
		case <-deadline:
			t.Fatalf("the consumer never armed a %v wait", d)
		}
	}
}

// armed reports whether a wait of d was armed since the last drain.
func (c *signalClock) armed(d time.Duration) bool {
	for {
		select {
		case got := <-c.afters:
			if got == d {
				return true
			}
		default:
			return false
		}
	}
}

type script struct {
	t     *testing.T
	cons  *Consumer
	peer  *transport.TCPLink // the producer end of the direct link
	kv    *kvstore.Client
	ps    *pubsub.Client
	clock *signalClock
}

func startScript(t *testing.T) *script { return startScriptDial(t, nil) }

// startScriptDial is startScript with the consumer's link dialled through
// linkDial (nil = plain TCP).
func startScriptDial(t *testing.T, linkDial func(addr string) (net.Conn, error)) *script {
	t.Helper()
	return startScriptWith(t, func(cfg *ConsumerConfig) { cfg.LinkDial = linkDial })
}

// startScriptWith is startScript with the consumer's configuration
// adjusted by tweak before it is built.
func startScriptWith(t *testing.T, tweak func(cfg *ConsumerConfig)) *script {
	t.Helper()
	metaAddr, notifyAddr := testServices(t)
	ln, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	clock := &signalClock{Virtual: simclock.NewVirtualManual(), afters: make(chan time.Duration, 4096)}
	cfg := ConsumerConfig{
		Model: "m", MetaAddr: metaAddr, NotifyAddr: notifyAddr, ProducerAddr: ln.Addr(),
		// One attempt: nothing ever sleeps inside a retry loop on the
		// clock nobody advances; BaseDelay still paces the staging poll.
		Retry:    retry.Policy{MaxAttempts: 1, BaseDelay: scriptBackoff, MaxDelay: scriptBackoff, Clock: clock},
		LinkWait: scriptLinkWait,
	}
	tweak(&cfg)
	cons, err := NewConsumer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cons.Close)
	peer, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { peer.Close() })
	kv, err := kvstore.Dial(metaAddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { kv.Close() })
	ps, err := pubsub.DialClient(notifyAddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ps.Close() })
	return &script{t: t, cons: cons, peer: peer, kv: kv, ps: ps, clock: clock}
}

// frameSink captures the frames a sender would put on the wire.
type frameSink struct{ frames []transport.Frame }

func (s *frameSink) Send(f transport.Frame) error {
	f.Payload = append([]byte(nil), f.Payload...)
	s.frames = append(s.frames, f)
	return nil
}
func (s *frameSink) Recv() (transport.Frame, error) { return transport.Frame{}, transport.ErrClosed }
func (s *frameSink) Close() error                   { return nil }

// stream encodes version as the frames a producer would send (header
// first) plus the complete blob it would stage.
func (s *script) stream(version uint64, snap nn.Snapshot) (frames []transport.Frame, blob []byte) {
	s.t.Helper()
	return s.streamChunks(version, snap, 1<<10)
}

// streamChunks is stream at a chosen chunk size.
func (s *script) streamChunks(version uint64, snap nn.Snapshot, chunkBytes int) (frames []transport.Frame, blob []byte) {
	s.t.Helper()
	enc, err := vformat.NewChunkEncoder(
		&vformat.Checkpoint{ModelName: "m", Version: version, Weights: snap},
		vformat.ChunkOptions{ChunkBytes: chunkBytes})
	if err != nil {
		s.t.Fatal(err)
	}
	defer enc.Release()
	var sink frameSink
	tags := map[string]string{"model": "m", "version": strconv.FormatUint(version, 10)}
	if err := transport.SendChunked(context.Background(), transport.WithMeta(&sink, tags), core.CheckpointKey("m", version), enc, 0); err != nil {
		s.t.Fatal(err)
	}
	full, err := enc.Blob()
	if err != nil {
		s.t.Fatal(err)
	}
	return sink.frames, append([]byte(nil), full...)
}

func (s *script) send(frames ...transport.Frame) {
	s.t.Helper()
	for _, f := range frames {
		if err := s.peer.Send(f); err != nil {
			s.t.Fatal(err)
		}
	}
}

// stray is a frame of version that opens no stream.
func stray(version uint64) transport.Frame {
	return transport.Frame{
		Key: core.CheckpointKey("m", version), Payload: []byte("not a stream"),
		Meta: map[string]string{"model": "m", "version": strconv.FormatUint(version, 10)},
	}
}

func (s *script) stage(version uint64, blob []byte) {
	s.t.Helper()
	if err := s.kv.SetBytes(core.StagingKey("m", version), blob); err != nil {
		s.t.Fatal(err)
	}
}

// notify announces version the way a producer would.
func (s *script) notify(version uint64, stagePending bool) {
	s.t.Helper()
	meta := core.ModelMeta{
		Name: "m", Version: version, Location: core.RouteHost,
		Path: core.CheckpointKey("m", version), Format: "vchunk", StagePending: stagePending,
	}
	encoded, err := meta.Encode()
	if err != nil {
		s.t.Fatal(err)
	}
	if _, err := s.ps.Publish(core.UpdateChannel("m"), encoded); err != nil {
		s.t.Fatal(err)
	}
}

type nextResult struct {
	ckpt *vformat.Checkpoint
	err  error
}

// next starts Next and returns once it is waiting (its timeout is
// armed).
func (s *script) next() <-chan nextResult {
	s.t.Helper()
	out := make(chan nextResult, 1)
	go func() {
		ckpt, err := s.cons.Next(scriptTimeout)
		out <- nextResult{ckpt, err}
	}()
	s.clock.waitAfter(s.t, scriptTimeout)
	return out
}

// install waits for a running Next to return a checkpoint of version
// with exactly snap's weights.
func (s *script) install(res <-chan nextResult, version uint64, snap nn.Snapshot) {
	s.t.Helper()
	select {
	case r := <-res:
		if r.err != nil {
			s.t.Fatalf("Next: %v", r.err)
		}
		if r.ckpt.Version != version || !snapshotsEqual(r.ckpt.Weights, snap) {
			s.t.Fatalf("installed v%d (weights equal: %v), want bit-identical v%d",
				r.ckpt.Version, snapshotsEqual(r.ckpt.Weights, snap), version)
		}
	case <-time.After(10 * time.Second):
		s.t.Fatalf("Next did not return v%d; consumer %+v", version, s.cons.Stats())
	}
}

// waitBuilder blocks until cond holds of the builder's state, woken by
// the builder's own change signal.
func (s *script) waitBuilder(what string, cond func(c *Consumer) bool) {
	s.t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		s.cons.mu.Lock()
		ok, changed := cond(s.cons), s.cons.changed
		s.cons.mu.Unlock()
		if ok {
			return
		}
		select {
		case <-changed:
		case <-deadline:
			s.t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// parkedVersions lists the builder's parked builds; c.mu must be held.
func parkedVersions(c *Consumer) []uint64 {
	vs := make([]uint64, len(c.parked))
	for i, b := range c.parked {
		vs[i] = b.version
	}
	return vs
}

func parkedAre(want ...uint64) func(c *Consumer) bool {
	return func(c *Consumer) bool {
		got := parkedVersions(c)
		if len(got) != len(want) || c.building != 0 {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
}

// TestParkedBuildWaitsForItsNotification: the builder assembles a stream
// as it lands, but the complete, verified build is installed only by its
// own notification — not by a waiting Next — and a build whose
// notification never comes (a publish cancelled after its stream left)
// is dropped when a newer version is announced.
func TestParkedBuildWaitsForItsNotification(t *testing.T) {
	s := startScript(t)
	snaps := []nn.Snapshot{nil, flatSnapshot(1, 2<<10), flatSnapshot(2, 2<<10), flatSnapshot(3, 2<<10)}
	prebuilt := Metrics().Counter("consumer_prebuilt_installs")
	abandoned := Metrics().Counter("consumer_abandoned_builds")
	prebuiltBefore, abandonedBefore := prebuilt.Value(), abandoned.Value()

	frames1, _ := s.stream(1, snaps[1])
	s.send(frames1...)
	s.waitBuilder("v1 parked", parkedAre(1))
	res := s.next()
	s.clock.Advance(scriptTimeout)
	if r := <-res; !errors.Is(r.err, ErrTimeout) {
		t.Fatalf("Next with an unannounced build parked = %+v, want ErrTimeout", r)
	}
	if s.cons.Loads() != 0 || s.cons.Active() != nil {
		t.Fatal("a build was installed before its notification")
	}
	res = s.next()
	s.notify(1, true)
	s.install(res, 1, snaps[1])

	frames2, _ := s.stream(2, snaps[2])
	frames3, _ := s.stream(3, snaps[3])
	s.send(frames2...)
	s.send(frames3...)
	s.waitBuilder("v2 and v3 parked", parkedAre(2, 3))
	res = s.next()
	s.notify(3, true)
	s.install(res, 3, snaps[3])

	want := ConsumerStats{LinkLoads: 2, DiscardedFrames: int64(len(frames2))}
	if got := s.cons.Stats(); got != want {
		t.Fatalf("consumer stats %+v, want %+v", got, want)
	}
	if d := prebuilt.Value() - prebuiltBefore; d != 2 {
		t.Fatalf("consumer_prebuilt_installs moved by %d, want 2", d)
	}
	if d := abandoned.Value() - abandonedBefore; d != 1 {
		t.Fatalf("consumer_abandoned_builds moved by %d, want 1 (the never-announced v2)", d)
	}
	if s.cons.Loads() != 2 {
		t.Fatalf("loads = %d, want 2: v2 must never have been installed", s.cons.Loads())
	}
}

// TestInterruptedStreamNeverInstalls: a stream a newer header interrupts
// is dropped as a group — its records never reach a checkpoint — while
// the newer stream builds and installs from the link; the interrupted
// version installs whole from its staging copy.
func TestInterruptedStreamNeverInstalls(t *testing.T) {
	s := startScript(t)
	snap1, snap2 := flatSnapshot(1, 2<<10), flatSnapshot(2, 2<<10)
	frames1, blob1 := s.stream(1, snap1)
	frames2, _ := s.stream(2, snap2)
	const torn = 4 // header + 3 of 16 records
	s.send(frames1[:torn]...)
	s.send(frames2...)
	s.waitBuilder("v2 parked alone", parkedAre(2))

	s.stage(1, blob1)
	res := s.next()
	s.notify(1, false)
	s.install(res, 1, snap1)
	res = s.next()
	s.notify(2, true)
	s.install(res, 2, snap2)

	want := ConsumerStats{LinkLoads: 1, StagedLoads: 1, DiscardedFrames: torn}
	if got := s.cons.Stats(); got != want {
		t.Fatalf("consumer stats %+v, want %+v", got, want)
	}
}

// TestStalledStreamIsAbandoned: a stream the link stops feeding is
// dropped once a whole LinkWait period passes without a frame, its
// version installs from staging, and the rest of the stream — should it
// still arrive — is stale, never a second build.
func TestStalledStreamIsAbandoned(t *testing.T) {
	s := startScript(t)
	snap := flatSnapshot(1, 2<<10)
	frames, blob := s.stream(1, snap)
	const sent = 4 // header + 3 of 16 records
	s.send(frames[:sent]...)
	s.waitBuilder("v1 building", func(c *Consumer) bool { return c.building == 1 })
	// The first period may see the frames above arrive; the one after it
	// sees nothing.
	waitFor(t, "the stalled build to be abandoned", func() bool {
		s.clock.Advance(scriptLinkWait)
		s.cons.mu.Lock()
		defer s.cons.mu.Unlock()
		return s.cons.building == 0
	})
	s.send(frames[sent:]...)
	s.stage(1, blob)
	res := s.next()
	s.notify(1, false)
	s.install(res, 1, snap)
	waitFor(t, "the late frames to be discarded", func() bool {
		return s.cons.Stats().DiscardedFrames == int64(len(frames))
	})
	want := ConsumerStats{StagedLoads: 1, DiscardedFrames: int64(len(frames))}
	if got := s.cons.Stats(); got != want {
		t.Fatalf("consumer stats %+v, want %+v", got, want)
	}
}

// TestStagePendingWindow: a version the link lost is not counted lost
// while its notification says the staging copy is still being flushed.
func TestStagePendingWindow(t *testing.T) {
	// tornV1 loses v1 on the link: part of its stream, then a frame that
	// tears it.
	tornV1 := func(s *script) (snap nn.Snapshot, blob []byte) {
		snap = flatSnapshot(1, 2<<10)
		frames, blob := s.stream(1, snap)
		s.send(frames[:4]...)
		s.send(stray(1))
		s.waitBuilder("v1 torn", func(c *Consumer) bool {
			return c.linkVersion == 1 && c.building == 0 && len(c.parked) == 0
		})
		return snap, blob
	}
	// thenV2 delivers and announces v2 and expects Next to install it.
	thenV2 := func(s *script, res <-chan nextResult) {
		snap := flatSnapshot(2, 2<<10)
		frames, _ := s.stream(2, snap)
		s.send(frames...)
		s.notify(2, true)
		s.install(res, 2, snap)
	}

	t.Run("flush held then released", func(t *testing.T) {
		s := startScript(t)
		snap, blob := tornV1(s)
		res := s.next()
		s.notify(1, true)
		s.clock.waitAfter(t, scriptBackoff) // no copy yet: polling, not skipping
		select {
		case r := <-res:
			t.Fatalf("Next returned %+v before the staging copy existed", r)
		default:
		}
		s.stage(1, blob)
		s.clock.Advance(scriptBackoff)
		s.install(res, 1, snap)
		want := ConsumerStats{StagedLoads: 1, DiscardedFrames: 5}
		if got := s.cons.Stats(); got != want {
			t.Fatalf("consumer stats %+v, want %+v", got, want)
		}
	})

	t.Run("no stage_pending skips at once", func(t *testing.T) {
		s := startScript(t)
		tornV1(s)
		res := s.next()
		s.notify(1, false) // no copy is coming
		thenV2(s, res)
		if s.clock.armed(scriptBackoff) {
			t.Fatal("the consumer polled for a staging copy nobody announced")
		}
		want := ConsumerStats{LinkLoads: 1, SkippedVersions: 1, DiscardedFrames: 5}
		if got := s.cons.Stats(); got != want {
			t.Fatalf("consumer stats %+v, want %+v", got, want)
		}
	})

	t.Run("flush superseded: skipped after LinkWait", func(t *testing.T) {
		s := startScript(t)
		tornV1(s)
		res := s.next()
		s.notify(1, true)
		s.clock.waitAfter(t, scriptBackoff)
		s.clock.Advance(scriptLinkWait) // the copy never lands
		thenV2(s, res)
		want := ConsumerStats{LinkLoads: 1, SkippedVersions: 1, DiscardedFrames: 5}
		if got := s.cons.Stats(); got != want {
			t.Fatalf("consumer stats %+v, want %+v", got, want)
		}
	})

	t.Run("newer notification already waiting: no poll", func(t *testing.T) {
		s := startScript(t)
		tornV1(s)
		snap := flatSnapshot(2, 2<<10)
		frames, _ := s.stream(2, snap)
		s.send(frames...)
		s.notify(1, true)
		s.notify(2, true)
		waitFor(t, "both notifications", func() bool { return len(s.cons.events) == 2 })
		s.install(s.next(), 2, snap)
		if s.clock.armed(scriptBackoff) {
			t.Fatal("the consumer polled for a copy of a version already superseded")
		}
		want := ConsumerStats{LinkLoads: 1, SkippedVersions: 1, DiscardedFrames: 5}
		if got := s.cons.Stats(); got != want {
			t.Fatalf("consumer stats %+v, want %+v", got, want)
		}
	})
}

// TestDefaultConsumerBuildsBigStreams: a stream of 65 frames, 8 times
// longer than the read-ahead (transport.ReadAhead), that is complete
// before Next is first called still installs from the link: the builder
// drains the hand-off without waiting for Next. The reader used to shed
// the oldest buffered frame when nobody was draining, so any stream longer
// than the buffer was torn and re-fetched whole from staging.
func TestDefaultConsumerBuildsBigStreams(t *testing.T) {
	prod, cons := startChunkedPair(t, nil, chunkedPairConfig{chunkSize: 1 << 10})
	snap := flatSnapshot(5, 8<<10) // 64 KiB → 64 records + the header
	if _, err := prod.Publish(snap, 1, 0.5); err != nil {
		t.Fatal(err)
	}
	ckpt, err := cons.Next(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !snapshotsEqual(ckpt.Weights, snap) {
		t.Fatal("installed weights differ from the published snapshot")
	}
	want := ConsumerStats{LinkLoads: 1}
	if got := cons.Stats(); got != want {
		t.Fatalf("consumer stats %+v, want %+v", got, want)
	}
}

// TestBacklogInstallsInOrderFromTheLink: back-to-back publishes of
// streams longer than the hand-off, with Next called only afterwards,
// install every version in order from the builds the builder parked.
func TestBacklogInstallsInOrderFromTheLink(t *testing.T) {
	prod, cons := startChunkedPair(t, nil, chunkedPairConfig{chunkSize: 1 << 10})
	const n = 6
	snaps := make([]nn.Snapshot, n+1)
	for v := 1; v <= n; v++ {
		snaps[v] = flatSnapshot(int64(10+v), 8<<10)
		if _, err := prod.Publish(snaps[v], uint64(v), 0.5); err != nil {
			t.Fatalf("publish v%d: %v", v, err)
		}
	}
	for v := 1; v <= n; v++ {
		ckpt, err := cons.Next(10 * time.Second)
		if err != nil {
			t.Fatalf("next %d: %v", v, err)
		}
		if ckpt.Version != uint64(v) || !snapshotsEqual(ckpt.Weights, snaps[v]) {
			t.Fatalf("install %d delivered v%d (weights equal: %v)", v, ckpt.Version, snapshotsEqual(ckpt.Weights, snaps[v]))
		}
	}
	want := ConsumerStats{LinkLoads: n}
	if got := cons.Stats(); got != want {
		t.Fatalf("consumer stats %+v, want %+v", got, want)
	}
}

package remote

import (
	"testing"

	"viper/internal/nn"
	"viper/internal/transport"
	"viper/internal/vformat"
)

// The tests below cover the builder's back buffer: the private clone of
// the span source a delta is assembled into. They run on the scripted
// producer of builder_test.go — 16 KiB snapshots in 16 one-KiB chunks —
// so the test decides frame by frame where a stream is lost.

// bump returns a copy of snap with one element of tensor ti moved.
func bump(snap nn.Snapshot, ti, elem int) nn.Snapshot {
	out := snap.Clone()
	out[ti].Data[elem]++
	return out
}

// deltaBase brings a scripted consumer to the state every test here starts
// from: v1 installed from a full stream and hashed, v2 — one chunk moved —
// installed as the first delta, copied out of v1 (nothing was prepared
// yet), and v2's clone started behind it. It returns the checkpoint Next
// handed out for v2 and what was published as v2.
func deltaBase(t *testing.T, s *script) (held *vformat.Checkpoint, snap2 nn.Snapshot) {
	t.Helper()
	snap1 := flatSnapshot(1, 2<<10)
	v1 := s.deliver(1, snap1)
	s.haveIs(1, v1) // v1 is hashed: it is the span source
	snap2 = bump(snap1, 0, 0)
	s.deliverDelta(2, snap2)
	if got := s.cons.Stats(); got.DeltaLoads != 1 || got.PreparedInstalls != 0 || got.PreparedDiscards != 0 {
		t.Fatalf("after the first delta: %+v, want one delta load, nothing prepared, nothing discarded", got)
	}
	return s.cons.Active(), snap2
}

// deltaOver scripts the delta stream of version against the consumer's
// span source now.
func (s *script) deltaOver(version uint64, snap nn.Snapshot) []transport.Frame {
	s.t.Helper()
	return s.deltaFrames(version, snap, sourceHashes(s.cons))
}

// deliverDelta streams version as a delta, announces it, waits for Next to
// install it bit for bit and for the have-list behind the install.
func (s *script) deliverDelta(version uint64, snap nn.Snapshot) {
	s.t.Helper()
	s.send(s.deltaOver(version, snap)...)
	res := s.next()
	s.notify(version, true)
	s.install(res, version, snap)
	s.recvHave()
}

// backSlot reads the consumer's back-buffer slot.
func heldSlot(c *Consumer) *backSlot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.back
}

// slowClone swaps the slot's clone, once made, for one the test finishes by
// hand.
func (s *script) slowClone() (finish func()) {
	made := heldSlot(s.cons)
	<-made.ready
	pending := &backSlot{ready: make(chan struct{})}
	s.cons.mu.Lock()
	s.cons.back = pending
	s.cons.mu.Unlock()
	return func() {
		pending.buf = made.buf
		close(pending.ready)
	}
}

// TestLostDeltaDiscardsTheBackBuffer: v3's delta stream is lost after its
// first record has been decoded into the back buffer — torn by a stray
// frame, superseded by v4's manifest mid-stream, or failing a record's CRC.
// The buffer it wrote into is let go: the slot is empty, the span source is
// still a complete build, and v4 — a delta on v2 that does not carry v3's
// change, so a reused buffer would show — is assembled by copying and
// installs bit for bit from the link. The checkpoint Next returned for v2
// is byte for byte what was published for as long as it is valid, until
// Next returns v4. v5 is then patched into the clone made behind v4: one
// loss costs one copied install, no more.
func TestLostDeltaDiscardsTheBackBuffer(t *testing.T) {
	// lost holds once v3's build is gone, and with it the buffer it wrote
	// into: not in the slot, not parked, not the span source.
	lost := func(c *Consumer) bool {
		return c.linkVersion == 3 && c.building == 0 && len(c.parked) == 0 && c.back == nil && c.sourceVersion == 2
	}
	for _, tc := range []struct {
		name string
		// lose sends v3's frames so that the build is lost, followed — or,
		// when v4 is what tears it, interrupted — by v4's.
		lose func(s *script, v3, v4 []transport.Frame)
	}{
		{"torn after its first record", func(s *script, v3, v4 []transport.Frame) {
			s.send(v3[0], v3[1], stray(3))
			s.waitBuilder("v3 torn", lost)
			s.send(v4...)
		}},
		{"superseded mid-stream", func(s *script, v3, v4 []transport.Frame) {
			s.send(v3[0], v3[1])
			s.send(v4...)
		}},
		{"a flipped byte in its second record", func(s *script, v3, v4 []transport.Frame) {
			s.send(v3[0], v3[1], corrupted(v3[2]))
			s.waitBuilder("v3 rejected", lost)
			s.send(v4...)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := startScript(t)
			held, snap2 := deltaBase(t, s)
			snap3 := bump(bump(snap2, 0, 200), 1, 1000) // chunks 1 and 13
			snap4 := bump(snap2, 1, 100)                // chunk 6; not v3's chunks
			v3, v4 := s.deltaOver(3, snap3), s.deltaOver(4, snap4)
			if len(v3) != 3 || len(v4) != 2 {
				t.Fatalf("set-up: v3 is %d frames, v4 %d; want a manifest with two records and one with one", len(v3), len(v4))
			}
			abandonedBefore := abandonedBuilds.Value()
			tc.lose(s, v3, v4)
			s.waitBuilder("v4 parked", parkedAre(4))
			if got := s.cons.Stats(); got.PreparedDiscards != 1 || got.PreparedInstalls != 0 {
				t.Fatalf("with v3 lost: %+v, want its back buffer discarded and nothing installed from one", got)
			}
			if d := abandonedBuilds.Value() - abandonedBefore; d != 1 {
				t.Fatalf("%d builds abandoned, want v3's", d)
			}
			if !snapshotsEqual(held.Weights, snap2) {
				t.Fatal("the checkpoint Next returned for v2 changed while v3 was being patched beside it")
			}
			before := inheritedNow()
			res := s.next()
			s.notify(4, true)
			s.install(res, 4, snap4)
			s.recvHave()
			if got := inheritedNow() - before; got != 15 {
				t.Fatalf("v4 over the v2 source inherited %d positions, want 15", got)
			}
			if got := s.cons.Stats(); got.PreparedInstalls != 0 || got.DeltaLoads != 2 || got.StagedLoads != 0 {
				t.Fatalf("after v4: %+v, want a second delta load from the link, assembled by copying", got)
			}

			snap5 := bump(snap4, 1, 500) // chunk 9
			s.deliverDelta(5, snap5)
			if got := s.cons.Stats(); got.PreparedInstalls != 1 || got.PreparedDiscards != 1 || got.DeltaLoads != 3 {
				t.Fatalf("after v5: %+v, want it patched into v4's clone", got)
			}
		})
	}
}

// TestNewerSourceDropsTheBackBuffer: a full-stream install whose records the
// filler has hashed becomes the span source, and the clone of the source
// before it is dropped unused — a full stream starts no clone of its own, so
// the delta after it copies, and the one after that is prepared again.
func TestNewerSourceDropsTheBackBuffer(t *testing.T) {
	s := startScript(t)
	deltaBase(t, s)
	snap3 := flatSnapshot(3, 2<<10)
	s.haveIs(3, s.deliver(3, snap3))
	if got := sourceVersion(s.cons); got != 3 || heldSlot(s.cons) != nil {
		t.Fatalf("with v3 hashed: source v%d, back buffer held: %v; want v3 and none", got, heldSlot(s.cons) != nil)
	}
	if got := s.cons.Stats(); got.PreparedDiscards != 1 {
		t.Fatalf("%+v, want v2's clone discarded when v3 became the source", got)
	}
	snap4 := bump(snap3, 1, 100)
	s.deliverDelta(4, snap4)
	snap5 := bump(snap4, 1, 500)
	s.deliverDelta(5, snap5)
	if got := s.cons.Stats(); got.DeltaLoads != 3 || got.PreparedInstalls != 1 || got.PreparedDiscards != 1 || got.StagedLoads != 0 {
		t.Fatalf("%+v, want v4 copied out of v3 and v5 patched into v4's clone", got)
	}
}

// TestManifestWaitsForItsClone: a manifest that arrives while the source's
// clone is still being made waits for it instead of allocating a second
// copy — had it not waited, the install would have been copied, not
// prepared — and is patched into it once it is ready. Close ends the wait:
// the builder exits, the build is dropped, and the clone it never got
// counts as discarded.
func TestManifestWaitsForItsClone(t *testing.T) {
	t.Run("patched once the clone is ready", func(t *testing.T) {
		s := startScript(t)
		_, snap2 := deltaBase(t, s)
		finish := s.slowClone()
		snap3 := bump(snap2, 1, 100)
		s.send(s.deltaOver(3, snap3)...)
		s.waitBuilder("v3 building", func(c *Consumer) bool { return c.building == 3 })
		res := s.next()
		s.notify(3, true)
		finish()
		s.install(res, 3, snap3)
		if got := s.cons.Stats(); got.PreparedInstalls != 1 || got.PreparedDiscards != 0 {
			t.Fatalf("%+v, want v3 patched into the clone it waited for", got)
		}
	})
	t.Run("Close ends the wait", func(t *testing.T) {
		s := startScript(t)
		_, snap2 := deltaBase(t, s)
		s.slowClone()
		s.send(s.deltaOver(3, bump(snap2, 1, 100))...)
		s.waitBuilder("v3 building", func(c *Consumer) bool { return c.building == 3 })
		s.cons.Close() // returns: the builder was woken
		if got := s.cons.Stats(); got.PreparedDiscards != 1 || got.PreparedInstalls != 0 {
			t.Fatalf("%+v, want the clone the builder was waiting for discarded", got)
		}
	})
}

// TestHaveListFollowsTheClone: the have-list invites the next delta, so the
// filler sends it only once the clone that delta is patched into is ready —
// a sender that paces itself on have-lists never encodes while the consumer
// is still copying. Close ends the wait with nothing advertised.
func TestHaveListFollowsTheClone(t *testing.T) {
	t.Run("sent once the clone is ready", func(t *testing.T) {
		s := startScript(t)
		deltaBase(t, s)
		finish := s.slowClone()
		s.cons.queueFill(&sourceFill{version: 2})
		finish()
		if v, _ := s.recvHave(); v != 2 {
			t.Fatalf("have-list of v%d, want v2's second one", v)
		}
	})
	t.Run("Close ends the wait", func(t *testing.T) {
		s := startScript(t)
		deltaBase(t, s)
		s.slowClone()
		s.cons.queueFill(&sourceFill{version: 2})
		waitFor(t, "the filler to take the fill", func() bool {
			s.cons.fills.mu.Lock()
			defer s.cons.fills.mu.Unlock()
			return s.cons.fills.pending == nil
		})
		s.noMoreFrames()
	})
}

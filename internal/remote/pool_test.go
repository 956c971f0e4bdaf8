package remote

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"viper/internal/bufpool"
	"viper/internal/faults"
	"viper/internal/nn"
	"viper/internal/transport"
)

// The tests below hold the consumer to the receive pool's ownership
// contract (transport.RecvPool; DESIGN.md §8): every link payload goes back
// at most once, and only when nothing can read it any more. TestMain arms
// the pools' check for the whole package, so a payload handed back too
// early reads 0xDB wherever it is still used — a record CRC, a record
// being decoded, a header — and one handed back twice panics; here each
// hand-back point is driven on purpose and counted.

var (
	poolReleased = transport.Metrics().Counter("tcp_recv_pool_released")
	abandoned    = Metrics().Counter("consumer_abandoned_builds")
)

// bothKinds runs body on a consumer with reconciliation on, whose filler
// hashes each full-stream install behind it, and on one with it off. The
// subtests keep the names they had while the first kind held a full
// stream's records for its filler; neither holds a record now.
func bothKinds(t *testing.T, body func(t *testing.T, s *script, reconcile bool)) {
	for _, reconcile := range []bool{true, false} {
		name := map[bool]string{true: "records kept", false: "records not kept"}[reconcile]
		t.Run(name, func(t *testing.T) {
			body(t, startScriptWith(t, func(cfg *ConsumerConfig) { cfg.DisableDeltaReconcile = !reconcile }), reconcile)
		})
	}
}

func poisoned(b []byte) bool {
	return len(b) > 0 && bytes.Count(b, []byte{bufpool.Poison}) == len(b)
}

// TestDroppedBuildReleasesItsRecordsOnly: a build a newer stream's header
// interrupts hands back exactly the records it received — and not the
// interrupting frame, which the collector had already passed through the
// builder's hands and which still has to open the next build — and the
// build that parks hands back its own as it decodes them, with
// reconciliation on or off. A foreign record frame that interrupts a build
// is handed back once, as the stale frame it is.
func TestDroppedBuildReleasesItsRecordsOnly(t *testing.T) {
	bothKinds(t, func(t *testing.T, s *script, reconcile bool) {
		snaps := []nn.Snapshot{nil, flatSnapshot(1, 4<<10), flatSnapshot(2, 4<<10), flatSnapshot(3, 4<<10)}
		v1, _ := s.stream(1, snaps[1])
		v2, _ := s.stream(2, snaps[2])
		v3, _ := s.stream(3, snaps[3])
		before, torn := poolReleased.Value(), abandoned.Value()

		s.send(v1[:len(v1)-1]...) // all of v1 but its last record
		s.send(v2...)             // v2's header interrupts it
		s.waitBuilder("v2 parked over the torn v1", parkedAre(2))
		// v1's received records, and v2's own as they were decoded.
		records := int64(len(v1)-2) + int64(len(v2)-1)
		if got := poolReleased.Value() - before; got != records || abandoned.Value() != torn+1 {
			t.Fatalf("the pool took %d payloads back (%d builds abandoned), want v1's and v2's %d records and nothing else", got, abandoned.Value()-torn, records)
		}
		res := s.next()
		s.notify(2, true)
		s.install(res, 2, snaps[2]) // from the link: the interrupting header was intact
		if reconcile {
			s.haveIs(2, recordHashes(v2)) // hashed from the weights, the records long gone
		}

		// v3 is interrupted by a record of a stream that never opened.
		before = poolReleased.Value()
		s.send(v3[:3]...)
		foreign := v1[len(v1)-1]
		foreign.Meta = map[string]string{"model": "m", "version": "4", transport.MetaChunkRole: transport.ChunkRoleChunk}
		foreign.Key = "m/v4"
		s.send(foreign)
		s.waitBuilder("v3 torn by the stray record", func(c *Consumer) bool { return c.linkVersion == 4 && c.building == 0 })
		// The builder hands the stray back right after it moved the link
		// position; a second hand-back of anything would panic (TestMain).
		waitFor(t, "v3's 2 records and the stray one handed back", func() bool { return poolReleased.Value()-before == 2+1 })
		if got := s.cons.Stats(); got.LinkLoads != 1 || got.StagedLoads != 0 {
			t.Fatalf("consumer stats %+v, want v2 installed from the link", got)
		}
	})
}

// TestStaleFramesAreReleased: frames at or below the link position — the
// tail of a stream whose build was abandoned, a redelivery — are handed
// back as the builder discards them, once each, and cost the parked build
// above them nothing.
func TestStaleFramesAreReleased(t *testing.T) {
	bothKinds(t, func(t *testing.T, s *script, reconcile bool) {
		snap1, snap2 := flatSnapshot(1, 4<<10), flatSnapshot(2, 4<<10)
		v1, _ := s.stream(1, snap1)
		v2, _ := s.stream(2, snap2)
		s.send(v2...)
		s.waitBuilder("v2 parked", parkedAre(2))
		before, discarded := poolReleased.Value(), s.cons.Stats().DiscardedFrames
		s.send(v1...)     // a whole stale stream: header and records alike
		s.send(v2[1:]...) // and the parked build's own records, redelivered
		s.send(stray(3))  // the builder has seen everything before this one
		stale := int64(len(v1) + len(v2) - 1)
		waitFor(t, "the stale frames and the stray discarded", func() bool { return s.cons.Stats().DiscardedFrames-discarded == stale+1 })
		// Every stale payload is handed back; the pool counts those of its
		// sizes, which headers and records are and the stray's 12 bytes are not.
		if got := poolReleased.Value() - before; got != stale {
			t.Fatalf("the pool took %d payloads back, want the %d stale frames'", got, stale)
		}
		res := s.next()
		s.notify(2, true)
		s.install(res, 2, snap2)
	})
}

// TestCloseWithFramesInFlight: Close while the link is mid-stream, a
// complete build is parked and a fill is waiting hands
// nothing back that something could still read: what the consumer
// returned before stays bit-identical, and whatever was in flight is
// simply let go — releasing is an optimisation, not a duty.
func TestCloseWithFramesInFlight(t *testing.T) {
	bothKinds(t, func(t *testing.T, s *script, reconcile bool) {
		snaps := []nn.Snapshot{nil, flatSnapshot(1, 4<<10), flatSnapshot(2, 4<<10), flatSnapshot(3, 4<<10)}
		v1, _ := s.stream(1, snaps[1])
		s.send(v1...)
		res := s.next()
		s.notify(1, true)
		r := <-res
		if r.err != nil {
			t.Fatal(r.err)
		}
		v2, _ := s.stream(2, snaps[2])
		v3, _ := s.stream(3, snaps[3])
		s.send(v2...)
		s.waitBuilder("v2 parked", parkedAre(2))
		done := make(chan struct{})
		go func() { // the rest of v3 races Close
			defer close(done)
			for _, f := range v3 {
				if s.peer.Send(f) != nil {
					return
				}
			}
		}()
		s.cons.Close()
		s.peer.Close()
		<-done
		if r.ckpt.Version != 1 || !snapshotsEqual(r.ckpt.Weights, snaps[1]) || s.cons.Active() != r.ckpt {
			t.Fatal("the checkpoint installed before Close changed under it")
		}
	})
}

// The per-hop corruption drills, direct link. One byte is flipped in
// flight, once: (a) inside a chunk record's payload, which the frame CRC
// leaves to the record's own — the link delivers the frame, the assembler
// refuses the record, the build is dropped as a group and the version
// comes from staging at its notification, without waiting out LinkWait and
// without the link being torn down; (b) inside a meta tag — the third byte
// of the role value of v1's first record frame, in the middle of its
// stream; no other frame carries that value — which the frame
// CRC covers (nothing did before): Recv fails with ErrCorruptFrame, the
// link is redialled, and the version comes from staging once its build has
// stalled for LinkWait. Either way what
// is installed is bit-identical to what was published, and the next
// version travels the link again.
func TestCorruptionDrillDirectLink(t *testing.T) {
	corrupt := transport.Metrics().Counter("tcp_corrupt_frames")
	for _, tc := range []struct {
		name     string
		marker   string
		offset   int
		frameCRC bool // the flip is one the frame CRC catches
	}{
		{"record payload", "VCHK", 1000, false},
		{"meta tag", faults.WireField(transport.ChunkRoleChunk), 10, true},
	} {
		for _, noDelta := range []bool{false, true} {
			// Named as bothKinds names the reconcile-on and -off consumers.
			t.Run(tc.name+map[bool]string{false: ", records kept", true: ", records not kept"}[noDelta], func(t *testing.T) {
				flip := faults.NewFlipper(tc.marker, tc.offset)
				// A damaged record must never make the consumer sit out LinkWait;
				// a torn connection leaves its build waiting for frames that will
				// not come, which is what LinkWait is for.
				linkWait := time.Minute
				if tc.frameCRC {
					linkWait = 200 * time.Millisecond
				}
				prod, cons := startChunkedPair(t, nil, chunkedPairConfig{
					chunkSize: 4 << 10, linkWrap: flip.Wrap, noDelta: noDelta, linkWait: linkWait,
				})
				torn, rejected := abandoned.Value(), corrupt.Value()
				for v := uint64(1); v <= 3; v++ {
					snap := flatSnapshot(int64(v), 4<<10)
					if _, err := prod.Publish(snap, v, 0.5); err != nil {
						t.Fatal(err)
					}
					start := time.Now()
					ckpt, err := cons.Next(20 * time.Second)
					if err != nil {
						t.Fatalf("v%d: %v (consumer %+v)", v, err, cons.Stats())
					}
					if ckpt.Version != v || !snapshotsEqual(ckpt.Weights, snap) {
						t.Fatalf("v%d installed as v%d, bit-identical: %v", v, ckpt.Version, snapshotsEqual(ckpt.Weights, snap))
					}
					if d := time.Since(start); d > 10*time.Second {
						t.Fatalf("v%d took %v to install: the consumer waited for a build that was already lost", v, d)
					}
				}
				if !flip.Fired() {
					t.Fatal("the drill never flipped its byte")
				}
				s, l := cons.Stats(), cons.link.Stats()
				if s.StagedLoads != 1 || s.LinkLoads != 2 {
					t.Fatalf("consumer stats %+v, want the damaged version from staging and the others from the link", s)
				}
				if got := corrupt.Value() - rejected; (got == 1) != tc.frameCRC {
					t.Fatalf("tcp_corrupt_frames moved by %d", got)
				}
				if tc.frameCRC && l.Connects < 2 {
					t.Fatalf("link stats %+v: a frame that failed its CRC must cost the connection", l)
				}
				if !tc.frameCRC && (l.Connects != 1 || abandoned.Value() == torn) {
					t.Fatalf("link stats %+v, %d builds abandoned: a damaged record costs its build, not the connection", l, abandoned.Value()-torn)
				}
			})
		}
	}
}

// TestReadAheadBoundsReceiveBuffers: however far the builder falls behind,
// the pump reads at most transport.ReadAhead frames ahead of it, so a
// stream draws no more fresh receive buffers than that plus readAheadSlack,
// the frame the pump holds while the hand-off is full and the one the
// builder is decoding; TCP back-pressure holds the rest of the stream. The
// builder is frozen (c.mu held) before a 64-record stream's header
// arrives and released once the hand-off is full. The consumer has the
// default read-ahead and reconciliation off, so each record goes back to
// the pool as it is decoded and the next read draws it. A hand-off 32
// deep draws a fresh buffer for each frame it buffers: 32 or more.
func TestReadAheadBoundsReceiveBuffers(t *testing.T) {
	const (
		records        = 64
		readAheadSlack = 2
	)
	prod, cons := startChunkedPair(t, nil, chunkedPairConfig{chunkSize: 1 << 10, noDelta: true})
	reused := transport.Metrics().Counter("tcp_recv_pool_reused")
	snap := flatSnapshot(11, records<<7) // 128 float64 = 1 KiB a record

	unfreeze := sync.OnceFunc(cons.mu.Unlock)
	cons.mu.Lock()
	defer unfreeze()
	before := reused.Value()
	published := make(chan error, 1)
	go func() {
		_, err := prod.Publish(snap, 1, 0.5)
		published <- err
	}()
	waitFor(t, "the hand-off full behind the frozen builder", func() bool { return len(cons.frames) == cap(cons.frames) })
	unfreeze()
	if err := <-published; err != nil {
		t.Fatal(err)
	}
	ckpt, err := cons.Next(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !snapshotsEqual(ckpt.Weights, snap) || cons.Stats() != (ConsumerStats{LinkLoads: 1}) {
		t.Fatalf("not a bit-identical install from the link (%+v)", cons.Stats())
	}
	if fresh := records - (reused.Value() - before); fresh > transport.ReadAhead+readAheadSlack {
		t.Fatalf("the stream's %d records drew %d fresh receive buffers, want at most %d (read-ahead %d + %d)",
			records, fresh, transport.ReadAhead+readAheadSlack, transport.ReadAhead, readAheadSlack)
	}
}

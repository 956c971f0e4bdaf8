package relay

import (
	"net"
	"testing"
	"time"

	"viper/internal/faults"
	"viper/internal/nn"
	"viper/internal/remote"
	"viper/internal/transport"
)

// The per-hop corruption drills, relay hops (the direct link's are in
// internal/remote). One byte is flipped in flight, once, on the producer →
// relay hop or on the relay → consumer hop of a store-backed relay fanning
// out to two consumers:
//
//	(a) inside a chunk record's payload. The frame CRC leaves those bytes to
//	    the record's own, so the link delivers the frame and the first
//	    receiver that would use the record refuses it: relay ingest counts a
//	    corrupt chunk and drops the build whole — the version is never
//	    cached, stored or fanned out — or the consumer's assembler drops its
//	    build as a group. No connection is torn down.
//	(b) inside a meta tag, which the frame CRC covers (nothing did before):
//	    Recv fails with ErrCorruptFrame, tcp_corrupt_frames moves by one and
//	    the link is redialled. The byte flipped is the third of the role
//	    value of the first record frame of v1, a frame in the middle of its
//	    stream; no other frame carries that value.
//
// Either way every consumer converges and every install is bit-identical
// to a published version.
func TestCorruptionDrillRelayHops(t *testing.T) {
	corrupt := transport.Metrics().Counter("tcp_corrupt_frames")
	torn := remote.Metrics().Counter("consumer_abandoned_builds")
	for _, tc := range []struct {
		name     string
		ingest   bool // the producer → relay hop; else relay → consumer
		marker   string
		offset   int
		frameCRC bool
	}{
		{"producer to relay, record payload", true, "VCHK", 60, false},
		{"producer to relay, meta tag", true, faults.WireField(transport.ChunkRoleChunk), 10, true},
		{"relay to consumer, record payload", false, "VCHK", 60, false},
		{"relay to consumer, meta tag", false, faults.WireField(transport.ChunkRoleChunk), 10, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			metaAddr, notifyAddr := testServices(t)
			flip := faults.NewFlipper(tc.marker, tc.offset)
			cfg := Config{
				IngestAddr: "127.0.0.1:0", ServeAddr: "127.0.0.1:0",
				MetaAddr: metaAddr, NotifyAddr: notifyAddr, Retry: quickPolicy(60),
				StoreDir: t.TempDir(),
			}
			pcfg := remote.ProducerConfig{
				Model: "m", MetaAddr: metaAddr, NotifyAddr: notifyAddr,
				Retry: quickPolicy(61), ChunkSize: 128,
			}
			if tc.ingest {
				pcfg.RelayDial = func(a string) (net.Conn, error) {
					c, err := net.Dial("tcp", a)
					if err != nil {
						return nil, err
					}
					return flip.Wrap(c), nil
				}
			} else {
				cfg.ServeWrap = flip.Wrap
			}
			r, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { closeChecked(t, r) })
			pcfg.RelayAddr = r.IngestAddr()
			prod, err := remote.NewProducer(pcfg)
			if err != nil {
				t.Fatal(err)
			}
			defer prod.Close()
			consumers := make([]*remote.Consumer, 2)
			for i := range consumers {
				c, err := remote.NewConsumer(remote.ConsumerConfig{
					Model: "m", MetaAddr: metaAddr, NotifyAddr: notifyAddr,
					ProducerAddr: r.ServeAddr(), Retry: quickPolicy(int64(62 + i)),
					LinkWait: 300 * time.Millisecond,
				})
				if err != nil {
					t.Fatalf("consumer %d: %v", i, err)
				}
				defer c.Close()
				consumers[i] = c
			}
			waitFor(t, 5*time.Second, func() bool { return r.Stats().Sessions >= 2 }, "both consumers attached")

			rejected, abandoned := corrupt.Value(), torn.Value()
			published := make(map[uint64]nn.Snapshot)
			for v := uint64(1); v <= 3; v++ {
				snap := wideSnapshot(int64(70 + v))
				meta, err := prod.Publish(snap, v, 0.5)
				if err != nil {
					t.Fatalf("publish v%d: %v", v, err)
				}
				published[meta.Version] = snap
				for i, c := range consumers {
					if !converge(t, c, published, meta.Version, 20*time.Second) {
						t.Fatalf("consumer %d stuck before v%d: %+v", i, meta.Version, c.Stats())
					}
				}
			}
			if !flip.Fired() {
				t.Fatal("the drill never flipped its byte")
			}
			// A commit counts itself last, after the insert that wakes the
			// sessions: a consumer can have installed the version by then.
			waitFor(t, 5*time.Second, func() bool { s := r.Stats(); return s.CachedVersions == s.StoredVersions }, "the last commit counted")
			rs := r.Stats()
			var staged int64
			for _, c := range consumers {
				staged += c.Stats().StagedLoads
			}
			if got := corrupt.Value() - rejected; (got == 1) != tc.frameCRC {
				t.Fatalf("tcp_corrupt_frames moved by %d (relay %+v)", got, rs)
			}
			switch {
			case tc.frameCRC:
				// The torn connection cost whatever was in flight on it.
			case tc.ingest:
				// v1 was damaged on its way in: it is in no tier and reached
				// nobody through the relay.
				if rs.CorruptChunks != 1 || rs.CachedVersions != 2 || rs.StoredVersions != 2 || staged != 2 {
					t.Fatalf("relay %+v, %d staged installs: want v1 refused at ingest (one corrupt chunk), v2 and v3 cached and stored, v1 from staging on both consumers", rs, staged)
				}
				for _, info := range r.Inventory() {
					if info.Version == 1 {
						t.Fatalf("the damaged version is in the catalogue: %+v", info)
					}
				}
			default:
				// v1 was sound at the relay and damaged on its way to one
				// consumer, whose assembler dropped the build.
				if rs.CorruptChunks != 0 || rs.CachedVersions != 3 || torn.Value() == abandoned || staged != 1 {
					t.Fatalf("relay %+v, %d consumer builds abandoned, %d staged installs: want all three versions cached, one consumer's v1 build dropped and that install from staging",
						rs, torn.Value()-abandoned, staged)
				}
			}
		})
	}
}

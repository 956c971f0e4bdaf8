package remote

import (
	"context"
	"strconv"
	"sync"
	"testing"
	"time"

	"viper/internal/core"
	"viper/internal/nn"
	"viper/internal/transport"
	"viper/internal/vformat"
)

// The tests below cover the span source: which build the consumer's
// builder copies unchanged chunks out of, when it knows that build's
// hashes, and that whatever it cannot vouch for still goes through the
// chunk cache and, failing that, the need-list.

// sourceVersion reads the version of the consumer's span source (0 =
// none).
func sourceVersion(c *Consumer) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sourceVersion
}

// deltaCounters samples the consumer-side delta work counters.
type deltaCounters struct{ inherited, decoded int64 }

func sampleDeltaCounters() deltaCounters {
	return deltaCounters{
		inherited: Metrics().Counter("consumer_inherited_chunks").Value(),
		decoded:   Metrics().Counter("consumer_cache_decoded_chunks").Value(),
	}
}

func (a deltaCounters) since(b deltaCounters) deltaCounters {
	return deltaCounters{a.inherited - b.inherited, a.decoded - b.decoded}
}

// TestABADrillKeepsTheNeedListPath: chunk 0 holds content A in v1, B in
// v2 and A again in v3 and v5. The span source is always the previous
// version, which holds the other content at that position, so chunk 0 is
// the one position that cannot be inherited. While the cache still holds
// A's record (v3) it is decoded from there; once the cache has lost it
// (v5) — after advertising it, so the producer elides it — the position
// is need-listed back, re-sent from the producer's retained blob and the
// version installs bit for bit as a delta, never from staging. Every
// other position is inherited throughout.
func TestABADrillKeepsTheNeedListPath(t *testing.T) {
	const chunkSize = 64
	prod, cons := startChunkedPair(t, nil, chunkedPairConfig{chunkSize: chunkSize})
	a := nn.TakeSnapshot(testModel(93))
	b := a.Clone()
	b[0].Data[0] += 1 // element 0 lives in chunk 0
	chunks := int64((a.NumBytes() + chunkSize - 1) / chunkSize)
	publish := func(version uint64, snap nn.Snapshot) deltaCounters {
		t.Helper()
		before := sampleDeltaCounters()
		if _, err := prod.Publish(snap, version, 0.5); err != nil {
			t.Fatal(err)
		}
		ckpt, err := cons.Next(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if ckpt.Version != version || !snapshotsEqual(ckpt.Weights, snap) {
			t.Fatalf("installed v%d (equal=%v), want bit-identical v%d", ckpt.Version, snapshotsEqual(ckpt.Weights, snap), version)
		}
		// The next publish plans against this install's advertisement.
		waitFor(t, "the have-list of v"+strconv.FormatUint(version, 10), func() bool { return prod.Stats().HaveLists >= int64(version) })
		return sampleDeltaCounters().since(before)
	}
	publish(1, a) // whole; the filler's hashes make it the source
	if got := publish(2, b); got != (deltaCounters{inherited: chunks - 1}) {
		t.Fatalf("v2 (chunk 0 shipped): %+v, want the other %d positions inherited", got, chunks-1)
	}
	if got := publish(3, a); got != (deltaCounters{inherited: chunks - 1, decoded: 1}) {
		t.Fatalf("v3 (back to A, its record still cached): %+v, want chunk 0 decoded from the cache", got)
	}
	publish(4, b)

	// Lose A's chunk 0 between the advertisement and the delivery.
	var hashA vformat.ChunkHash
	func() {
		blob, err := vformat.EncodeChunked(context.Background(), &vformat.Checkpoint{ModelName: "m", Weights: a}, vformat.ChunkOptions{ChunkBytes: chunkSize})
		if err != nil {
			t.Fatal(err)
		}
		defer vformat.ReleaseBuffer(blob)
		hashes, err := vformat.ChunkHashesOf(blob)
		if err != nil {
			t.Fatal(err)
		}
		hashA = hashes[0]
	}()
	if _, ok := cons.cache.Get(hashA); !ok {
		t.Fatal("set-up: the cache does not hold A's chunk 0")
	}
	cons.cache.Drop(hashA)
	sentBefore := transport.Metrics().Counter("chunks_sent_total").Value()
	loads := cons.Stats()
	if got := publish(5, a); got != (deltaCounters{inherited: chunks - 1}) {
		t.Fatalf("v5 (back to A, its record lost): %+v, want chunk 0 neither inherited nor found cached", got)
	}
	if d := transport.Metrics().Counter("chunks_sent_total").Value() - sentBefore; d != 0 {
		t.Fatalf("the producer's stream shipped %d records; it was told the consumer holds them all", d)
	}
	// Nothing shipped, not in the source, not in the cache, and yet
	// installed bit for bit without the staging copy: only a need-list
	// answered from the producer's retained blob can have supplied it.
	if s := cons.Stats(); s.DeltaLoads != loads.DeltaLoads+1 || s.StagedLoads != 0 || s.LinkLoads != loads.LinkLoads+1 {
		t.Fatalf("stats %+v (before v5: %+v), want one more delta load and nothing from staging", s, loads)
	}
}

// deltaFrames scripts the delta stream a producer holding the have-list
// have would send for snap: the manifest frame, then the records have
// does not name.
func (s *script) deltaFrames(version uint64, snap nn.Snapshot, have []vformat.ChunkHash) []transport.Frame {
	s.t.Helper()
	_, blob := s.stream(version, snap)
	held := make(map[vformat.ChunkHash]bool, len(have))
	for _, h := range have {
		held[h] = true
	}
	manifest, records, hashes, _, err := vformat.PlanDelta(blob, func(h vformat.ChunkHash) bool { return held[h] })
	if err != nil {
		s.t.Fatal(err)
	}
	var sink frameSink
	tags := map[string]string{"model": "m", "version": strconv.FormatUint(version, 10)}
	if err := transport.SendChunkedDelta(context.Background(), transport.WithMeta(&sink, tags), core.CheckpointKey("m", version), manifest, records, len(hashes), len(blob), 0); err != nil {
		s.t.Fatal(err)
	}
	return sink.frames
}

// TestSupersededFillOffersNoSource: v1 is installed and hashed, so it is
// the span source, and the filler is parked inside its have-list write.
// v2 and v3 then install from full streams: v2's fill is superseded, v3's
// waits, and neither has offered anything — the source is still v1, the
// newest build whose hashes are known. A delta on v1's content that lands
// now is assembled from that: no record of v2 or v3 was ever hashed, the
// consumer's side of the link is shut (a need-list would park the build
// there), and the install is bit for bit. When the filler moves again, v3
// — hashed at last — becomes the source; v2 never does.
func TestSupersededFillOffersNoSource(t *testing.T) {
	gate := newConnGate()
	s := startScriptDial(t, gate.dial)
	defer gate.release() // before the script's cleanup: Close joins the parked filler
	superseded := Metrics().Counter("consumer_fill_superseded")
	supersededBefore := superseded.Value()
	snap1 := flatSnapshot(1, 2<<10)
	gate.hold()
	v1 := s.deliver(1, snap1)
	gate.waitBlocked(t) // v1 cached and offered; its have-list is stuck in the gate
	if got := sourceVersion(s.cons); got != 1 {
		t.Fatalf("with v1 hashed the span source is v%d, want v1", got)
	}
	v2 := s.deliver(2, flatSnapshot(2, 2<<10))
	s.deliver(3, flatSnapshot(3, 2<<10))
	if d := superseded.Value() - supersededBefore; d != 1 {
		t.Fatalf("consumer_fill_superseded moved by %d, want v2's fill superseded by v3's", d)
	}
	if got := sourceVersion(s.cons); got != 1 {
		t.Fatalf("the span source is v%d; neither the superseded v2 nor the waiting v3 has hashes to offer", got)
	}

	snap4 := snap1.Clone()
	snap4[1].Data[5] += 1
	before := sampleDeltaCounters()
	s.send(s.deltaFrames(4, snap4, v1)...)
	res := s.next()
	s.notify(4, true)
	s.install(res, 4, snap4)
	if got, want := sampleDeltaCounters().since(before), (deltaCounters{inherited: int64(len(v1) - 1)}); got != want {
		t.Fatalf("v4 over the v1 source: %+v, want %+v", got, want)
	}
	if got := s.cons.Stats(); got.DeltaLoads != 1 || got.StagedLoads != 0 {
		t.Fatalf("consumer stats %+v, want v4 installed as a delta from the link", got)
	}
	if got := sourceVersion(s.cons); got != 4 {
		t.Fatalf("the span source is v%d, want the delta build v4 (its manifest names every hash)", got)
	}
	if n := s.cachedOf(v2); n != 0 {
		t.Fatalf("%d records of the superseded v2 were hashed into the cache", n)
	}
}

// TestReaderHoldsActiveWhileBuilderInherits (run under -race): a serving
// thread keeps reading the checkpoint Active returns — the contract is
// read-only — while the builder copies the unchanged chunks of the next
// version out of the very same weights. Both only read; every install is
// bit for bit.
func TestReaderHoldsActiveWhileBuilderInherits(t *testing.T) {
	const chunkSize = 1 << 10
	prod, cons := startChunkedPair(t, nil, chunkedPairConfig{chunkSize: chunkSize})
	snap := flatSnapshot(5, 8<<10)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var sum float64
		for {
			select {
			case <-stop:
				return
			default:
			}
			if ckpt := cons.Active(); ckpt != nil {
				for _, nt := range ckpt.Weights {
					for _, v := range nt.Data {
						sum += v
					}
				}
			}
		}
	}()
	before := sampleDeltaCounters()
	const versions = 12
	for v := uint64(1); v <= versions; v++ {
		snap[1].Data[int(v)*700%len(snap[1].Data)] += 1
		if _, err := prod.Publish(snap, v, 0.5); err != nil {
			t.Fatal(err)
		}
		ckpt, err := cons.Next(10 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if ckpt != cons.Active() {
			t.Fatal("Next and Active hand out different objects")
		}
		if ckpt.Version != v || !snapshotsEqual(ckpt.Weights, snap) {
			t.Fatalf("installed v%d (equal=%v), want bit-identical v%d", ckpt.Version, snapshotsEqual(ckpt.Weights, snap), v)
		}
		waitFor(t, "the have-list", func() bool { return prod.Stats().HaveLists >= int64(v) })
	}
	close(stop)
	wg.Wait()
	chunks := int64(snap.NumBytes() / chunkSize)
	if got, want := sampleDeltaCounters().since(before), (deltaCounters{inherited: (versions - 1) * (chunks - 1)}); got != want {
		t.Fatalf("%d deltas of one changed chunk: %+v, want %+v", versions-1, got, want)
	}
}

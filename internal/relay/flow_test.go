package relay

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"viper/internal/metrics"
	"viper/internal/nn"
	"viper/internal/transport"
	"viper/internal/vformat"
)

// gatedConn lets the first Write through and blocks every later one
// until the gate is released, freezing a fan-out mid-stream with the
// header already delivered.
type gatedConn struct {
	net.Conn
	release chan struct{}

	mu      sync.Mutex
	writes  int
	blocked bool
}

func (g *gatedConn) Write(p []byte) (int, error) {
	g.mu.Lock()
	g.writes++
	wait := g.writes > 1
	if wait {
		g.blocked = true
	}
	g.mu.Unlock()
	if wait {
		<-g.release
	}
	return g.Conn.Write(p)
}

func (g *gatedConn) isBlocked() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.blocked
}

// freezeFanout starts a relay (store-backed when dir is set) whose serve
// side is gated, pushes v1 of snap, dials a consumer and waits until the
// session has sent v1's header and is frozen on its first record — the
// snapshot of v1 taken, nothing but the header delivered.
func freezeFanout(t *testing.T, dir string, snap nn.Snapshot) (r *Relay, gate *gatedConn, prod, cons *transport.TCPLink) {
	t.Helper()
	gate = &gatedConn{release: make(chan struct{})}
	r, err := New(Config{
		IngestAddr: "127.0.0.1:0", ServeAddr: "127.0.0.1:0",
		Retry: quickPolicy(7), StoreDir: dir,
		ServeWrap: func(c net.Conn) net.Conn {
			gate.Conn = c
			return gate
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeChecked(t, r) })
	if prod, err = transport.DialTCP(r.IngestAddr()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { prod.Close() })
	pushChunked(t, prod, "m", 1, snap, 128)
	waitFor(t, 5*time.Second, func() bool { return r.Stats().CachedVersions == 1 }, "v1 cached")
	if cons, err = transport.DialTCP(r.ServeAddr()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cons.Close() })
	waitFor(t, 5*time.Second, gate.isBlocked, "fan-out frozen mid-stream")
	return r, gate, prod, cons
}

// collectNext assembles the next version stream off cons, opened by
// first when the previous collect already read its header (the foreign
// frame of a torn stream). The error is the collect's; anything else
// fails the test.
func collectNext(t *testing.T, cons *transport.TCPLink, first *transport.Frame) (*vformat.Checkpoint, *transport.Frame, error) {
	t.Helper()
	if first == nil {
		f, err := cons.Recv()
		if err != nil {
			t.Fatal(err)
		}
		first = &f
	}
	if !transport.IsChunkHeader(*first) {
		t.Fatalf("stream opens with %q, not a chunk header", first.Key)
	}
	return transport.CollectChunked(context.Background(), *first, nil, cons.Recv)
}

// TestFrozenFanoutSurvivesSameVnumReplacement is the regression for the
// serve-during-eviction race: a session fanning a version out reads its
// header, manifest and resident records, and ingest churn — here a
// same-vnum re-push, which replaces the catalogue entry and unlists its
// chunks — must not disturb the stream. The session's borrow is the
// snapshot it took when it picked the version, and the version object is
// never written again, so the consumer collects the original bit-for-bit
// even though the cache replaced it while the stream was frozen after
// frame one.
func TestFrozenFanoutSurvivesSameVnumReplacement(t *testing.T) {
	snapA := nn.TakeSnapshot(testModel(70))
	r, gate, prod, cons := freezeFanout(t, "", snapA)

	// Re-push version 1 with different weights: the cache replaces the
	// object the session is serving and drops its chunks at once.
	snapB := nn.TakeSnapshot(testModel(71))
	_, hashesB := encodeVersion(t, "m", 1, snapB, 128)
	pushChunked(t, prod, "m", 1, snapB, 128)
	waitFor(t, 5*time.Second, func() bool { return r.Stats().CachedVersions == 2 }, "replacement cached")
	if got := r.Stats(); got.ReleasedVersions != 1 {
		t.Fatalf("replaced version not released on the spot: %+v", got)
	}
	resident := r.cat.residentChunks()
	if resident != len(hashesB) {
		t.Fatalf("%d chunks resident with the fan-out frozen, want exactly the replacement's %d", resident, len(hashesB))
	}

	// Thaw the stream. The session must finish serving the version it
	// picked (snapA), not the replacement and not a mix.
	close(gate.release)
	ckpt, _, err := collectNext(t, cons, nil)
	if err != nil {
		t.Fatalf("frozen fan-out did not survive the replacement: %v", err)
	}
	if !snapshotsEqual(ckpt.Weights, snapA) {
		t.Fatal("picked version changed mid-fanout")
	}
	if st := r.Stats(); st.CorruptChunks != 0 {
		t.Fatalf("corrupt chunks: %+v", st)
	}
}

// TestFrozenFanoutAcrossEviction and ...AcrossDemotion freeze a fan-out
// of v1 and commit two newer versions behind it: without a store v1 is
// evicted — gone from the catalogue, its records with it — and with one
// it is demoted to a disk shell. After the thaw the consumer
// sees either v1 whole or a torn v1 stream (latest-wins cuts it at the
// next record) followed by the newest version whole; never a mix, never a
// short install.
func TestFrozenFanoutAcrossEviction(t *testing.T) { frozenFanoutAcrossRetention(t, "") }

func TestFrozenFanoutAcrossDemotion(t *testing.T) { frozenFanoutAcrossRetention(t, t.TempDir()) }

func frozenFanoutAcrossRetention(t *testing.T, dir string) {
	snaps := map[uint64]nn.Snapshot{1: nn.TakeSnapshot(testModel(73))}
	r, gate, prod, cons := freezeFanout(t, dir, snaps[1])
	for v := uint64(2); v <= 3; v++ {
		snaps[v] = nn.TakeSnapshot(testModel(int64(72 + v)))
		pushChunked(t, prod, "m", v, snaps[v], 128)
	}
	waitFor(t, 10*time.Second, func() bool { return r.Stats().CachedVersions == 3 }, "newer versions cached")
	st := r.Stats()
	if dir == "" && st.ReleasedVersions != 2 {
		t.Fatalf("v1 and v2 not evicted behind the frozen fan-out: %+v", st)
	}
	if dir != "" && (st.DemotedVersions != 2 || st.ReleasedVersions != 0) {
		t.Fatalf("v1 and v2 not demoted behind the frozen fan-out: %+v", st)
	}
	_, hashes3 := encodeVersion(t, "m", 3, snaps[3], 128)
	resident := r.cat.residentChunks()
	if resident != len(hashes3) {
		t.Fatalf("%d chunks resident with the fan-out frozen, want exactly v3's %d", resident, len(hashes3))
	}

	close(gate.release)
	ckpt, foreign, err := collectNext(t, cons, nil)
	if err != nil {
		// The v1 stream was cut; the newest version follows, whole.
		if !errors.Is(err, transport.ErrTornStream) {
			t.Fatalf("v1 stream ended with %v, want whole or torn", err)
		}
		if ckpt, _, err = collectNext(t, cons, foreign); err != nil {
			t.Fatalf("stream after the torn one: %v", err)
		}
		if ckpt.Version != 3 {
			t.Fatalf("torn v1 stream followed by v%d, want the newest (v3)", ckpt.Version)
		}
	}
	if !snapshotsEqual(ckpt.Weights, snaps[ckpt.Version]) {
		t.Fatalf("v%d installed with bytes that are not v%d's", ckpt.Version, ckpt.Version)
	}
	if st := r.Stats(); st.CorruptChunks != 0 {
		t.Fatalf("corrupt chunks: %+v", st)
	}
}

// TestEvictionReleasesUnpinnedVersions: retention churn frees the
// evicted versions' storage immediately — without a store each commit
// releases the version it supersedes — and the cache gauges track what is
// actually held: the newest version's records and header. With a
// reconciling producer's versions keyed by content, the same snapshot
// pushed again dedups every position against the previous newest.
func TestEvictionReleasesUnpinnedVersions(t *testing.T) {
	r := testRelay(t)
	prod, err := transport.DialTCP(r.IngestAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer prod.Close()
	snap := nn.TakeSnapshot(testModel(72))
	for v := uint64(1); v <= 5; v++ {
		pushReconcile(t, prod, "m", v, snap, 128)
	}
	waitFor(t, 5*time.Second, func() bool { return r.Stats().CachedVersions == 5 }, "5 versions cached")
	st := r.Stats()
	if st.ReleasedVersions != 4 {
		t.Fatalf("eviction accounting: %+v", st)
	}
	inv, err := FetchInventory(r.IngestAddr())
	if err != nil {
		t.Fatal(err)
	}
	if len(inv) != 1 || inv[0].Version != 5 {
		t.Fatalf("inventory %+v, want v5 alone", inv)
	}
	// The same snapshot pushed under every version: v5 must have deduped
	// every one of its chunks.
	if vi := inv[0]; vi.Deduped != vi.Chunks {
		t.Fatalf("v%d deduped %d of %d chunks, want all", vi.Version, vi.Deduped, vi.Chunks)
	}
	snaps := metrics.AllSnapshots()
	var cacheBytes, uniqueChunks int64
	for _, s := range snaps {
		if s.Registry == "relay" {
			cacheBytes = s.Get("cache_bytes").Value
			uniqueChunks = s.Get("unique_chunks").Value
		}
	}
	if cacheBytes != inv[0].Bytes {
		t.Fatalf("cache_bytes gauge %d, want v5's %d bytes", cacheBytes, inv[0].Bytes)
	}
	if int(uniqueChunks) != inv[0].Chunks {
		t.Fatalf("unique_chunks gauge %d != v5's %d records", uniqueChunks, inv[0].Chunks)
	}
}

// TestFetchMetricsRoundTrip: the MetricsKey exchange serves every
// registry in the process, the relay's own counters current in it.
func TestFetchMetricsRoundTrip(t *testing.T) {
	r := testRelay(t)
	prod, err := transport.DialTCP(r.IngestAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer prod.Close()
	pushChunked(t, prod, "m", 1, nn.TakeSnapshot(testModel(75)), 128)
	waitFor(t, 5*time.Second, func() bool { return r.Stats().CachedVersions == 1 }, "version cached")

	snaps, err := FetchMetrics(r.IngestAddr())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]bool{}
	for _, s := range snaps {
		byName[s.Registry] = true
	}
	for _, want := range []string{"relay", "transport"} {
		if !byName[want] {
			t.Fatalf("metrics snapshots missing registry %q (got %v)", want, byName)
		}
	}
	for _, s := range snaps {
		if s.Registry != "relay" {
			continue
		}
		// Counters aggregate process-wide across tests, so bound from
		// below only.
		if s.Get("cached_versions").Value < 1 {
			t.Fatalf("relay cached_versions = %+v, want >= 1", s.Get("cached_versions"))
		}
		if s.Get("ingest_frames").Value < 1 {
			t.Fatalf("relay ingest_frames = %+v, want >= 1", s.Get("ingest_frames"))
		}
	}
}

package relay

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"viper/internal/chunkstore"
	"viper/internal/nn"
	"viper/internal/transport"
	"viper/internal/vformat"
)

// checkInvariants is catalogue.check on a live relay, plus the one thing
// the catalogue cannot see. The store's write handles are counted, not
// paired by hand: building is how many ingest builds the caller knows to
// be in flight with a handle (0 once the relay is closed, and between the
// steps of a sequence that leaves no stream half sent), and the store must
// count exactly that many handles open — a build dropped without abandon,
// or a commit path that forgets its handle, leaves one behind and pins its
// segments for good.
func (r *Relay) checkInvariants(building int) error {
	if r.store != nil {
		if open := r.store.Stats().OpenWriters; open != building {
			return fmt.Errorf("the store counts %d write handles open, %d ingest builds hold one", open, building)
		}
	}
	return r.cat.check(r.store != nil)
}

// closeChecked is the relay tests' cleanup: it closes r — every
// goroutine gone, every unfinished build abandoned — and asserts the
// invariants on the state the test left behind.
func closeChecked(t *testing.T, r *Relay) {
	t.Helper()
	r.Close()
	if err := r.checkInvariants(0); err != nil {
		t.Errorf("relay invariants after close: %v", err)
	}
}

// TestDroppedStoreHandleFailsTheInvariant drops a begun write handle on
// purpose — what a build discarded without abandon would do — and the
// invariant says so until the handle is finished; a push through the same
// relay, handle begun, appended to and committed, leaves the count at 0.
func TestDroppedStoreHandleFailsTheInvariant(t *testing.T) {
	r := storeRelay(t, t.TempDir(), chunkstore.Retention{})
	link, err := transport.DialTCP(r.IngestAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	pushChunked(t, link, "m", 1, wideSnapshot(77), 128)
	waitFor(t, 5*time.Second, func() bool { return r.Stats().StoredVersions == 1 }, "the push stored")
	if err := r.checkInvariants(0); err != nil {
		t.Fatalf("after a committed push: %v", err)
	}
	w := r.store.Begin()
	if err := r.checkInvariants(0); err == nil {
		t.Fatal("a write handle begun and dropped went unnoticed")
	}
	w.Abort()
	if err := r.checkInvariants(0); err != nil {
		t.Fatalf("after the handle was aborted: %v", err)
	}
}

// TestIngestHeaderCountBomb: a header frame's chunk count is a claim, not
// a size. A ~100-byte frame announcing 2^31 or 2^40 records must cost the
// relay nothing until records actually land — build state is keyed by
// arrivals — so the node stays up, its heap does not move, and a normal
// push on the same connection supersedes the claim, commits and serves.
func TestIngestHeaderCountBomb(t *testing.T) {
	for _, claim := range []string{"2147483648", "1099511627776"} {
		t.Run(claim, func(t *testing.T) {
			r := testRelay(t)
			link, err := transport.DialTCP(r.IngestAddr())
			if err != nil {
				t.Fatal(err)
			}
			defer link.Close()

			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			sendFrames(t, link, transport.Frame{Key: "m/v00000001", Payload: []byte{0}, Meta: map[string]string{
				"model": "m", "version": "1",
				transport.MetaChunkRole:  transport.ChunkRoleHeader,
				transport.MetaChunkCount: claim,
			}})
			waitFor(t, 5*time.Second, func() bool { return r.Stats().IngestFrames == 1 }, "the claim ingested")
			// A record the claim covers costs only its own bytes.
			_, recs, _ := streamFrames(t, "m", 1, wideSnapshot(90))
			sendFrames(t, link, recs[3])
			waitFor(t, 5*time.Second, func() bool { return r.Stats().IngestFrames == 2 }, "a record ingested")
			runtime.GC()
			runtime.ReadMemStats(&after)
			if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 1<<20 {
				t.Fatalf("heap grew %d bytes after a header claiming %s records", grew, claim)
			}

			snap := wideSnapshot(91)
			pushChunked(t, link, "m", 2, snap, 128)
			waitFor(t, 5*time.Second, func() bool { return r.Stats().CachedVersions == 1 }, "the push behind the claim cached")
			if st := r.Stats(); st.SupersededBuilds != 1 {
				t.Fatalf("the claim's build was not superseded: %+v", st)
			}
			if ckpt := collectVersion(t, r); ckpt.Version != 2 || !snapshotsEqual(ckpt.Weights, snap) {
				t.Fatalf("served v%d after the claim, want v2 bit for bit", ckpt.Version)
			}
		})
	}
}

// sequence drives one relay through a seeded series of ingest and serve
// events, keeping just enough of a model — the newest version and its
// bytes — to check what joiners are served; checkInvariants runs after
// every step.
type sequence struct {
	t   *testing.T
	r   *Relay
	rng *rand.Rand

	link     *transport.TCPLink // ingest connection, drained in the background
	drained  sync.WaitGroup
	nextVnum uint64
	newest   uint64      // newest catalogued vnum (0: none)
	weights  nn.Snapshot // its bytes
	cached   int64       // commits so far
	builds   int64       // builds superseded or abandoned so far

	arm    atomic.Pointer[gatedConn] // set: the next serve connection is gated
	live   []*transport.TCPLink      // joined consumers
	frozen *frozenSession
}

// frozenSession is a consumer whose session froze after the header of
// the version it picked.
type frozenSession struct {
	cons    *transport.TCPLink
	gate    *gatedConn
	picked  uint64
	weights nn.Snapshot
}

func (q *sequence) dialIngest() {
	link, err := transport.DialTCP(q.r.IngestAddr())
	if err != nil {
		q.t.Fatal(err)
	}
	q.link = link
	// Commits answer delta-capable pushes with have-lists: read them off
	// so the relay's ingest goroutine never blocks on this side.
	q.drained.Add(1)
	go func() {
		defer q.drained.Done()
		for {
			if _, err := link.Recv(); err != nil {
				return
			}
		}
	}()
}

// drift returns the newest weights with a few elements moved, so most
// chunks of the next version dedupe against the resident ones.
func (q *sequence) drift() nn.Snapshot {
	snap := q.weights.Clone()
	for i := 0; i < 1+q.rng.Intn(3); i++ {
		ts := snap[q.rng.Intn(len(snap))]
		ts.Data[q.rng.Intn(len(ts.Data))] += 1 + q.rng.Float64()
	}
	return snap
}

// committed waits for the push of (vnum, snap) to commit and updates the
// model.
func (q *sequence) committed(vnum uint64, snap nn.Snapshot) {
	q.cached++
	waitFor(q.t, 10*time.Second, func() bool { return q.r.Stats().CachedVersions == q.cached }, fmt.Sprintf("v%d cached", vnum))
	if vnum >= q.newest {
		q.newest, q.weights = vnum, snap
	}
}

// fullPush pushes a whole version, tagged (keyed by content, so later
// delta pushes can elide its chunks) or untagged (keyed by build) at
// random.
func (q *sequence) fullPush(vnum uint64) {
	snap := q.drift()
	push := pushChunked
	if q.rng.Intn(2) == 0 {
		push = pushReconcile
	}
	push(q.t, q.link, "m", vnum, snap, 128)
	q.committed(vnum, snap)
}

// deltaPush ships the next version as manifest + the records the relay
// has in neither tier — planned against its real state, so it prefills
// without a need-list round trip.
func (q *sequence) deltaPush() {
	vnum := q.nextVnum
	q.nextVnum++
	snap := q.drift()
	blob, hashes := encodeVersion(q.t, "m", vnum, snap, 128)
	manifest, records, _, _, err := vformat.PlanDelta(blob, func(h vformat.ChunkHash) bool {
		return q.r.cat.residentOf([]vformat.ChunkHash{h}) == 1 || (q.r.store != nil && q.r.store.Contains(h))
	})
	if err != nil {
		q.t.Fatal(err)
	}
	conn := transport.WithMeta(q.link, ingestTags(q.t, "m", vnum, int64(len(blob)), true))
	if err := transport.SendChunkedDelta(context.Background(), conn, fmt.Sprintf("m/v%08d", vnum), manifest, records, len(hashes), len(blob)); err != nil {
		q.t.Fatal(err)
	}
	q.committed(vnum, snap)
}

// halfPush opens the next version's stream and stops part-way; the
// frames are ingested when it returns.
func (q *sequence) halfPush() {
	head, recs, _ := streamFrames(q.t, "m", q.nextVnum, q.drift())
	q.nextVnum++
	n := 1 + q.rng.Intn(len(recs)-1)
	want := q.r.Stats().IngestFrames + int64(1+n)
	sendFrames(q.t, q.link, head)
	sendFrames(q.t, q.link, recs[:n]...)
	waitFor(q.t, 10*time.Second, func() bool { return q.r.Stats().IngestFrames == want }, "half a version ingested")
	// The one moment of a step a build is in flight: its handle was begun
	// at the header, frames ago, and is the only one open.
	if err := q.r.checkInvariants(1); err != nil {
		q.t.Fatalf("half a version ingested: %v", err)
	}
}

func (q *sequence) buildDropped() {
	q.builds++
	waitFor(q.t, 10*time.Second, func() bool {
		st := q.r.Stats()
		return st.SupersededBuilds+st.AbandonedBuilds == q.builds
	}, "the half-built version dropped")
}

func (q *sequence) sessionsOpen(n int) {
	waitFor(q.t, 10*time.Second, func() bool {
		q.r.life.Lock()
		defer q.r.life.Unlock()
		return len(q.r.sessions) == n
	}, fmt.Sprintf("%d sessions open", n))
}

func (q *sequence) open() int {
	n := len(q.live)
	if q.frozen != nil {
		n++
	}
	return n
}

// join dials a consumer, which must be caught up on exactly the newest
// version.
func (q *sequence) join() {
	cons, err := transport.DialTCP(q.r.ServeAddr())
	if err != nil {
		q.t.Fatal(err)
	}
	q.live = append(q.live, cons)
	q.sessionsOpen(q.open())
	if q.newest == 0 {
		return
	}
	ckpt, _, err := collectNext(q.t, cons, nil)
	if err != nil {
		q.t.Fatalf("joiner's catch-up: %v", err)
	}
	if ckpt.Version != q.newest || !snapshotsEqual(ckpt.Weights, q.weights) {
		q.t.Fatalf("joiner caught up on v%d, want the newest (v%d) bit for bit", ckpt.Version, q.newest)
	}
}

func (q *sequence) leave() {
	q.live[0].Close()
	q.live = q.live[1:]
	q.sessionsOpen(q.open())
}

// freeze dials a consumer whose session stops after the header of the
// newest version.
func (q *sequence) freeze() {
	f := &frozenSession{gate: &gatedConn{release: make(chan struct{})}, picked: q.newest, weights: q.weights}
	q.arm.Store(f.gate)
	cons, err := transport.DialTCP(q.r.ServeAddr())
	if err != nil {
		q.t.Fatal(err)
	}
	f.cons, q.frozen = cons, f
	waitFor(q.t, 10*time.Second, f.gate.isBlocked, "fan-out frozen mid-stream")
}

// thaw lets the frozen session run on: the consumer sees the version the
// session picked, whole and bit for bit whatever was committed since, or
// that stream torn (latest-wins) and the newest version whole behind it.
func (q *sequence) thaw() {
	f := q.frozen
	close(f.gate.release)
	ckpt, foreign, err := collectNext(q.t, f.cons, nil)
	want, weights := f.picked, f.weights
	if err != nil {
		if !errors.Is(err, transport.ErrTornStream) || q.newest == f.picked {
			q.t.Fatalf("thawed v%d stream (newest v%d): %v", f.picked, q.newest, err)
		}
		if ckpt, _, err = collectNext(q.t, f.cons, foreign); err != nil {
			q.t.Fatalf("stream behind the torn one: %v", err)
		}
		want, weights = q.newest, q.weights
	}
	if ckpt.Version != want || !snapshotsEqual(ckpt.Weights, weights) {
		q.t.Fatalf("thawed consumer installed v%d, want v%d bit for bit", ckpt.Version, want)
	}
	f.cons.Close()
	q.frozen = nil
	q.sessionsOpen(q.open())
}

func (q *sequence) step() string {
	switch op := q.rng.Intn(10); {
	case q.newest == 0 || op == 0:
		q.nextVnum++
		q.fullPush(q.nextVnum - 1)
		return "full push"
	case op == 1:
		q.deltaPush()
		return "delta push"
	case op == 2:
		q.fullPush(q.newest)
		return "re-push of the newest version"
	case op == 3:
		q.fullPush(1 + uint64(q.rng.Int63n(int64(q.nextVnum-1))))
		return "re-push of an older version"
	case op == 4:
		q.halfPush()
		q.nextVnum++
		q.fullPush(q.nextVnum - 1)
		q.buildDropped()
		return "half push, superseded"
	case op == 5:
		q.halfPush()
		q.link.Close()
		q.buildDropped()
		q.dialIngest()
		return "connection dropped mid-stream"
	case op == 6 && len(q.live) < 3:
		q.join()
		return "session joins"
	case op == 7 && len(q.live) > 0:
		q.leave()
		return "session leaves"
	case op == 8 && q.frozen == nil:
		q.freeze()
		return "session frozen mid-fan-out"
	case q.frozen != nil:
		q.thaw()
		return "frozen session thawed"
	}
	q.deltaPush()
	return "delta push"
}

// TestSeededSequenceKeepsInvariants runs seeded event sequences against
// a memory-only and a store-backed relay and asserts the invariants
// after every step: a failure names the seed and the step, and replays.
func TestSeededSequenceKeepsInvariants(t *testing.T) {
	for _, withStore := range []bool{false, true} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("store=%v/seed=%d", withStore, seed), func(t *testing.T) {
				q := &sequence{t: t, rng: rand.New(rand.NewSource(seed)), nextVnum: 1, weights: wideSnapshot(seed)}
				cfg := Config{
					IngestAddr: "127.0.0.1:0", ServeAddr: "127.0.0.1:0", Retry: quickPolicy(seed),
					ServeWrap: func(c net.Conn) net.Conn {
						if g := q.arm.Swap(nil); g != nil {
							g.Conn = c
							return g
						}
						return c
					},
				}
				if withStore {
					cfg.StoreDir, cfg.StoreRetention = t.TempDir(), chunkstore.Retention{MaxVersions: 4}
				}
				q.r = New2(t, cfg)
				q.dialIngest()
				t.Cleanup(func() {
					// Runs before the relay closes: nothing may stay parked on
					// a gate or a link.
					if q.frozen != nil {
						close(q.frozen.gate.release)
						q.frozen.cons.Close()
					}
					for _, c := range q.live {
						c.Close()
					}
					q.link.Close()
					q.drained.Wait()
				})
				steps := make(map[string]int)
				for i := 0; i < 150; i++ {
					what := q.step()
					steps[what]++
					if err := q.r.checkInvariants(0); err != nil {
						t.Fatalf("seed %d step %d (%s): %v", seed, i, what, err)
					}
				}
				t.Logf("steps: %v; stats: %+v", steps, q.r.Stats())
				if q.frozen != nil {
					q.thaw()
				}
				inv := q.r.Inventory()
				if len(inv) == 0 || inv[len(inv)-1].Version != q.newest {
					t.Fatalf("inventory %+v, want it to end at v%d", inv, q.newest)
				}
			})
		}
	}
}

package remote

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"viper/internal/nn"
	"viper/internal/transport"
	"viper/internal/vformat"
)

// The tests below cover the consumer's spare: the arrays of a checkpoint
// nothing can reach any more, which the next model-sized target the builder
// needs is written into. The package runs with the pools' check armed, so a
// snapshot reads as poison from the moment it becomes the spare.

// poisonedWeights reports whether every element of w reads as the poison
// the consumer writes over a snapshot that becomes its spare.
func poisonedWeights(w nn.Snapshot) bool {
	n := 0
	for _, nt := range w {
		for _, v := range nt.Data {
			if math.Float64bits(v) != math.Float64bits(poisonWeight) {
				return false
			}
			n++
		}
	}
	return n > 0
}

// readActive starts a serving thread that walks the checkpoint c.Active
// returns, again and again, and checks each walk against want bit for bit.
// The returned stop ends it — before the next Next is called, since that is
// as long as a checkpoint stays valid — and reports how many walks ran and
// whether every one matched.
func readActive(c *Consumer, want nn.Snapshot) (stop func() (walks int, ok bool)) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	walks, ok := 0, true
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if ckpt := c.Active(); ckpt != nil {
				ok = ok && snapshotsEqual(ckpt.Weights, want)
				walks++
			}
		}
	}()
	return func() (int, bool) {
		close(done)
		wg.Wait()
		return walks, ok
	}
}

// TestNextRecyclesOnlyTheCheckpointBeforeLast (run under -race): the
// scripted producer streams version k+1 while its notification is held back,
// and a serving thread walks the checkpoint Next returned for k the whole
// time. That checkpoint stays bit for bit version k's while build k+1 is
// assembled and parked — the builder writes into the arrays of k-1, which
// Next handed back when it returned k and which read as poison from then on.
// From the third version on exactly one model-sized target per version is
// the spare: with full streams (reconciliation off) the build itself, which
// the test sees holding version k+1 in k-1's arrays; with deltas the clone
// the next manifest will be patched into, made when build k+1 parks.
func TestNextRecyclesOnlyTheCheckpointBeforeLast(t *testing.T) {
	for _, tc := range []struct {
		name  string
		delta bool
	}{{"full_stream", false}, {"delta", true}} {
		t.Run(tc.name, func(t *testing.T) {
			s := startScriptWith(t, func(cfg *ConsumerConfig) { cfg.DisableDeltaReconcile = !tc.delta })
			recycled := Metrics().Counter("consumer_recycled_snapshots")
			snaps := []nn.Snapshot{nil, flatSnapshot(1, 2<<10)}
			held := []*vformat.Checkpoint{nil}
			const versions = 7
			for v := uint64(1); v <= versions; v++ {
				if v > 1 {
					snaps = append(snaps, bump(snaps[v-1], 1, int(v)*100))
				}
				var frames []transport.Frame
				if tc.delta && v > 1 {
					frames = s.deltaOver(v, snaps[v])
				} else {
					frames, _ = s.stream(v, snaps[v])
				}
				before := recycled.Value()
				stop := readActive(s.cons, snaps[v-1])
				s.send(frames...)
				s.waitBuilder(fmt.Sprintf("v%d parked", v), parkedAre(v))
				if walks, ok := stop(); !ok {
					t.Fatalf("a serving thread saw v%d change in %d walks while v%d was assembled", v-1, walks, v)
				}
				if v > 1 && !snapshotsEqual(held[v-1].Weights, snaps[v-1]) {
					t.Fatalf("the checkpoint Next returned for v%d changed while v%d was assembled", v-1, v)
				}
				want := int64(0)
				if v >= 3 {
					want = 1
				}
				if got := recycled.Value() - before; got != want {
					t.Fatalf("v%d drew the spare %d times, want %d", v, got, want)
				}
				if !tc.delta && v >= 3 && !snapshotsEqual(held[v-2].Weights, snaps[v]) {
					t.Fatalf("v%d was not assembled in the arrays of v%d, the spare", v, v-2)
				}

				res := s.next()
				s.notify(v, true)
				s.install(res, v, snaps[v])
				if v > 1 && !poisonedWeights(held[v-1].Weights) {
					t.Fatalf("Next returned v%d, and v%d's arrays did not become the spare", v, v-1)
				}
				held = append(held, s.cons.Active())
				if tc.delta {
					s.recvHave()
				}
			}
			want := ConsumerStats{LinkLoads: versions}
			if tc.delta {
				want.DeltaLoads, want.PreparedInstalls = versions-1, versions-2
			}
			if got := s.cons.Stats(); got != want {
				t.Fatalf("consumer stats %+v, want %+v", got, want)
			}
		})
	}
}

// TestUnclaimedBuildsRefillTheSpare: the arrays of a build that never
// reached Next are the consumer's own. A parked build dropped as superseded
// becomes the spare, and so does the target of a build that fails its
// record check after it drew the spare; each is poison at once and is drawn
// by the next full stream, which installs bit for bit.
func TestUnclaimedBuildsRefillTheSpare(t *testing.T) {
	s := startScriptWith(t, func(cfg *ConsumerConfig) { cfg.DisableDeltaReconcile = true })
	recycled := Metrics().Counter("consumer_recycled_snapshots")
	spare := func() nn.Snapshot {
		s.cons.mu.Lock()
		defer s.cons.mu.Unlock()
		return s.cons.spare
	}
	snaps := []nn.Snapshot{nil}
	for v := int64(1); v <= 5; v++ {
		snaps = append(snaps, flatSnapshot(v, 2<<10))
	}
	s.deliver(1, snaps[1])

	// v2 parks and is superseded by v3 before its notification.
	frames2, _ := s.stream(2, snaps[2])
	frames3, _ := s.stream(3, snaps[3])
	s.send(frames2...)
	s.send(frames3...)
	s.waitBuilder("v2 and v3 parked", parkedAre(2, 3))
	s.cons.mu.Lock()
	parked2 := s.cons.parked[0].ckpt.Weights
	s.cons.mu.Unlock()
	res := s.next()
	s.notify(3, true)
	s.install(res, 3, snaps[3])
	if got := spare(); !sameArrays(got, parked2) || !poisonedWeights(got) {
		t.Fatal("the parked v2, dropped unclaimed, did not become the poisoned spare")
	}

	// v4 draws it and fails on a flipped byte in its second record.
	before := recycled.Value()
	frames4, _ := s.stream(4, snaps[4])
	s.send(frames4[0], frames4[1], corrupted(frames4[2]))
	s.waitBuilder("v4 rejected", func(c *Consumer) bool { return c.linkVersion == 4 && c.building == 0 })
	if got := spare(); !sameArrays(got, parked2) || !poisonedWeights(got) {
		t.Fatal("the target of the failed v4 did not go back to the spare, poisoned")
	}

	frames5, _ := s.stream(5, snaps[5])
	s.send(frames5...)
	s.waitBuilder("v5 parked", parkedAre(5))
	if got := recycled.Value() - before; got != 2 {
		t.Fatalf("v4 and v5 drew the spare %d times, want 2", got)
	}
	res = s.next()
	s.notify(5, true)
	s.install(res, 5, snaps[5])
	if !sameArrays(s.cons.Active().Weights, parked2) {
		t.Fatal("v5 was not assembled in the spare")
	}
}

// TestUnofferedInstallIsNotRecycled: with reconciliation on, a full-stream
// install whose fill has not offered it as the span source yet is kept when
// the next install supersedes it — the filler may hold that fill already
// and offer the install once its weights are hashed. The filler is parked
// inside v1's have-list write, so v2's fill waits; v3's install supersedes
// v2, and the test then plays a filler that had taken v2's fill before that
// install: v2 becomes the source, and its weights are still v2's, never the
// spare's poison or a later build.
func TestUnofferedInstallIsNotRecycled(t *testing.T) {
	gate := newConnGate()
	s := startScriptDial(t, gate.dial)
	defer gate.release() // before the script's cleanup: Close joins the parked filler
	s.parkFiller(gate, 1)
	snap2, snap3 := flatSnapshot(2, 1<<10), flatSnapshot(3, 1<<10)
	frames2, _ := s.stream(2, snap2)
	s.send(frames2...)
	res := s.next()
	s.notify(2, true)
	s.install(res, 2, snap2)
	held2 := s.cons.Active()
	s.deliver(3, snap3)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // its have-list write waits at the gate too
		defer wg.Done()
		s.cons.fill(&sourceFill{version: 2, header: frames2[0].Payload, weights: held2.Weights})
	}()
	waitFor(t, "v2 to become the span source", func() bool { return sourceVersion(s.cons) == 2 })
	s.cons.mu.Lock()
	src, spare := s.cons.source.Weights(), s.cons.spare
	s.cons.mu.Unlock()
	gate.release()
	wg.Wait()
	if !snapshotsEqual(src, snap2) || sameArrays(spare, src) {
		t.Fatal("v2 was recycled while a fill could still offer it: the span source reads other bytes")
	}
}

// TestCloneOriginIsReachable: the clone started when a delta build parks
// is registered with the weights it reads, and while it is still copying
// those weights are reachable — a dropped build or a superseded checkpoint
// they belong to is not recycled under it.
func TestCloneOriginIsReachable(t *testing.T) {
	s := startScript(t)
	_, snap2 := deltaBase(t, s)
	s.send(s.deltaOver(3, bump(snap2, 1, 100))...)
	s.waitBuilder("v3 parked", parkedAre(3))
	s.cons.mu.Lock()
	defer s.cons.mu.Unlock()
	parked := s.cons.parked[0].ckpt.Weights
	if i := slices.IndexFunc(s.cons.clones, func(slot *backSlot) bool { return sameArrays(slot.from, parked) }); i < 0 {
		t.Fatal("the clone of the parked v3 is not registered with the weights it reads")
	}
	// v2, active, stands for a checkpoint just superseded while a clone
	// still reads it.
	active := s.cons.active
	s.cons.active = nil
	defer func() { s.cons.active = active }()
	copying := &backSlot{ready: make(chan struct{}), from: active.Weights}
	s.cons.clones = append(s.cons.clones, copying)
	if !s.cons.reachableLocked(copying.from) {
		t.Fatal("weights a clone is still copying from are not reachable")
	}
	close(copying.ready)
	if s.cons.reachableLocked(copying.from) {
		t.Fatal("weights whose clone is made, and that nothing else holds, are still reachable")
	}
}

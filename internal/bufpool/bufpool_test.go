package bufpool

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// allocated returns the bytes fn allocated.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// handedBackTwice reports whether f panicked.
func handedBackTwice(f func()) (caught bool) {
	defer func() { caught = recover() != nil }()
	f()
	return false
}

// first is an array's identity: the address of its first byte.
func first(b []byte) *byte { return &b[:1][0] }

// listed returns the arrays on p's free lists, checking each is filed in
// its capacity's class and on the lists once.
func listed(t *testing.T, p *Pool) map[*byte][]byte {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[*byte][]byte)
	for k, list := range p.free {
		for _, b := range list {
			if len(b) != cap(b) || class(cap(b)) != k {
				t.Fatalf("an array of len %d cap %d is filed in class %d", len(b), cap(b), k)
			}
			if out[first(b)] != nil {
				t.Fatalf("a %d-byte array is listed twice", cap(b))
			}
			out[first(b)] = b
		}
	}
	return out
}

// TestOffIsInert runs first, before any test arms the check: a hand-back
// does not write the buffer, and a draw returns it as it was left.
func TestOffIsInert(t *testing.T) {
	if armed.Load() {
		t.Skip("the check is armed already (test order was changed)")
	}
	var p Pool
	b := []byte("still mine")
	p.Put(b)
	if string(b) != "still mine" {
		t.Fatalf("with the check off a hand-back left %q", b)
	}
	if got := p.Get(len(b)); first(got) != first(b) || string(got) != "still mine" {
		t.Fatalf("the draw after a hand-back returned %q", got)
	}
}

// TestHandBackContract: a hand-back overwrites the whole capacity, not
// just the length in use; the second of two with no draw in between
// panics whatever the buffer holds by then, and whatever length or
// capacity the holder re-sliced it to; a draw makes the array its holder's
// again; and what was never drawn from the pool is taken like anything else.
func TestHandBackContract(t *testing.T) {
	Arm()
	var p Pool
	b := make([]byte, 10, 64)
	copy(b, "a record")
	p.Put(b)
	if !bytes.Equal(b[:64], bytes.Repeat([]byte{Poison}, 64)) {
		t.Fatalf("after a hand-back the array reads %q", b[:64])
	}
	copy(b, "written after the hand-back")
	for name, again := range map[string][]byte{"a sub-slice": b[:3], "a capacity cut to another class": b[:3:3]} {
		if !handedBackTwice(func() { p.Put(again) }) {
			t.Fatalf("the second hand-back of one array, as %s, went unnoticed", name)
		}
	}
	if got := p.Draw(40); first(got) != first(b) || len(got) != 40 {
		t.Fatalf("Draw(40) with a 64-byte array listed returned len %d", len(got))
	}
	p.Put(b)
	p.Put(nil)
	p.Put(b[:0:0])
	if got := p.Get(64); first(got) != first(b) {
		t.Fatal("a miss with a fitting array listed")
	}
	if p.Draw(64) != nil || p.Draw(0) != nil {
		t.Fatal("an empty pool issued a buffer")
	}
	if miss := p.Get(33); len(miss) != 33 || cap(miss) != 33 {
		t.Fatalf("a miss allocated len %d cap %d, want exactly 33", len(miss), cap(miss))
	}
}

// poolModel drives one Pool through a schedule of holders drawing, handing
// back, keeping and letting go, against a reference of who holds what.
type poolModel struct {
	t    *testing.T
	p    Pool
	rng  *rand.Rand
	out  [][]byte         // with their holders, each filled with its stamp
	kept [][]byte         // with holders that will never hand them back
	back map[*byte][]byte // handed back and not drawn since: what the pool may list
	held map[int]int      // arrays out now, per class
	peak map[int]int      // the most that were out at once, per class
	next byte             // the next holder's stamp
}

var modelSizes = []int{1, 63, 64, 65, 1000, 1024, 1025, 3000, 4096, 70000}

// holders returns every array a holder has, kept or not.
func (m *poolModel) holders() [][]byte {
	return append(append([][]byte(nil), m.kept...), m.out...)
}

func (m *poolModel) stamped(b []byte) bool {
	return len(b) > 0 && bytes.Count(b, b[:1]) == len(b) && b[0] != Poison
}

func (m *poolModel) step() {
	switch r := m.rng.Intn(100); {
	case r < 45 || len(m.out) == 0: // a holder draws
		n := modelSizes[m.rng.Intn(len(modelSizes))]
		if m.rng.Intn(3) == 0 {
			n = 1 + m.rng.Intn(8<<10)
		}
		b := m.p.Get(n)
		if len(b) != n {
			m.t.Fatalf("Get(%d) returned len %d", n, len(b))
		}
		for _, o := range m.holders() {
			if first(o) == first(b) {
				m.t.Fatalf("Get(%d) issued an array that is out to another holder", n)
			}
		}
		now := listed(m.t, &m.p)
		var gone [][]byte
		for id, was := range m.back {
			if now[id] == nil {
				gone = append(gone, was)
			}
		}
		if len(now)+len(gone) != len(m.back) || len(gone) > 1 {
			m.t.Fatalf("Get(%d): %d arrays listed before, %d after, %d of them gone", n, len(m.back), len(now), len(gone))
		}
		if m.back[first(b)] != nil { // re-issued: it is the one that left the list, and it fits
			if first(gone[0]) != first(b) || cap(b) < n || class(cap(b)) != class(n) {
				m.t.Fatalf("Get(%d) re-issued an array of cap %d", n, cap(b))
			}
		} else { // a miss: exact size, and what left the list was too short for n
			if cap(b) != n {
				m.t.Fatalf("Get(%d) allocated cap %d on a miss", n, cap(b))
			}
			if len(gone) == 1 && (cap(gone[0]) >= n || class(cap(gone[0])) != class(n)) {
				m.t.Fatalf("Get(%d) dropped a listed array of cap %d", n, cap(gone[0]))
			}
		}
		m.back = now
		m.next = m.next%200 + 1 // never Poison (0xDB = 219)
		full := b[:cap(b)]
		for i := range full {
			full[i] = m.next
		}
		m.out = append(m.out, b)
		k := class(cap(b))
		if m.held[k]++; m.held[k] > m.peak[k] {
			m.peak[k] = m.held[k]
		}
	case r < 99: // a holder is done with its array
		i := m.rng.Intn(len(m.out))
		b := m.out[i]
		m.out = append(m.out[:i], m.out[i+1:]...)
		if !m.stamped(b[:cap(b)]) {
			m.t.Fatalf("a %d-byte array was written while its holder had it", cap(b))
		}
		if m.rng.Intn(8) == 0 { // kept for good: out to the end of the schedule
			m.kept = append(m.kept, b)
			break
		}
		m.held[class(cap(b))]--
		switch m.rng.Intn(6) {
		case 0: // let go: the collector's
		case 1: // handed back twice
			m.p.Put(b)
			if !handedBackTwice(func() { m.p.Put(b[:m.rng.Intn(len(b)+1)]) }) {
				m.t.Fatalf("the second hand-back of a listed %d-byte array went unnoticed", cap(b))
			}
			m.back[first(b)] = b[:cap(b)]
		default: // handed back, whether it was drawn once or many times before
			m.p.Put(b[:m.rng.Intn(len(b)+1)])
			m.back[first(b)] = b[:cap(b)]
		}
		if m.back[first(b)] != nil && !bytes.Equal(b[:cap(b)], bytes.Repeat([]byte{Poison}, cap(b))) {
			m.t.Fatalf("a handed-back %d-byte array is not poison to its end", cap(b))
		}
	default:
		m.p.Drop()
		m.back = map[*byte][]byte{}
	}
	// The pool lists exactly what was handed back and not drawn since —
	// nothing a holder still has, nothing twice — and, every array here
	// having come from the pool, per class never more than were out at once.
	now := listed(m.t, &m.p)
	if len(now) != len(m.back) {
		m.t.Fatalf("%d arrays listed, %d handed back and not drawn", len(now), len(m.back))
	}
	perClass := make(map[int]int)
	for id, b := range now {
		if m.back[id] == nil {
			m.t.Fatalf("a %d-byte array is listed that nobody handed back", cap(b))
		}
		if perClass[class(cap(b))]++; perClass[class(cap(b))] > m.peak[class(cap(b))] {
			m.t.Fatalf("class %d lists %d arrays, at most %d were ever out at once", class(cap(b)), perClass[class(cap(b))], m.peak[class(cap(b))])
		}
	}
}

// TestPoolModel is the seeded get / put / keep / let-go / Drop schedule on
// the bare type: 10 000 steps over mixed sizes, the reference after each.
func TestPoolModel(t *testing.T) {
	Arm()
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			m := &poolModel{t: t, rng: rand.New(rand.NewSource(seed)),
				back: map[*byte][]byte{}, held: map[int]int{}, peak: map[int]int{}}
			for i := 0; i < 2000; i++ {
				m.step()
			}
			for _, b := range m.holders() {
				if !m.stamped(b[:cap(b)]) {
					t.Fatalf("a kept %d-byte array was written under its holder", cap(b))
				}
			}
		})
	}
}

// TestReadAnnounced: the announced length is reached exactly, from a start
// of at most EagerBytes, in steps that each at least nearly double — so a
// length just over a power of two costs about twice itself, not three
// times — and a short stream is an error that cost no more than it sent.
func TestReadAnnounced(t *testing.T) {
	for _, n := range []int{0, 1, EagerBytes - 1, EagerBytes, EagerBytes + 1, 3<<20 + 17, 16<<20 + 1700} {
		src := make([]byte, n)
		rand.New(rand.NewSource(int64(n))).Read(src)
		var got []byte
		var err error
		alloc := allocated(func() { got, err = ReadAnnounced(bytes.NewReader(src), n, nil) })
		if err != nil || !bytes.Equal(got, src) || cap(got) != n {
			t.Fatalf("n=%d: %v (len %d cap %d)", n, err, len(got), cap(got))
		}
		if limit := uint64(21*n/10 + 4<<10); alloc > limit {
			t.Fatalf("n=%d: allocated %d bytes, limit %d", n, alloc, limit)
		}
		own := make([]byte, n)
		if got, err = ReadAnnounced(bytes.NewReader(src), n, own); err != nil || !bytes.Equal(got, src) || (n > 0 && first(got) != first(own)) {
			t.Fatalf("n=%d into the caller's buffer: %v", n, err)
		}
	}
	alloc := allocated(func() {
		if _, err := ReadAnnounced(bytes.NewReader(make([]byte, 100)), 1<<30, nil); err == nil {
			t.Error("a 1 GiB claim backed by 100 bytes was read")
		}
	})
	if alloc > EagerBytes+4<<10 {
		t.Fatalf("a 1 GiB claim backed by 100 bytes cost %d bytes", alloc)
	}
}

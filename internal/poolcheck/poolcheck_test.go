package poolcheck

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"time"
)

// handedBackTwice reports whether f panicked.
func handedBackTwice(f func()) (caught bool) {
	defer func() { caught = recover() != nil }()
	f()
	return false
}

// TestOffIsInert runs first, before any test arms the check: a hand-back
// neither writes the buffer nor remembers it.
func TestOffIsInert(t *testing.T) {
	if enabled.Load() {
		t.Skip("the check is armed already (test order was changed)")
	}
	b := []byte("still mine")
	HandBack(b)
	HandBack(b)
	Drawn(b)
	if string(b) != "still mine" || len(back) != 0 {
		t.Fatalf("with the check off a hand-back left %q and %d entries", b, len(back))
	}
}

// TestHandBackContract: a hand-back overwrites the whole capacity, not
// just the length in use; the second of two with no draw in between
// panics whatever the buffer holds by then; a draw makes the array its
// holder's again; and a sub-slice that starts where the array starts is
// the same array.
func TestHandBackContract(t *testing.T) {
	Enable()
	b := make([]byte, 10, 64)
	copy(b, "a record")
	HandBack(b)
	if !bytes.Equal(b[:64], bytes.Repeat([]byte{Poison}, 64)) {
		t.Fatalf("after a hand-back the array reads %q", b[:64])
	}
	copy(b, "written after the hand-back")
	if !handedBackTwice(func() { HandBack(b[:3]) }) {
		t.Fatal("the second hand-back of one array went unnoticed")
	}
	Drawn(b[:0])
	HandBack(b)
	Drawn(b)
	Drawn(b) // a pool miss: drawing what was never handed back is fine
	HandBack(nil)
	HandBack(b[:0:0])
}

// TestNoFalsePositiveAcrossGC is the trap an address-keyed set walks into:
// sync.Pool drops what it holds at a GC (and at random under the race
// detector), the allocator gives the freed address to the next buffer of
// the size — the pool's own miss or somebody else's make — and that
// buffer's first hand-back must not look like the dead one's second. Ten
// thousand draw / hand-back cycles over a real sync.Pool with collections
// in between, a buffer the pool never issued handed back beside each, and
// one more that is handed back and then simply dropped.
func TestNoFalsePositiveAcrossGC(t *testing.T) {
	Enable()
	var pool sync.Pool
	draw := func() []byte {
		if v := pool.Get(); v != nil {
			b := v.([]byte)
			Drawn(b)
			return b
		}
		return make([]byte, 256)
	}
	handBack := func(b []byte) {
		HandBack(b)
		pool.Put(b) //nolint:staticcheck // a test pool
	}
	for i := 0; i < 10000; i++ {
		b := draw()
		b[0] = byte(i)
		handBack(b)
		handBack(make([]byte, 256))
		HandBack(make([]byte, 256))
		if i%50 == 0 {
			runtime.GC()
		}
	}
	// Every array that died took its entry along: what is left is what the
	// pool can still hold, not the 30 000 hand-backs. (Finalizers run on
	// their own goroutine, some time after the collection that queued them.)
	left := 0
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		runtime.GC()
		mu.Lock()
		left = len(back)
		mu.Unlock()
		if left <= 1000 {
			return
		}
	}
	t.Fatalf("%d entries outlive their arrays", left)
}

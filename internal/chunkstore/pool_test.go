package chunkstore

import (
	"bytes"
	"testing"

	"viper/internal/bufpool"
)

// TestScratchPoolContract runs the scratch pool's contract (DESIGN.md §8;
// the check is on for the whole package, see TestMain) and brings back the
// bug it was written down for: a plain `defer putBuf(b)` captures the
// array b names at the defer, growBuf hands that array back when it
// replaces it, and the deferred call hands it back again — one array in
// the pool twice, issued to two owners. scanEntries and compactSegment
// shipped that shape once; they defer a closure now.
func TestScratchPoolContract(t *testing.T) {
	b := getBuf(100)
	b = append(b, "an entry being assembled"...)
	kept := b
	putBuf(b)
	if !bytes.Equal(kept[:cap(kept)], bytes.Repeat([]byte{bufpool.Poison}, cap(kept))) {
		t.Fatal("a scratch buffer still reads as what it held after putBuf")
	}

	grown := getBuf(0)
	if same := growBuf(grown, cap(grown)); &same[:1][0] != &grown[:1][0] {
		t.Fatal("growBuf replaced a buffer that was large enough")
	}
	putBuf(grown)

	caught := func() (caught bool) {
		defer func() { caught = recover() != nil }()
		b := getBuf(0)
		defer putBuf(b)
		b = growBuf(b, cap(b)+1)
		_ = b
		return false
	}()
	if !caught {
		t.Fatal("a stale deferred putBuf after growBuf handed one array back twice, unnoticed")
	}
}

// TestLastCloseDropsTheScratchPool: the scratch pool lists the entry
// buffers the stores of the process handed back, up to their high-water
// mark. When the last open store closes, the list is dropped, so a process
// that goes on without a store does not carry them as live heap. The probe
// is a record-sized getBuf: it draws a listed buffer when there is one and
// allocates its own when there is not.
func TestLastCloseDropsTheScratchPool(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	probe := func() *byte {
		b := getBuf(256 << 10)
		first := &b[:1][0]
		putBuf(b)
		return first
	}
	// The array is held by its first byte for the whole test, so it cannot
	// be collected and its address given to a fresh allocation.
	listed := probe()
	if probe() != listed {
		t.Fatal("with a buffer listed the probe did not draw it: it cannot tell a hit from a miss")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if probe() == listed {
		t.Fatal("after the only open store closed the probe drew a listed buffer: the scratch pool was not dropped")
	}
}

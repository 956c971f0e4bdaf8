// Package poolcheck makes the repository's one buffer-ownership contract
// executable. The three pools — vformat's blob pool, chunkstore's scratch
// pool, transport.RecvPool — differ in how they file and size buffers and
// agree on who owns them (DESIGN.md §8):
//
//   - A buffer drawn from a pool is its holder's. The holder may hand it
//     back, at most once, after its last read of the bytes; or keep it,
//     give it away, or let the garbage collector have it. Handing back is
//     an optimisation, never a duty.
//   - The pool re-issues a handed-back array to a later draw, so the only
//     two bugs are a second hand-back and a read after it.
//
// Each pool calls HandBack on what it takes and Drawn on what it issues
// from its free list. Off — the default, and the only state outside test
// binaries — each is one atomic load. After Enable, HandBack overwrites
// the buffer's whole capacity with 0xDB, so a read after it fails a record
// CRC or a bit-identity assertion instead of passing by luck, and panics
// when the same backing array comes back a second time with no draw in
// between. The package imports nothing from the repository.
package poolcheck

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Poison is the byte a handed-back buffer is overwritten with.
const Poison = 0xDB

var (
	enabled atomic.Bool
	mu      sync.Mutex
	// back holds the address of every array handed back and not drawn
	// since. An address, not a pointer: the set must not keep alive what a
	// sync.Pool drops. An array that dies in a pool takes its entry with
	// it (forget, run as its finalizer), so the allocator re-issuing the
	// address to an unrelated buffer is never mistaken for a second
	// hand-back — whoever allocated that buffer, pool or not.
	back = make(map[uintptr]struct{})
)

// Enable arms the check for the rest of the process. Test binaries call
// it from TestMain; nothing else does.
func Enable() { enabled.Store(true) }

// HandBack is called by a pool on a buffer it is about to take back.
func HandBack(b []byte) {
	if !enabled.Load() || cap(b) == 0 {
		return
	}
	b = b[:cap(b)]
	p := unsafe.SliceData(b)
	key := uintptr(unsafe.Pointer(p))
	mu.Lock()
	_, twice := back[key]
	back[key] = struct{}{}
	mu.Unlock()
	if twice {
		panic(fmt.Sprintf("poolcheck: %d-byte buffer handed back twice", len(b)))
	}
	runtime.SetFinalizer(p, forget)
	for i := range b {
		b[i] = Poison
	}
}

// Drawn is called by a pool on a buffer it took from its free list,
// whether it goes on to issue it or drops it as unfit.
func Drawn(b []byte) {
	if !enabled.Load() || cap(b) == 0 {
		return
	}
	p := unsafe.SliceData(b)
	runtime.SetFinalizer(p, nil)
	forget(p)
}

func forget(p *byte) {
	mu.Lock()
	delete(back, uintptr(unsafe.Pointer(p)))
	mu.Unlock()
}

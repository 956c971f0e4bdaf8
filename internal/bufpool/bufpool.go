// Package bufpool is the one place a byte gets its buffer: a free list of
// handed-back arrays, and the reader for a length a peer announced. The
// encoder's blobs (vformat), the store's scratch (chunkstore), a link's
// receive payloads (transport) and a KV server's retired values (kvstore)
// are each a Pool; the package imports nothing from the repository.
//
// Who owns the bytes is one rule (DESIGN.md §8):
//
//   - An array drawn from a pool is its holder's. The holder may hand it
//     back with Put, at most once, after its last read of the bytes; or
//     keep it, give it away, or let the garbage collector have it. Handing
//     back is an optimisation, never a duty, and any slice the holder owns
//     will do — the pool does not ask where it came from.
//   - The pool re-issues a handed-back array to a later draw, so the only
//     two bugs are a second hand-back and a read after it.
//
// The check of that rule is the pool's own. After Arm — test binaries call
// it from TestMain; nothing else does — Put overwrites the array's whole
// capacity with Poison, so a read after it fails a record CRC or a
// bit-identity assertion instead of passing by luck, and panics when the
// array is on a free list already: exact, because the pool owns what it
// lists and nothing leaves a list except through a draw.
package bufpool

import (
	"fmt"
	"io"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Poison is the byte a handed-back array is overwritten with once armed.
const Poison = 0xDB

var armed atomic.Bool

// Arm turns the ownership check on for every pool, for the rest of the
// process.
func Arm() { armed.Store(true) }

// Armed reports whether Arm was called: a holder that recycles buffers of
// its own, outside any Pool, poisons them on the same switch.
func Armed() bool { return armed.Load() }

// Pool is a free list of byte arrays filed by capacity class, one class
// per doubling. It has no size setting and no count cap: it holds what its
// holders once had out and handed back, until a draw takes it or Drop
// empties the list. The zero value is an empty pool; a Pool must not be
// copied after use.
type Pool struct {
	mu   sync.Mutex
	free [bits.UintSize][][]byte // free[k]: capacities in (2^(k-1), 2^k], newest last
}

// class returns the class of capacity c >= 1.
func class(c int) int { return bits.Len(uint(c - 1)) }

// Draw issues the array handed back last in n's class, n bytes of it with
// unspecified contents, or nil when the class is empty. One too short for
// n — the class spans a doubling — is dropped, so it cannot miss again.
func (p *Pool) Draw(n int) []byte {
	if n <= 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	list := p.free[class(n)]
	if len(list) == 0 {
		return nil
	}
	b := list[len(list)-1]
	list[len(list)-1] = nil
	p.free[class(n)] = list[:len(list)-1]
	if cap(b) < n {
		return nil
	}
	return b[:n]
}

// Get returns a buffer of length n with unspecified contents: a drawn
// array, or on a miss a fresh one of exactly n bytes — records of a stream
// share one size, so it fits the next of them, and a buffer its holder
// keeps for good costs what it would have cost with no pool.
func (p *Pool) Get(n int) []byte {
	if b := p.Draw(n); b != nil {
		return b
	}
	return make([]byte, n)
}

// Put takes b's backing array onto the free list; b must start where the
// array starts.
func (p *Pool) Put(b []byte) {
	if cap(b) == 0 {
		return
	}
	b = b[:cap(b)]
	p.mu.Lock()
	defer p.mu.Unlock()
	if Armed() {
		for _, list := range p.free {
			for _, listed := range list {
				if &listed[0] == &b[0] {
					panic(fmt.Sprintf("bufpool: %d-byte buffer handed back twice", len(b)))
				}
			}
		}
		for i := range b {
			b[i] = Poison
		}
	}
	k := class(len(b))
	p.free[k] = append(p.free[k], b)
}

// Drop empties the free list; what it held is the garbage collector's.
func (p *Pool) Drop() {
	p.mu.Lock()
	p.free = [bits.UintSize][][]byte{}
	p.mu.Unlock()
}

// EagerBytes is the most ReadAnnounced allocates on the strength of an
// announced length alone. It sits above a default chunk record
// (vformat.DefaultChunkBytes plus its header), so every frame of a default
// stream costs one exact-size buffer.
const EagerBytes = 1 << 20

// ReadAnnounced reads the n bytes a peer announced from r. A length is a
// claim, not a size: the read starts in a buffer of n halved until it is
// within EagerBytes and doubles it as the bytes arrive, so the steps land
// on n exactly — the result is exact-size, a payload a header's length
// over a power of two is not copied once more for its last bytes, and a
// peer cannot make the reader allocate more than about twice what it sent.
// A non-nil buf is where the read starts instead: n bytes the caller
// already owns (Pool.Draw), filled in place.
func ReadAnnounced(r io.Reader, n int, buf []byte) ([]byte, error) {
	if buf == nil {
		start := n
		for start > EagerBytes {
			start = (start + 1) / 2
		}
		buf = make([]byte, start)
	}
	for filled := 0; ; {
		if _, err := io.ReadFull(r, buf[filled:]); err != nil {
			return nil, err
		}
		if len(buf) >= n {
			return buf, nil
		}
		grown := make([]byte, min(n, 2*len(buf)))
		filled = copy(grown, buf)
		buf = grown
	}
}

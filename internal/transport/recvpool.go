package transport

import (
	"math/bits"
	"sync"

	"viper/internal/poolcheck"
)

// RecvPool is a size-classed pool of receive buffers. A TCPLink it is
// attached to (TCPLink.SetRecvPool) reads every chunk-record payload of
// minPooledBytes..eagerFieldBytes into a buffer drawn from it, and the
// receiver of that frame then owns the payload under the contract all
// three pools share (DESIGN.md §8):
//
//   - It may hand the payload back with Release, at most once, after its
//     last read of the bytes. The pool re-issues the backing array to a
//     later Recv, so a double Release or a read after Release is a bug —
//     the only two the contract has, and test binaries run with both
//     checked (poolcheck).
//   - It may instead keep the payload for good, or give it away
//     (vformat.ChunkCache.Adopt). Releasing is an optimisation, never a
//     duty: a payload that is never returned is collected like any other
//     slice.
//
// One pool serves every incarnation of a reconnecting link. It has no
// size setting: it holds what its receiver had in flight and released,
// and the garbage collector empties it like any sync.Pool.
//
// Buffers are filed by size class — one per doubling — but allocated at
// the exact size of the payload they were first drawn for: the records of
// a stream share one size, so a released buffer fits the next record, a
// payload the receiver keeps for good costs what it would have cost with
// no pool, and PR 17's bound (allocation follows the bytes that arrived)
// holds on a pooled link with the same constants.
type RecvPool struct {
	classes [numRecvClasses]sync.Pool
}

// NewRecvPool returns an empty pool.
func NewRecvPool() *RecvPool { return &RecvPool{} }

const (
	// minPooledBytes is the smallest payload worth a pooled buffer;
	// anything shorter keeps its plain allocation.
	minPooledBytes = 1 << 6
	numRecvClasses = 15 // (32, 64], (64, 128], … (512 KiB, 1 MiB = eagerFieldBytes]
)

// recvClass returns the size class of an n-byte buffer,
// minPooledBytes <= n <= eagerFieldBytes.
func recvClass(n int) int { return bits.Len(uint(n-1)) - 6 }

// The pools' traffic, over every RecvPool in the process: payloads handed
// back, and payloads read into a buffer that had been. On a stream whose
// records are not kept the two track tcp_frames_recv; a gap is buffers the
// receiver kept, or let go.
var (
	recvPoolReleased = registry.Counter("tcp_recv_pool_released")
	recvPoolReused   = registry.Counter("tcp_recv_pool_reused")
)

// get returns a buffer of length n whose contents are unspecified.
func (p *RecvPool) get(n int) []byte {
	if v := p.classes[recvClass(n)].Get(); v != nil {
		// One of the class that is too short — a stream's last record left
		// it — is dropped, so it cannot miss again.
		b := v.([]byte)
		poolcheck.Drawn(b)
		if cap(b) >= n {
			recvPoolReused.Inc()
			return b[:n]
		}
	}
	return make([]byte, n)
}

// Release hands a payload back to the pool. Any slice the receiver owns
// will do — the pool does not ask where it came from, so a receiver may
// release every payload it is done with; one outside the pooled sizes (a
// short or oversized record) is simply dropped, and so is everything
// handed to a nil pool (a link that has none).
func (p *RecvPool) Release(b []byte) {
	if p == nil || cap(b) < minPooledBytes || cap(b) > eagerFieldBytes {
		return
	}
	poolcheck.HandBack(b)
	recvPoolReleased.Inc()
	//nolint:staticcheck // storing a slice (pointer-sized header) is fine here
	p.classes[recvClass(cap(b))].Put(b[:0])
}

package transport

import "viper/internal/bufpool"

// RecvPool is the pool of receive buffers of one receiver. A TCPLink it is
// attached to (TCPLink.SetRecvPool) reads every chunk-record payload of
// minPooledBytes..eagerFieldBytes into a buffer drawn from it, and the
// receiver of that frame then owns the payload under the pool's contract
// (bufpool; DESIGN.md §8): it hands the payload back with Release, at most
// once, after its last read of the bytes, or simply lets it go. It never
// gives a payload away.
//
// One pool serves every incarnation of a reconnecting link. It holds what
// its receiver had in flight and released, until the receiver Drops it.
type RecvPool struct{ list bufpool.Pool }

// NewRecvPool returns an empty pool.
func NewRecvPool() *RecvPool { return &RecvPool{} }

// minPooledBytes is the smallest payload worth a pooled buffer; anything
// shorter keeps its plain allocation.
const minPooledBytes = 1 << 6

// The pools' traffic, over every RecvPool in the process: payloads handed
// back, and payloads read into a buffer that had been. On a stream whose
// records are not kept the two track tcp_frames_recv; a gap is buffers the
// receiver still holds, or let go.
var (
	recvPoolReleased = registry.Counter("tcp_recv_pool_released")
	recvPoolReused   = registry.Counter("tcp_recv_pool_reused")
)

// Release hands a payload back to the pool. Any slice the receiver owns
// will do, so a receiver may release every payload it is done with; one
// outside the pooled sizes (a short or oversized record) is simply
// dropped, and so is everything handed to a nil pool (a link that has
// none).
func (p *RecvPool) Release(b []byte) {
	if p == nil || cap(b) < minPooledBytes || cap(b) > eagerFieldBytes {
		return
	}
	recvPoolReleased.Inc()
	p.list.Put(b)
}

// Drop empties the pool: its receiver is closing, or has gone idle.
func (p *RecvPool) Drop() { p.list.Drop() }

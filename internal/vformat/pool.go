package vformat

import "viper/internal/bufpool"

// blobs is the pool every encoder's blob comes from, so steady-state
// checkpointing allocates (almost) nothing: the monolithic legacy path
// moved each payload through several growing bytes.Buffers, which is
// exactly the allocation churn the chunked engine exists to cut.
//
// Ownership is the pool's contract (bufpool; DESIGN.md §8): an encoder's
// blob, EncodeChunked's result, what Detach returns — each is its holder's,
// to hand back (ReleaseBuffer, ChunkEncoder.Release) at most once after
// its last read, or to keep, give away or let go. Slices handed to
// ChunkEncoder emit callbacks alias the encoder's blob and are valid only
// until the encoder is released.
var blobs bufpool.Pool

// ReleaseBuffer hands a buffer obtained from EncodeChunked (or any other
// vformat call documented as pool-owned) back to the pool: at most once,
// and the buffer must not be read afterwards. Tiny buffers are dropped.
func ReleaseBuffer(b []byte) {
	if cap(b) >= 64 {
		blobs.Put(b)
	}
}

// DropBuffers empties the blob pool. A publisher calls it as it closes:
// the blobs it handed back are whole checkpoints that no later draw in a
// process that only serves or reads would ever take.
func DropBuffers() { blobs.Drop() }

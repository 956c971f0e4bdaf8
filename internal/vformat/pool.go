package vformat

import (
	"sync"

	"viper/internal/poolcheck"
)

// Buffer pooling for the chunk pipeline. Every encode/decode scratch
// buffer on the per-iteration save path comes from here, so steady-state
// checkpointing allocates (almost) nothing: the monolithic legacy path
// moved each payload through several growing bytes.Buffers, which is
// exactly the allocation churn the chunked engine exists to cut.
//
// Ownership (DESIGN.md §8, the contract all three pools share): a buffer
// obtained from getBuf — an encoder's blob, EncodeChunked's result, what
// Detach returns — is its holder's. The holder may hand it back (putBuf,
// ReleaseBuffer, ChunkEncoder.Release) at most once, after its last read,
// or keep it, give it away or let the GC have it: handing back is an
// optimisation, never a duty. The pool re-issues the array, so a second
// hand-back and a read after it are the only two bugs; test binaries run
// with both checked (poolcheck). Slices handed to ChunkEncoder emit
// callbacks alias the encoder's backing buffer and are valid only until
// the encoder is released.

// bufPool holds byte buffers of any capacity; getBuf re-slices a pooled
// buffer when it is large enough and drops (to GC) one that is not.
var bufPool = sync.Pool{}

// getBuf returns a zeroed-length buffer with capacity at least n.
func getBuf(n int) []byte {
	if v := bufPool.Get(); v != nil {
		b := v.([]byte)
		poolcheck.Drawn(b)
		if cap(b) >= n {
			return b[:n]
		}
		// Too small for this request: dropped, not put back. A buffer that
		// is put back is as good as new to the pool, so one left by a
		// smaller model would keep being drawn — and keep costing the
		// larger one a fresh allocation — for as long as the process lives.
	}
	return make([]byte, n)
}

// putBuf hands a buffer back to the pool. Nil and tiny buffers are
// dropped.
func putBuf(b []byte) {
	if cap(b) < 64 {
		return
	}
	poolcheck.HandBack(b)
	//nolint:staticcheck // storing a slice (pointer-sized header) is fine here
	bufPool.Put(b[:0:cap(b)])
}

// ReleaseBuffer hands a buffer obtained from EncodeChunked (or any other
// vformat call documented as pool-owned) back to the internal pool: at
// most once, and the buffer must not be read afterwards.
func ReleaseBuffer(b []byte) { putBuf(b) }

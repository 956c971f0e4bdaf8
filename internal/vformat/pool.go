package vformat

import "sync"

// Buffer pooling for the chunk pipeline. Every encode/decode scratch
// buffer on the per-iteration save path comes from here, so steady-state
// checkpointing allocates (almost) nothing: the monolithic legacy path
// moved each payload through several growing bytes.Buffers, which is
// exactly the allocation churn the chunked engine exists to cut.
//
// Ownership rule (DESIGN.md §8): a buffer obtained from getBuf is owned
// by the caller until it is passed to putBuf, after which it must not be
// touched. Slices handed to ChunkEncoder emit callbacks alias the
// encoder's backing buffer and are valid only until the encoder is
// released.

// bufPool holds byte buffers of any capacity; getBuf re-slices a pooled
// buffer when it is large enough and drops (to GC) one that is not.
var bufPool = sync.Pool{}

// getBuf returns a zeroed-length buffer with capacity at least n.
func getBuf(n int) []byte {
	if v := bufPool.Get(); v != nil {
		b := v.([]byte)
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

// putBuf recycles a buffer previously returned by getBuf. Nil and tiny
// buffers are dropped.
func putBuf(b []byte) {
	if cap(b) < 64 {
		return
	}
	//nolint:staticcheck // storing a slice (pointer-sized header) is fine here
	bufPool.Put(b[:0:cap(b)])
}

// ReleaseBuffer returns a buffer obtained from EncodeChunked (or any
// other vformat call documented as pool-owned) to the internal pool.
// After the call the buffer must not be used.
func ReleaseBuffer(b []byte) { putBuf(b) }

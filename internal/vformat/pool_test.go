package vformat

import (
	"bytes"
	"context"
	"testing"

	"viper/internal/bufpool"
)

// The blob pool's contract, run (DESIGN.md §8). Every test of this package
// runs with the check on (TestMain); these bring back the bugs it exists
// for and watch it catch them, so each fails if the check is taken out.

// handedBackTwice reports whether f panicked.
func handedBackTwice(f func()) (caught bool) {
	defer func() { caught = recover() != nil }()
	f()
	return false
}

// TestDetachedBlobReleasedTwice: a detached blob is its holder's to hand
// back at most once. The encoder's own Release after Detach is the no-op
// its doc promises; a second ReleaseBuffer is the double hand-back that
// would give one array to two encoders.
func TestDetachedBlobReleasedTwice(t *testing.T) {
	enc, err := NewChunkEncoder(chunkTestCheckpoint(11, 2048), ChunkOptions{ChunkBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.EncodeStream(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	blob, err := enc.Detach()
	if err != nil {
		t.Fatal(err)
	}
	enc.Release()
	enc.Release()
	if blob[0] == bufpool.Poison {
		t.Fatal("the encoder's Release took a blob it had detached")
	}
	ReleaseBuffer(blob)
	if !handedBackTwice(func() { ReleaseBuffer(blob) }) {
		t.Fatal("the second ReleaseBuffer of one blob went unnoticed")
	}
}

// TestBlobReadAfterRelease: the slice Blob returned is the encoder's, valid
// until Release. A holder that reads it afterwards sees the fill, not a
// checkpoint that happens to be still there — its header and every record
// fail their checksums.
func TestBlobReadAfterRelease(t *testing.T) {
	enc, err := NewChunkEncoder(chunkTestCheckpoint(12, 2048), ChunkOptions{ChunkBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.EncodeStream(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	blob, err := enc.Blob()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeAuto(context.Background(), blob, 1); err != nil {
		t.Fatalf("the blob before Release: %v", err)
	}
	enc.Release()
	if _, err := enc.Blob(); err == nil {
		t.Fatal("Blob after Release returned a blob")
	}
	if !bytes.Equal(blob, bytes.Repeat([]byte{bufpool.Poison}, len(blob))) {
		t.Fatal("a released blob still reads as the checkpoint it held")
	}
	if _, err := DecodeAuto(context.Background(), blob, 1); err == nil {
		t.Fatal("a blob read after Release decoded")
	}
}

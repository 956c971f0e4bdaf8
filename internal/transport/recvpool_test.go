package transport

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"

	"viper/internal/bufpool"
	"viper/internal/mutate"
	"viper/internal/vformat"
)

// recordFrame returns a chunk-record frame carrying a valid record of
// about size bytes, and the frame as Send writes it.
func recordFrame(t *testing.T, size int) (Frame, []byte) {
	t.Helper()
	enc, err := vformat.NewChunkEncoder(streamTestCheckpoint(5, size), vformat.ChunkOptions{ChunkBytes: size})
	if err != nil {
		t.Fatal(err)
	}
	defer enc.Release()
	var frames []Frame // copies: the encoder's blob goes back to its pool
	sink := connFunc{send: func(f Frame) error {
		f.Payload = append([]byte(nil), f.Payload...)
		frames = append(frames, f)
		return nil
	}}
	if err := SendChunked(t.Context(), WithMeta(sink, map[string]string{MetaModel: "m", MetaVersion: "7"}), "m/v7", enc, 0); err != nil {
		t.Fatal(err)
	}
	f := frames[1]
	if !IsChunkFrame(f) || !vformat.VerifyChunkRecord(f.Payload) {
		t.Fatalf("frame 1 of the stream is not a sound chunk record: %+v", f.Meta)
	}
	return f, wireBytes(t, f)
}

// sameArray reports whether a and b share a backing array.
func sameArray(a, b []byte) bool { return &a[:1][0] == &b[:1][0] }

// TestRecvPoolContract is RecvPool's contract as code: a released buffer
// comes back for a record of the same class and is dropped for one it does
// not fit; with the test switch on, release overwrites the bytes (so a read
// after release cannot go unnoticed) and a second release panics; and a
// buffer of a size the pool does not serve passes through untouched.
func TestRecvPoolContract(t *testing.T) {
	pool := NewRecvPool()
	first := pool.list.Get(1000)
	if len(first) != 1000 || cap(first) != 1000 {
		t.Fatalf("a miss allocated len %d cap %d, want the exact size", len(first), cap(first))
	}
	pool.Release(first)
	again := pool.list.Get(900) // same class (512, 1024], and it fits
	if !sameArray(again, first) || len(again) != 900 {
		t.Fatalf("a released buffer did not serve the next record of its class (len %d cap %d)", len(again), cap(again))
	}
	pool.Release(again)
	if b := pool.list.Get(1024); cap(b) != 1024 {
		t.Fatalf("a 1000-byte buffer was issued for a 1024-byte record (cap %d)", cap(b))
	}
	if b := pool.list.Draw(900); b != nil {
		t.Fatal("a buffer drawn and found too short stayed in the pool to miss again")
	}

	rec := pool.list.Get(300)
	copy(rec, "VCHK-some-record-bytes")
	pool.Release(rec)
	if !bytes.Equal(rec, bytes.Repeat([]byte{bufpool.Poison}, 300)) {
		t.Fatalf("a released buffer still reads %q…", rec[:8])
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the second release of one buffer went unnoticed")
			}
		}()
		// Found by identity, not by what the buffer holds: a holder that
		// wrote after its release is caught releasing again all the same.
		copy(rec, "scribbled after release")
		pool.Release(rec)
	}()
	for _, n := range []int{0, minPooledBytes - 1, eagerFieldBytes + 1} {
		odd := bytes.Repeat([]byte{1}, n)
		pool.Release(odd)
		if bytes.IndexByte(odd, bufpool.Poison) >= 0 {
			t.Fatalf("a %d-byte buffer, outside the pooled sizes, was taken by the pool", n)
		}
	}
	pool.Drop()
	if b := pool.list.Draw(300); b != nil {
		t.Fatal("a dropped pool still issued a buffer")
	}
}

// TestPooledRecvDrawsRecordsOnly: on a pooled link a chunk record lands in
// a pooled buffer that a release makes available to the next record;
// headers, have-lists and records past eagerFieldBytes keep their plain
// exact-size allocation — and so does everything on a link with no pool.
func TestPooledRecvDrawsRecordsOnly(t *testing.T) {
	rec, wire := recordFrame(t, 2<<10)
	other := wireBytes(t, NewHaveFrame("m", 1, make([]vformat.ChunkHash, 40)))
	pool := NewRecvPool()
	link := WrapTCP(mutate.NewConn(append(append(append([]byte(nil), wire...), other...), wire...)))
	link.SetRecvPool(pool)
	first, err := link.Recv()
	if err != nil || !bytes.Equal(first.Payload, rec.Payload) {
		t.Fatalf("record frame: %v", err)
	}
	pool.Release(first.Payload)
	// The have-list is the receiver's like any payload, and the pool would
	// take it if asked; what matters is that Recv did not draw it from there.
	have, err := link.Recv()
	if err != nil || !IsHaveFrame(have) || sameArray(have.Payload, first.Payload) {
		t.Fatalf("have-list (drawn from the pool: %v): %v", err == nil && sameArray(have.Payload, first.Payload), err)
	}
	again, err := link.Recv()
	if err != nil || !bytes.Equal(again.Payload, rec.Payload) {
		t.Fatalf("a record read into a recycled buffer differs from what was sent: %v", err)
	}
	if !sameArray(again.Payload, first.Payload) {
		t.Fatal("the released record buffer did not serve the next record")
	}
}

// TestRecvErrorPathsReturnTheBuffer: a record frame that ends short, or
// whose frame CRC does not match, costs the pool nothing — the buffer Recv
// drew for it is back before the error is.
func TestRecvErrorPathsReturnTheBuffer(t *testing.T) {
	rec, wire := recordFrame(t, 2<<10)
	badSum := append([]byte(nil), wire...)
	badSum[len(badSum)-1] ^= 0xFF
	for name, input := range map[string][]byte{"short payload": wire[:len(wire)-100], "short trailer": wire[:len(wire)-2], "bad frame CRC": badSum} {
		pool := NewRecvPool()
		drawn := pool.list.Get(len(rec.Payload))
		pool.Release(drawn)
		link := WrapTCP(mutate.NewConn(input))
		link.SetRecvPool(pool)
		if _, err := link.Recv(); err == nil {
			t.Fatalf("%s: Recv accepted the frame", name)
		} else if short := errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF); short == errors.Is(err, ErrCorruptFrame) || short == (name == "bad frame CRC") {
			t.Fatalf("%s: %v", name, err)
		}
		if b := pool.list.Draw(len(rec.Payload)); b == nil || !sameArray(b, drawn) {
			t.Fatalf("%s: the buffer the failed Recv drew is not back in the pool", name)
		} else if !bytes.Equal(b, bytes.Repeat([]byte{bufpool.Poison}, len(b))) {
			t.Fatalf("%s: the pool holds a buffer that was not released through Release: %q", name, b[:8])
		}
		if b := pool.list.Draw(len(rec.Payload)); b != nil {
			t.Fatalf("%s: the pool holds a second buffer after the failed Recv", name)
		}
	}
}

// countingConn records the size of every Write and the slice of the last
// large one.
type countingConn struct {
	net.Conn
	writes []int
	large  []byte
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes = append(c.writes, len(p))
	if len(p) > coalesceBytes {
		c.large = p
	}
	return len(p), nil
}

// TestSendWritesEachByteOnce: a frame leaves as header, payload, CRC — the
// payload being the caller's own slice, not a staged copy — and a small
// frame as one Write. (On a *net.TCPConn the three parts are one writev;
// a wrapped conn sees one Write per part.)
func TestSendWritesEachByteOnce(t *testing.T) {
	conn := &countingConn{}
	link := WrapTCP(conn)
	payload := bytes.Repeat([]byte{7}, 256<<10)
	if err := link.Send(Frame{Key: "m/v1", Payload: payload, Meta: map[string]string{MetaChunkRole: ChunkRoleChunk}}); err != nil {
		t.Fatal(err)
	}
	if len(conn.writes) != 3 || conn.writes[1] != len(payload) || conn.writes[2] != 4 || !sameArray(conn.large, payload) {
		t.Fatalf("a 256 KiB frame left as writes of %v bytes (payload passed through: %v), want header, the payload itself, CRC",
			conn.writes, conn.large != nil && sameArray(conn.large, payload))
	}
	conn.writes = nil
	if err := link.Send(NewNeedFrame("m/v1", make([]vformat.ChunkHash, 3))); err != nil {
		t.Fatal(err)
	}
	if len(conn.writes) != 1 {
		t.Fatalf("a small frame left as writes of %v bytes, want one", conn.writes)
	}
	if link.iov[1] != nil {
		t.Fatal("the link still references the last large payload after Send returned")
	}
}

package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"net"
	"reflect"
	"runtime"
	"testing"

	"viper/internal/vformat"
)

// memConn is a net.Conn over byte slices: Recv parses in, Send lands in
// out. Only Read and Write are reachable through a TCPLink that is never
// closed.
type memConn struct {
	net.Conn
	in  *bytes.Reader
	out bytes.Buffer
}

func (c *memConn) Read(p []byte) (int, error)  { return c.in.Read(p) }
func (c *memConn) Write(p []byte) (int, error) { return c.out.Write(p) }

// wireBytes returns frames exactly as TCPLink.Send writes them.
func wireBytes(tb testing.TB, frames ...Frame) []byte {
	tb.Helper()
	conn := &memConn{in: bytes.NewReader(nil)}
	link := WrapTCP(conn)
	for _, f := range frames {
		if err := link.Send(f); err != nil {
			tb.Fatal(err)
		}
	}
	return conn.out.Bytes()
}

// recvOnce parses one frame from input, reporting how many input bytes
// the frame spanned and what Recv allocated on the way (the link's own
// two bufio buffers are excluded).
func recvOnce(input []byte) (f Frame, consumed int, alloc uint64, err error) {
	conn := &memConn{in: bytes.NewReader(input)}
	link := WrapTCP(conn)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f, err = link.Recv()
	runtime.ReadMemStats(&after)
	return f, len(input) - conn.in.Len() - link.r.Buffered(), after.TotalAlloc - before.TotalAlloc, err
}

// recvAllocLimit is the most Recv may allocate for an input: a length
// prefix is a claim, not a licence. Key and meta bytes are copied once
// into strings and a field past eagerFieldBytes is copied as it doubles
// (4x); one unfinished field may hold its eager buffer (the constant).
func recvAllocLimit(input []byte) uint64 {
	return uint64(4*len(input)) + eagerFieldBytes + 64<<10
}

// claim builds a frame prefix: key, then (when metaCount is zero) the
// virtual size and a payload length field claiming payloadLen bytes.
func claim(key string, metaCount, payloadLen uint64) []byte {
	le := binary.LittleEndian
	b := le.AppendUint64(nil, uint64(len(key)))
	b = append(b, key...)
	b = le.AppendUint64(b, metaCount)
	if metaCount == 0 {
		b = le.AppendUint64(b, 0) // virtual size
		b = le.AppendUint64(b, payloadLen)
	}
	return b
}

// Regression: readBytes used to make([]byte, n) for any claimed
// n <= 8 GiB before reading a payload byte, so 32 bytes from a peer cost
// the receiver 2 GiB — on every relay ingest/serve port and producer
// listen port. Allocation must follow the bytes actually received.
func TestTCPRecvAllocationBoundedByInput(t *testing.T) {
	big := make([]byte, 3*eagerFieldBytes+12345)
	for i := range big {
		big[i] = byte(i * 7)
	}
	whole := wireBytes(t, Frame{Key: "big", Payload: big})
	metaBomb := binary.LittleEndian.AppendUint64(claim("", 1<<16, 0), 1<<20) // 65536 entries; first key claims 1 MiB
	for _, tc := range []struct {
		name  string
		input []byte
		ok    bool
	}{
		{"payload claims 2 GiB then EOF", claim("", 0, 2<<30), false},
		{"payload claims 64 MiB, sends 2 MiB", append(claim("k", 0, 64<<20), make([]byte, 2<<20)...), false},
		{"65536 meta entries claimed, none sent", metaBomb, false},
		{"3 MiB payload sent whole", whole, true},
	} {
		f, _, alloc, err := recvOnce(tc.input)
		if limit := recvAllocLimit(tc.input); alloc > limit {
			t.Errorf("%s: Recv allocated %d bytes for %d input bytes, limit %d", tc.name, alloc, len(tc.input), limit)
		}
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok=%v", tc.name, err, tc.ok)
		}
		if tc.ok && (!bytes.Equal(f.Payload, big) || cap(f.Payload) != len(big)) {
			t.Errorf("%s: grown payload differs from what was sent (len %d cap %d, want %d exact)", tc.name, len(f.Payload), cap(f.Payload), len(big))
		}
	}
}

// fuzzRecvSeeds returns one wire frame of each kind a delivery path
// sends: a stream header, a chunk record, a have-list and a delta
// manifest.
func fuzzRecvSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	ckpt := streamTestCheckpoint(1, 4<<10)
	enc, err := vformat.NewChunkEncoder(ckpt, vformat.ChunkOptions{ChunkBytes: 1 << 10})
	if err != nil {
		tb.Fatal(err)
	}
	defer enc.Release()
	conn := &memConn{in: bytes.NewReader(nil)}
	if err := SendChunked(context.Background(), WrapTCP(conn), "m/v1", enc, 1<<30); err != nil {
		tb.Fatal(err)
	}
	stream := conn.out.Bytes()
	_, header, _, _ := recvOnce(stream)
	_, chunk, _, _ := recvOnce(stream[header:])
	blob, err := enc.Blob()
	if err != nil {
		tb.Fatal(err)
	}
	hashes, err := enc.Hashes()
	if err != nil {
		tb.Fatal(err)
	}
	manifest, records, _, _, err := vformat.PlanDelta(blob, func(h vformat.ChunkHash) bool { return h != hashes[0] })
	if err != nil {
		tb.Fatal(err)
	}
	return [][]byte{
		stream[:header],
		stream[header : header+chunk],
		wireBytes(tb, NewHaveFrame("m", 1, hashes)),
		wireBytes(tb, Frame{Key: "m/v2", Payload: manifest, Meta: map[string]string{MetaChunkRole: ChunkRoleManifest, MetaChunkCount: "1"}}),
		wireBytes(tb, ChunkRecordFrame("m/v2", records[0], 0)),
	}
}

// FuzzTCPLinkRecv feeds arbitrary bytes to the frame reader behind every
// relay and producer port. It must never panic, never allocate out of
// proportion to its input, and a frame it accepts must be one Send can
// write back: re-sending it yields bytes that parse to the same frame,
// and — unless its meta entries were reordered or collapsed by the map —
// the very bytes it was read from.
func FuzzTCPLinkRecv(f *testing.F) {
	for _, seed := range fuzzRecvSeeds(f) {
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
		f.Add(seed[:len(seed)-1])
		f.Add(seed[:9])
	}
	f.Add(claim("", 0, 2<<30))
	f.Fuzz(func(t *testing.T, input []byte) {
		got, consumed, alloc, err := recvOnce(input)
		if limit := recvAllocLimit(input); alloc > limit {
			t.Fatalf("Recv allocated %d bytes for %d input bytes, limit %d", alloc, len(input), limit)
		}
		if err != nil {
			return
		}
		resent := wireBytes(t, got)
		if len(got.Meta) <= 1 && len(resent) == consumed && !bytes.Equal(resent, input[:consumed]) {
			t.Fatalf("accepted frame re-sends to different bytes:\n in  %x\n out %x", input[:consumed], resent)
		}
		again, _, _, err := recvOnce(resent)
		if err != nil {
			t.Fatalf("re-sent frame does not parse: %v", err)
		}
		if !reflect.DeepEqual(again, got) {
			t.Fatalf("re-sent frame parses differently:\n first  %+v\n second %+v", got, again)
		}
	})
}

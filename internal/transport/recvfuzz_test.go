package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"viper/internal/mutate"
	"viper/internal/vformat"
)

// wireBytes returns frames exactly as TCPLink.Send writes them.
func wireBytes(tb testing.TB, frames ...Frame) []byte {
	tb.Helper()
	conn := mutate.NewConn(nil)
	link := WrapTCP(conn)
	for _, f := range frames {
		if err := link.Send(f); err != nil {
			tb.Fatal(err)
		}
	}
	return conn.Out.Bytes()
}

// recvOnce parses one frame from input on a link with no receive pool,
// reporting how many input bytes the frame spanned and what Recv allocated
// on the way (the link's own header buffer is excluded).
func recvOnce(input []byte) (f Frame, consumed int, alloc uint64, err error) {
	return recvOnceFrom(input, nil)
}

// recvOnceFrom is recvOnce on a link drawing from pool (nil = none).
func recvOnceFrom(input []byte, pool *RecvPool) (f Frame, consumed int, alloc uint64, err error) {
	conn := mutate.NewConn(input)
	link := WrapTCP(conn)
	link.SetRecvPool(pool)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f, err = link.Recv()
	runtime.ReadMemStats(&after)
	return f, len(input) - conn.In.Len() - link.r.Buffered(), after.TotalAlloc - before.TotalAlloc, err
}

// recvAllocLimit is the most Recv may allocate for an input: a length
// prefix is a claim, not a licence. Key and meta bytes are copied once
// into strings and a field past eagerFieldBytes is copied as it doubles
// (4x); one unfinished field may hold its eager buffer (the constant).
func recvAllocLimit(input []byte) uint64 {
	return uint64(4*len(input)) + eagerFieldBytes + 64<<10
}

// claim builds a frame prefix: key, then (when metaCount is zero) a
// payload length field claiming payloadLen bytes.
func claim(key string, metaCount, payloadLen uint64) []byte {
	le := binary.LittleEndian
	b := le.AppendUint64(nil, uint64(len(key)))
	b = append(b, key...)
	b = le.AppendUint64(b, metaCount)
	if metaCount == 0 {
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
	record := map[string]string{MetaChunkRole: ChunkRoleChunk}
	// A record frame is what a pooled link draws a buffer for: the claim
	// must be no more of a licence there.
	recordClaim := func(payloadLen uint64) []byte {
		whole := wireBytes(t, Frame{Key: "r", Meta: record, Payload: make([]byte, 8)})
		prefix := whole[:len(whole)-8-4-8] // up to the payload length field
		return binary.LittleEndian.AppendUint64(append([]byte(nil), prefix...), payloadLen)
	}
	metaBomb := binary.LittleEndian.AppendUint64(claim("", 1<<16, 0), 1<<20) // 65536 entries; first key claims 1 MiB
	for _, tc := range []struct {
		name  string
		input []byte
		ok    bool
	}{
		{"payload claims 2 GiB then EOF", claim("", 0, 2<<30), false},
		{"payload claims 64 MiB, sends 2 MiB", append(claim("k", 0, 64<<20), make([]byte, 2<<20)...), false},
		{"65536 meta entries claimed, none sent", metaBomb, false},
		{"record claims 2 GiB then EOF", recordClaim(2 << 30), false},
		{"record claims 1 MiB, sends 100 bytes", append(recordClaim(eagerFieldBytes), make([]byte, 100)...), false},
		{"3 MiB payload sent whole", whole, true},
		{"3 MiB record sent whole", wireBytes(t, Frame{Key: "big", Meta: record, Payload: big}), true},
	} {
		for _, pool := range []*RecvPool{nil, NewRecvPool()} {
			f, _, alloc, err := recvOnceFrom(tc.input, pool)
			if limit := recvAllocLimit(tc.input); alloc > limit {
				t.Errorf("%s (pool %v): Recv allocated %d bytes for %d input bytes, limit %d", tc.name, pool != nil, alloc, len(tc.input), limit)
			}
			if (err == nil) != tc.ok {
				t.Errorf("%s (pool %v): err = %v, want ok=%v", tc.name, pool != nil, err, tc.ok)
			}
			if tc.ok && (!bytes.Equal(f.Payload, big) || cap(f.Payload) != len(big)) {
				t.Errorf("%s (pool %v): grown payload differs from what was sent (len %d cap %d, want %d exact)", tc.name, pool != nil, len(f.Payload), cap(f.Payload), len(big))
			}
		}
	}
}

// TestLargePayloadLandsWithoutAFinalRecopy: a payload a header's length
// over a power of two — a 16 MiB record plus its 1.7 KiB of framing, what
// `viper-producer -chunk 16777216` sends — used to start at 1 MiB, double
// to 16 MiB and then be copied whole once more for its last bytes: 2.9 n
// allocated. The doubling steps land on n, so it costs about 2 n.
func TestLargePayloadLandsWithoutAFinalRecopy(t *testing.T) {
	const n = 16<<20 + 1700
	wire := wireBytes(t, Frame{Key: "m/v1", Meta: map[string]string{MetaChunkRole: ChunkRoleChunk}, Payload: make([]byte, n)})
	var f Frame
	var err error
	alloc := mutate.Allocated(func() { f, err = WrapTCP(mutate.NewConn(wire)).Recv() })
	if err != nil || len(f.Payload) != n || cap(f.Payload) != n {
		t.Fatalf("Recv: %v (len %d cap %d, want %d exact)", err, len(f.Payload), cap(f.Payload), n)
	}
	if limit := uint64(21*n/10 + 64<<10); alloc > limit {
		t.Fatalf("Recv allocated %d bytes (%.2f n) for a payload of %d, limit %d", alloc, float64(alloc)/n, n, limit)
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
	conn := mutate.NewConn(nil)
	if err := SendChunked(context.Background(), WrapTCP(conn), "m/v1", enc, 0); err != nil {
		tb.Fatal(err)
	}
	stream := conn.Out.Bytes()
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
		wireBytes(tb, ChunkRecordFrame("m/v2", records[0])),
	}
}

// checkRecv is the property FuzzTCPLinkRecv and the mutator pass hold the
// frame reader behind every relay and producer port to, on a link with or
// without a receive pool. Whatever the bytes, it must never panic and never
// allocate out of proportion to its input; and every frame it accepts
//
//   - is one Send can write back: re-sending it yields bytes that parse to
//     the same frame, and — unless its meta entries were reordered or
//     collapsed by the map — the very bytes it was read from;
//   - is, when sent says what was sent, bit-identical to one of those
//     frames, or else a chunk-record frame whose payload fails its own CRC:
//     the only bytes the frame CRC does not vouch for are the ones the
//     record CRC does (sent is nil under the native fuzzer, whose inputs
//     have no pedigree).
//
// Accepted payloads are handed back to the pool as a receiver would, so
// with a pool that outlives the call later inputs land in recycled buffers.
func checkRecv(t *testing.T, input []byte, pool *RecvPool, sent []Frame) {
	t.Helper()
	conn := mutate.NewConn(input)
	link := WrapTCP(conn)
	link.SetRecvPool(pool)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var accepted []Frame
	for {
		f, err := link.Recv()
		if err != nil {
			break
		}
		accepted = append(accepted, f)
	}
	runtime.ReadMemStats(&after)
	// Each accepted frame may have cost a meta map and a Frame on top of its
	// bytes; the constant of recvAllocLimit covers one, the rest is per frame.
	if alloc, limit := after.TotalAlloc-before.TotalAlloc, recvAllocLimit(input)+uint64(len(accepted))<<10; alloc > limit {
		t.Fatalf("Recv allocated %d bytes for %d input bytes (%d frames), limit %d", alloc, len(input), len(accepted), limit)
	}
	offset := 0
	for i, got := range accepted {
		resent := wireBytes(t, got)
		if len(accepted) == 1 && len(got.Meta) <= 1 && !bytes.HasPrefix(input, resent) {
			t.Fatalf("accepted frame re-sends to different bytes:\n in  %x\n out %x", input, resent)
		}
		offset += len(resent)
		again, _, _, err := recvOnce(resent)
		if err != nil {
			t.Fatalf("frame %d: re-sent frame does not parse: %v", i, err)
		}
		if !reflect.DeepEqual(again, got) {
			t.Fatalf("frame %d: re-sent frame parses differently:\n first  %+v\n second %+v", i, got, again)
		}
		if sent != nil && !slices.ContainsFunc(sent, func(s Frame) bool { return reflect.DeepEqual(s, got) }) {
			if !IsChunkFrame(got) || vformat.VerifyChunkRecord(got.Payload) {
				t.Fatalf("frame %d: accepted a frame nobody sent, and no record CRC stands in for the frame's:\n %+v", i, got)
			}
		}
		if pool != nil {
			pool.Release(got.Payload)
		}
	}
	if offset > len(input) {
		t.Fatalf("accepted %d frames spanning %d bytes from %d input bytes", len(accepted), offset, len(input))
	}
}

// FuzzTCPLinkRecv feeds arbitrary bytes to the frame reader (checkRecv),
// on a pooled and an unpooled link.
func FuzzTCPLinkRecv(f *testing.F) {
	for _, seed := range fuzzRecvSeeds(f) {
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
		f.Add(seed[:len(seed)-1])
		f.Add(seed[:9])
	}
	f.Add(claim("", 0, 2<<30))
	f.Fuzz(func(t *testing.T, input []byte) {
		checkRecv(t, input, nil, nil)
		checkRecv(t, input, NewRecvPool(), nil)
	})
}

// TestMutatedFramesRecv is FuzzTCPLinkRecv's property under the
// deterministic mutator, inside the plain test pass: a few thousand
// mutants of the seed frames — flipped, truncated, spliced, duplicated,
// reordered — on a pooled and an unpooled link, and because every input
// descends from frames that were really sent, with the pedigree property
// on: nothing is accepted that was not sent, except a record frame whose
// own CRC rejects it.
func TestMutatedFramesRecv(t *testing.T) {
	seeds := fuzzRecvSeeds(t)
	var sent []Frame
	for _, seed := range seeds {
		f, _, _, err := recvOnce(seed)
		if err != nil {
			t.Fatal(err)
		}
		sent = append(sent, f)
	}
	pool := NewRecvPool()
	records, rejected := 0, 0
	mutate.Each(22, 3000, seeds, func(input []byte) {
		checkRecv(t, input, nil, sent)
		before := tcpCorruptFrames.Value()
		checkRecv(t, input, pool, sent)
		rejected += int(tcpCorruptFrames.Value() - before)
		if f, _, _, err := recvOnce(input); err == nil && IsChunkFrame(f) && !vformat.VerifyChunkRecord(f.Payload) {
			records++
		}
	})
	// The pass means something only if it reached both outcomes.
	if records == 0 || rejected == 0 {
		t.Fatalf("%d damaged records delivered, %d frames rejected: the mutants missed a path", records, rejected)
	}
	t.Logf("%d mutants delivered a damaged record to the record CRC, %d frames failed the frame CRC", records, rejected)
}

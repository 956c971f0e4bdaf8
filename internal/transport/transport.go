// Package transport carries Viper's frames over TCP: TCPLink is a real
// connection carrying single frames and the multi-frame chunk streams of
// stream.go, used by the relay and the multi-process producer/consumer.
// Flow control for those streams is TCP back-pressure plus whole-group
// drops at the receivers (DESIGN.md §10), not anything in this package. A
// received byte is touched once: read from the socket into the buffer it
// is delivered in (a pooled one, for a receiver that attached a RecvPool)
// and checksummed by whoever verifies the record it belongs to.
//
// Frames carry a key, an opaque payload and a small metadata map.
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"

	"viper/internal/bufpool"
	"viper/internal/metrics"
)

// registry is the package's metrics surface: every TCPLink feeds these
// aggregate instruments (see DESIGN.md §10 for the naming scheme).
// Instrument pointers are resolved once here.
var registry = metrics.NewRegistry("transport")

// Metrics returns the package's metrics registry (rendered by
// cmd/viper-top and snapshot-tested by the link suite).
func Metrics() *metrics.Registry { return registry }

var tcpFramesSent = registry.Counter("tcp_frames_sent")
var tcpBytesSent = registry.Counter("tcp_bytes_sent")
var tcpFramesRecv = registry.Counter("tcp_frames_recv")
var tcpBytesRecv = registry.Counter("tcp_bytes_recv")
var tcpCorruptFrames = registry.Counter("tcp_corrupt_frames")

// tcpChecksumBytes counts the bytes run through the frame CRC, on send and
// on receive: frame headers, and the payloads of frames that are not chunk
// records. A full stream's count is a fraction of a percent of its payload;
// a gate beside the allocation budget holds it there.
var tcpChecksumBytes = registry.Counter("tcp_checksum_bytes")

// Frame is one transferred message.
type Frame struct {
	// Key identifies the payload (e.g. "tc1/v7").
	Key string
	// Payload is the data.
	Payload []byte
	// Meta carries small string metadata.
	Meta map[string]string
}

// Conn is a point-to-point channel for frames.
type Conn interface {
	// Send transfers a frame to the peer, blocking until it is written.
	Send(f Frame) error
	// Recv blocks until a frame arrives or the connection closes.
	Recv() (Frame, error)
	// Close tears the connection down; pending Recv calls fail.
	Close() error
}

// ReadAhead is how many received frames may wait between a link's reader
// and the stage that assembles them (the relay's ingest, a consumer's
// builder): enough for the next frames' socket reads to overlap this one's
// verify and decode (2 MiB at the default 256 KiB chunk size), few enough
// that a slow assembler closes the sender's TCP window, and a constant so
// that the receive buffers a receiver holds are one too (DESIGN.md §8).
const ReadAhead = 8

// ErrClosed is returned by operations on a closed connection.
var ErrClosed = errors.New("transport: connection closed")

// ErrCorruptFrame is returned by TCPLink.Recv when a frame's checksum
// does not match what it covers — the frame's header, and its payload
// unless the frame is a chunk record (see TCPLink) — through wire
// corruption or a desynchronized stream after a mid-frame connection
// fault. The connection should be torn down and re-established;
// ReconnectLink does this automatically.
var ErrCorruptFrame = errors.New("transport: corrupt frame")

// Meta keys tagging a frame with the model version it carries. Producers
// that stream versioned updates stamp these (WithMeta does it for whole
// chunk streams) so receivers can order, stash and discard frames
// uniformly.
const (
	// MetaModel names the model a frame belongs to.
	MetaModel = "model"
	// MetaVersion carries the frame's version number.
	MetaVersion = "version"
)

// TCPLink is a Conn over a real TCP connection. A frame on the wire is
//
//	key | meta count | (k, v)* | payload length | payload | CRC-32
//
// with every string and the payload behind a u64 length (DESIGN.md, "Wire
// format v2 framing"). The CRC-32 (IEEE) trailer covers the frame header
// as written — everything before the payload, meta pairs in wire order —
// and the payload of every frame except a chunk-record frame
// (MetaChunkRole == ChunkRoleChunk): a record ends in its own CRC-32,
// which every receiver checks before it uses a byte of it, so the link
// does not read those bytes a second time on either side.
//
// Send writes a frame with one writev; Recv parses the header through a
// small buffered reader and reads the payload from the connection straight
// into the buffer the frame is returned with.
type TCPLink struct {
	conn net.Conn

	readMu sync.Mutex
	r      *bufio.Reader // buffers frame headers and CRC trailers; payload reads pass through it
	pool   *RecvPool     // nil: every payload is an exact-size allocation

	writeMu sync.Mutex // serialises one conn's frames
	hdr     []byte     // header scratch, reused frame to frame
	sum     [4]byte
	iov     [3][]byte // backing of bufs, so a Send allocates nothing
	bufs    net.Buffers
}

// headerBufBytes sizes the buffered reader under Recv: room for a frame
// header in one read, small enough that what it pulls in of the payload
// behind the header — copied once more on its way out — stays a percent
// of a default chunk record.
const headerBufBytes = 4 << 10

// DialTCP connects to a listening peer.
func DialTCP(addr string) (*TCPLink, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return WrapTCP(conn), nil
}

// WrapTCP builds a TCPLink over an established connection.
func WrapTCP(conn net.Conn) *TCPLink {
	return &TCPLink{conn: conn, r: bufio.NewReaderSize(conn, headerBufBytes)}
}

// SetRecvPool makes Recv draw chunk-record payloads from pool, which hands
// their ownership to the receiver under RecvPool's contract. It must be
// called before the first Recv. A link without a pool — the default —
// allocates every payload at its exact size and the garbage collector owns
// it, which suits a receiver that keeps what it receives (a relay's
// versions) or receives little (a back-channel).
func (t *TCPLink) SetRecvPool(pool *RecvPool) { t.pool = pool }

// Listener accepts successive peer connections on one bound address,
// letting a producer survive consumer disconnects: after a link fault,
// the consumer redials and the producer re-accepts on the same port.
type Listener struct {
	ln net.Listener
	// Wrap, if set, decorates each accepted conn (e.g. with a fault
	// injector) before it is framed into a TCPLink.
	Wrap func(net.Conn) net.Conn
}

// Listen binds addr (e.g. "127.0.0.1:0") for repeated Accept calls.
func Listen(addr string) (*Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return &Listener{ln: ln}, nil
}

// Addr returns the bound address.
func (l *Listener) Addr() string { return l.ln.Addr().String() }

// Accept blocks for the next peer connection. It is unblocked with an
// error by Close.
func (l *Listener) Accept() (*TCPLink, error) {
	conn, err := l.ln.Accept()
	if err != nil {
		return nil, fmt.Errorf("transport: accept: %w", err)
	}
	if l.Wrap != nil {
		conn = l.Wrap(conn)
	}
	return WrapTCP(conn), nil
}

// Close stops the listener; a blocked Accept returns an error.
func (l *Listener) Close() error { return l.ln.Close() }

// eagerFieldBytes is the largest frame field Recv allocates on the
// strength of its length prefix alone; a larger field grows as its bytes
// arrive (bufpool.ReadAnnounced).
const eagerFieldBytes = bufpool.EagerBytes

const (
	maxHeaderField = 1 << 20 // key, meta key, meta value
	maxFrameField  = 8 << 30 // payload
	maxMetaCount   = 1 << 16
	// coalesceBytes is the largest payload Send copies behind its header so
	// the frame leaves in one Write whatever the conn is.
	coalesceBytes = 2 << 10
	// maxHeaderScratch is the largest header scratch a link keeps between
	// frames.
	maxHeaderScratch = 64 << 10
)

func appendField(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(len(s)))
	return append(b, s...)
}

// Send implements Conn. The frame leaves in one writev on a TCP conn (one
// Write per part on a wrapped conn): header, payload and CRC are never
// staged through a copy, except that a payload of a couple of KiB rides in
// the header's buffer. The payload is fully written when Send returns.
func (t *TCPLink) Send(f Frame) error {
	t.writeMu.Lock()
	defer t.writeMu.Unlock()
	hdr := appendField(t.hdr[:0], f.Key)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(f.Meta)))
	for k, v := range f.Meta {
		hdr = appendField(appendField(hdr, k), v)
	}
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(f.Payload)))
	sum, summed := crc32.ChecksumIEEE(hdr), len(hdr)
	if !IsChunkFrame(f) { // a record's payload is its own CRC's to vouch for
		sum = crc32.Update(sum, crc32.IEEETable, f.Payload)
		summed += len(f.Payload)
	}
	tcpChecksumBytes.Add(int64(summed))
	if len(f.Payload) <= coalesceBytes {
		hdr = binary.LittleEndian.AppendUint32(append(hdr, f.Payload...), sum)
		t.iov[0], t.bufs = hdr, t.iov[:1]
	} else {
		binary.LittleEndian.PutUint32(t.sum[:], sum)
		t.iov = [3][]byte{hdr, f.Payload, t.sum[:]}
		t.bufs = t.iov[:]
	}
	if cap(hdr) <= maxHeaderScratch {
		t.hdr = hdr[:0]
	}
	// The one write of the link, and it blocks on the peer's receive window
	// while holding writeMu by design:
	//lint:ignore lockedsend writeMu exists to serialise one conn's frames; nothing else is ever done under it, so there is no other critical section for the peer's latency to leak into
	_, err := t.bufs.WriteTo(t.conn)
	t.iov[1] = nil // the payload is the caller's again
	if err != nil {
		return err
	}
	tcpFramesSent.Inc()
	tcpBytesSent.Add(int64(len(f.Payload)))
	return nil
}

// frameHeader reads a frame header through the link's buffered reader,
// folding every byte it reads into sum, the frame CRC so far.
type frameHeader struct {
	r    *bufio.Reader
	sum  uint32
	read int // bytes folded into sum
}

func (h *frameHeader) fold(b []byte) {
	h.sum = crc32.Update(h.sum, crc32.IEEETable, b)
	h.read += len(b)
}

func (h *frameHeader) u64() (uint64, error) {
	var b [8]byte
	if _, err := io.ReadFull(h.r, b[:]); err != nil {
		return 0, err
	}
	h.fold(b[:])
	return binary.LittleEndian.Uint64(b[:]), nil
}

// str reads one length-prefixed string of at most maxHeaderField bytes.
// One that fits the reader's buffer — every one a delivery path sends —
// is copied exactly once, out of that buffer into the string.
func (h *frameHeader) str() (string, error) {
	n, err := h.u64()
	if err != nil {
		return "", err
	}
	if n > maxHeaderField {
		return "", fmt.Errorf("transport: frame field of %d bytes exceeds limit %d", n, maxHeaderField)
	}
	if int(n) <= h.r.Size() {
		b, err := h.r.Peek(int(n))
		if err != nil {
			return "", err
		}
		h.fold(b)
		s := string(b)
		_, err = h.r.Discard(int(n))
		return s, err
	}
	b := make([]byte, n) // n <= maxHeaderField == eagerFieldBytes
	if _, err := io.ReadFull(h.r, b); err != nil {
		return "", err
	}
	h.fold(b)
	return string(b), nil
}

// readPayload reads a payload of n announced bytes (bufpool.ReadAnnounced:
// nothing is sized by n beyond eagerFieldBytes before the bytes arrive).
// What the buffered reader pulled in behind the header is copied out of
// it; the rest it reads from the conn straight into the payload's buffer
// (bufio passes a read larger than its buffer through). A chunk record
// that fits a size class is read into a buffer of the link's pool, if it
// has one and the pool lists one, and the buffer is back there if the
// read fails.
func (t *TCPLink) readPayload(n uint64, record bool) ([]byte, error) {
	var buf []byte
	if t.pool != nil && record && n >= minPooledBytes && n <= eagerFieldBytes {
		if buf = t.pool.list.Draw(int(n)); buf != nil {
			recvPoolReused.Inc()
		}
	}
	payload, err := bufpool.ReadAnnounced(t.r, int(n), buf)
	if err != nil {
		t.pool.Release(buf)
	}
	return payload, err
}

// Recv implements Conn. The link keeps no reference to the returned
// frame's Payload: the receiver owns the bytes. On a link with no receive
// pool the payload is a fresh exact-size allocation and that is all there
// is to say (the relay interns it without a copy). On a link with a pool
// (SetRecvPool) a chunk record's payload is a pooled buffer the receiver
// may hand back once, under RecvPool's contract.
//
// A frame whose CRC does not match fails with ErrCorruptFrame and is never
// delivered. The CRC vouches for the header of every frame — key, every
// meta tag, the payload length — and for the payload of every frame but a
// chunk-record frame, whose payload is delivered as it arrived: the
// receiver's per-record check (vformat.VerifyChunkRecord, or the
// assembler's) is what rejects a damaged one.
func (t *TCPLink) Recv() (Frame, error) {
	t.readMu.Lock()
	defer t.readMu.Unlock()
	h := frameHeader{r: t.r}
	key, err := h.str()
	if err != nil {
		return Frame{}, err
	}
	n, err := h.u64()
	if err != nil {
		return Frame{}, err
	}
	if n > maxMetaCount {
		return Frame{}, fmt.Errorf("transport: implausible meta count %d", n)
	}
	var meta map[string]string
	if n > 0 {
		meta = make(map[string]string, min(n, 16)) // n is a claim until the entries arrive
		for i := uint64(0); i < n; i++ {
			k, err := h.str()
			if err != nil {
				return Frame{}, err
			}
			v, err := h.str()
			if err != nil {
				return Frame{}, err
			}
			meta[k] = v
		}
	}
	size, err := h.u64()
	if err != nil {
		return Frame{}, err
	}
	if size > maxFrameField {
		return Frame{}, fmt.Errorf("transport: frame field of %d bytes exceeds limit %d", size, maxFrameField)
	}
	record := IsChunkFrame(Frame{Meta: meta})
	payload, err := t.readPayload(size, record)
	if err != nil {
		return Frame{}, err
	}
	want, summed := h.sum, h.read
	if !record {
		want = crc32.Update(want, crc32.IEEETable, payload)
		summed += len(payload)
	}
	tcpChecksumBytes.Add(int64(summed))
	var sum [4]byte
	if _, err = io.ReadFull(t.r, sum[:]); err == nil && binary.LittleEndian.Uint32(sum[:]) != want {
		tcpCorruptFrames.Inc()
		err = fmt.Errorf("%w: key %q, %d payload bytes", ErrCorruptFrame, key, len(payload))
	}
	if err != nil {
		t.pool.Release(payload)
		return Frame{}, err
	}
	tcpFramesRecv.Inc()
	tcpBytesRecv.Add(int64(len(payload)))
	return Frame{Key: key, Payload: payload, Meta: meta}, nil
}

// Close implements Conn.
func (t *TCPLink) Close() error { return t.conn.Close() }

// WithMeta decorates a Conn so every frame sent through it carries the
// given fixed metadata entries in addition to its own: chunk-stream
// frames gain the same model/version tags as monolithic frames, so
// receivers can order, stash, and discard them uniformly. The extra map
// must not be mutated after the call.
func WithMeta(c Conn, extra map[string]string) Conn {
	return metaConn{Conn: c, extra: extra}
}

type metaConn struct {
	Conn
	extra map[string]string
}

func (m metaConn) Send(f Frame) error {
	if f.Meta == nil {
		f.Meta = make(map[string]string, len(m.extra))
	}
	for k, v := range m.extra {
		f.Meta[k] = v
	}
	return m.Conn.Send(f)
}

// Package transport implements Viper's point-to-point model transfer
// channels. Two implementations share one interface:
//
//   - Link: an in-process, bandwidth-modelled channel whose transfer time
//     is charged against a pluggable clock. It stands in for the paper's
//     MPI_Send/MPI_Recv over GPUDirect RDMA (GPU-to-GPU) or InfiniBand
//     host memory (Host-to-Host); see the calibrated specs below. It is a
//     depth-bounded queue that carries one whole checkpoint per frame,
//     with blocking sends and latest-wins sends whose unit is the frame.
//   - TCPLink: a real TCP connection carrying the same frames — and the
//     multi-frame chunk streams of stream.go — used by the relay and the
//     multi-process producer/consumer. Flow control for those streams is
//     TCP back-pressure plus whole-group drops at the receivers
//     (DESIGN.md §10), not anything in this package. A received byte is
//     touched once: read from the socket into the buffer it is delivered
//     in (a pooled one, for a receiver that attached a RecvPool) and
//     checksummed by whoever verifies the record it belongs to.
//
// Frames carry a key, opaque payload, a virtual payload size (so scaled
// experiments can account full checkpoint sizes) and a small metadata map.
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
	"time"

	"viper/internal/bufpool"
	"viper/internal/memsim"
	"viper/internal/metrics"
	"viper/internal/simclock"
)

// registry is the package's metrics surface: every Link and TCPLink
// feeds these aggregate instruments (see DESIGN.md §10 for the naming
// scheme). Instrument pointers are resolved once here.
var registry = metrics.NewRegistry("transport")

// Metrics returns the package's metrics registry (rendered by
// cmd/viper-top and snapshot-tested by the link suite).
func Metrics() *metrics.Registry { return registry }

// The link_* instruments aggregate over every Link in the process: a
// Link's own counters (Stats) are parented to the four of them it reports.
var (
	linkSendWaits  = registry.Counter("link_send_waits")
	linkQueueDepth = registry.Gauge("link_queue_depth")
)

// The registry lists every counter from start-up.
func init() { metrics.Bind[Stats](registry, new(linkCounters)) }

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
	// Payload is the physical data.
	Payload []byte
	// VirtualSize is the accounted size in bytes (len(Payload) if 0).
	VirtualSize int64
	// Meta carries small string metadata.
	Meta map[string]string
}

func (f *Frame) accountedSize() int64 {
	if f.VirtualSize > 0 {
		return f.VirtualSize
	}
	return int64(len(f.Payload))
}

// Conn is a point-to-point channel for frames.
type Conn interface {
	// Send transfers a frame to the peer, blocking for the modelled (or
	// real) transfer duration.
	Send(f Frame) error
	// Recv blocks until a frame arrives or the connection closes.
	Recv() (Frame, error)
	// Close tears the connection down; pending Recv calls fail.
	Close() error
}

// ErrClosed is returned by operations on a closed connection.
var ErrClosed = errors.New("transport: connection closed")

// ErrCorruptFrame is returned by TCPLink.Recv when a frame's checksum
// does not match what it covers — the frame's header, and its payload
// unless the frame is a chunk record (see TCPLink) — through wire
// corruption or a desynchronized stream after a mid-frame connection
// fault. The connection should be torn down and re-established;
// ReconnectLink does this automatically.
var ErrCorruptFrame = errors.New("transport: corrupt frame")

// Calibrated link specs (ratios matching the paper's Figure 8; see
// DESIGN.md §1).
var (
	// GPUDirectSpec models GPUDirect RDMA over NVLink/Slingshot: the
	// GPU-to-GPU path that gives the paper its ≈9× speedup.
	GPUDirectSpec = LinkSpec{
		Name:  "gpudirect",
		Model: memsim.BandwidthModel{Latency: 5 * time.Microsecond, BytesPerSec: 8.5 * float64(1<<30)},
	}
	// HostIBSpec models host-to-host RDMA over InfiniBand, the fallback
	// when direct GPU-to-GPU links are unavailable (≈3× speedup).
	HostIBSpec = LinkSpec{
		Name:  "ib-host",
		Model: memsim.BandwidthModel{Latency: 10 * time.Microsecond, BytesPerSec: 5.5 * float64(1<<30)},
	}
)

// LinkSpec names a link and its timing model.
type LinkSpec struct {
	// Name identifies the link type.
	Name string
	// Model converts sizes to transfer durations.
	Model memsim.BandwidthModel
}

// Meta keys tagging a frame with the model version it carries. Producers
// that stream versioned updates stamp these (WithMeta does it for whole
// chunk streams) so receivers can order, stash and discard frames
// uniformly; SendLatest reads MetaModel to tell one model's frames from
// another's.
const (
	// MetaModel names the model a frame belongs to.
	MetaModel = "model"
	// MetaVersion carries the frame's version number.
	MetaVersion = "version"
)

// Stats counts link activity: a view of the link's own counters, which
// also feed the registry's link_* sums, plus BusyTime. Two invariants hold
// at every quiescent point (no send or recv in flight):
//
//	FramesSent == frames delivered to the consumer + FramesDropped
//	BytesSent  == bytes  delivered to the consumer + BytesDropped
type Stats struct {
	// FramesSent counts frames accepted for delivery, including frames
	// SendLatest later evicted before a consumer received them.
	FramesSent int64 `metric:"link_frames_sent"`
	// FramesDropped counts superseded frames evicted by SendLatest.
	FramesDropped int64 `metric:"link_frames_dropped"`
	// BytesSent accumulates the accounted sizes of FramesSent.
	BytesSent int64 `metric:"link_bytes_sent"`
	// BytesDropped accumulates the accounted sizes of FramesDropped, so
	// BytesSent-BytesDropped is what a draining consumer receives.
	BytesDropped int64 `metric:"link_bytes_dropped"`
	// BusyTime is the modelled time spent transferring: state of the
	// link's clock model, kept under its lock.
	BusyTime time.Duration
}

// linkCounters are one Link's event counters, named field for field after
// the tagged fields of Stats (metrics.Bind).
type linkCounters struct {
	FramesSent, FramesDropped, BytesSent, BytesDropped metrics.Counter
}

// Link is an in-process bandwidth-modelled connection: a depth-bounded
// queue of frames whose sender first pays the modelled transfer time.
// Both endpoints share the Link; the producer calls Send or SendLatest,
// the consumer Recv. It carries what the simulator sends over it — one
// whole checkpoint per frame — and nothing else: flow control for
// multi-frame streams lives on the TCP path (DESIGN.md §10).
type Link struct {
	spec  LinkSpec
	clock simclock.Clock
	depth int

	mu       sync.Mutex
	sendable sync.Cond // space freed, or link closed
	recvable sync.Cond // frame enqueued, or link closed
	queue    []Frame
	down     bool
	busy     time.Duration
	n        linkCounters

	closed chan struct{}
	once   sync.Once
}

// NewLink builds a link with the given spec and clock. depth bounds the
// number of in-flight frames (sends beyond it block after their modelled
// transfer time).
func NewLink(spec LinkSpec, clock simclock.Clock, depth int) *Link {
	if depth < 1 {
		depth = 1
	}
	l := &Link{spec: spec, clock: clock, depth: depth, closed: make(chan struct{})}
	l.sendable.L = &l.mu
	l.recvable.L = &l.mu
	metrics.Bind[Stats](registry, &l.n)
	return l
}

// cloneFrame deep-copies a frame's payload and metadata, isolating the
// enqueued frame from later mutation by the sender.
func cloneFrame(f Frame) Frame {
	cp := Frame{Key: f.Key, VirtualSize: f.VirtualSize, Payload: make([]byte, len(f.Payload))}
	copy(cp.Payload, f.Payload)
	if f.Meta != nil {
		cp.Meta = make(map[string]string, len(f.Meta))
		for k, v := range f.Meta {
			cp.Meta[k] = v
		}
	}
	return cp
}

// Send implements Conn: it sleeps for the modelled transfer time, then
// enqueues a deep copy of the frame, blocking while the queue is full.
// Send drops nothing, so an ordered multi-frame stream sent with it alone
// (SendChunked) arrives whole.
func (l *Link) Send(f Frame) error {
	return l.send(cloneFrame(f), false)
}

// SendLatest behaves like Send, but with latest-wins semantics whose
// unit is the frame: when the queue is full it evicts every queued frame
// that a later frame of the same model (MetaModel; queued, or the one
// arriving) supersedes, and blocks only when nothing can go. It is meant
// for frames that each carry a whole version — a slow consumer then
// observes skipped versions, mirroring the paper's "only buffer the
// latest model" policy. A multi-frame stream must use Send: SendLatest
// would evict its earlier frames.
func (l *Link) SendLatest(f Frame) error {
	return l.send(cloneFrame(f), true)
}

// SendLatestShared is SendLatest without the defensive deep copy: the
// enqueued frame aliases f's payload and metadata, so the caller must not
// mutate either after the call. It exists for the broadcast path —
// encoding a checkpoint once and fanning the same frame out to every
// consumer link costs one encode regardless of link count, where per-link
// SendLatest would deep-copy (and so re-touch) the full payload per
// consumer.
func (l *Link) SendLatestShared(f Frame) error {
	return l.send(f, true)
}

// charge spends the modelled transfer time for size bytes. The wait is
// interruptible: closing the link aborts it with ErrClosed instead of
// leaving the sender stuck inside an unbounded modelled sleep.
func (l *Link) charge(size int64) (time.Duration, error) {
	select {
	case <-l.closed:
		return 0, ErrClosed
	default:
	}
	cost := l.spec.Model.Time(size)
	if cost <= 0 {
		return 0, nil
	}
	select {
	case <-l.clock.After(cost):
		return cost, nil
	case <-l.closed:
		return 0, ErrClosed
	}
}

// send charges the modelled transfer time and enqueues f as given. A
// full queue blocks the sender until the consumer drains or the link
// closes; with latest set, superseded frames are evicted first and the
// sender blocks only when none is left to evict.
func (l *Link) send(f Frame, latest bool) error {
	size := f.accountedSize()
	cost, err := l.charge(size)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	waited := false
	for !l.down && len(l.queue) >= l.depth {
		if latest && l.evictSupersededLocked(f.Meta[MetaModel]) {
			continue
		}
		if !waited {
			waited = true
			linkSendWaits.Inc()
		}
		l.sendable.Wait()
	}
	if l.down {
		return ErrClosed
	}
	l.queue = append(l.queue, f)
	l.busy += cost
	l.n.BytesSent.Add(size)
	l.n.FramesSent.Inc()
	linkQueueDepth.Add(1)
	l.recvable.Signal()
	return nil
}

// evictSupersededLocked drops every queued frame that a later frame of
// the same model supersedes — later in the queue, or the incoming frame
// of model incoming — and reports whether anything was freed. Each
// model's newest queued frame survives unless the incoming frame is of
// that model. Caller holds l.mu.
func (l *Link) evictSupersededLocked(incoming string) bool {
	seen := map[string]bool{incoming: true}
	// Walk newest to oldest so a frame's successors are seen before it,
	// packing the survivors against the tail.
	kept := len(l.queue)
	for i := len(l.queue) - 1; i >= 0; i-- {
		f := l.queue[i]
		if model := f.Meta[MetaModel]; !seen[model] {
			seen[model] = true
			kept--
			l.queue[kept] = f
			continue
		}
		l.n.BytesDropped.Add(f.accountedSize())
		l.n.FramesDropped.Inc()
	}
	if kept == 0 {
		return false
	}
	n := copy(l.queue, l.queue[kept:])
	for i := n; i < len(l.queue); i++ {
		l.queue[i] = Frame{} // drop the payload reference
	}
	l.queue = l.queue[:n]
	linkQueueDepth.Add(-int64(kept))
	l.sendable.Broadcast() // freed slots may unblock other senders
	return true
}

// dequeueLocked pops the head frame. Caller holds l.mu and has verified
// the queue is non-empty.
func (l *Link) dequeueLocked() Frame {
	f := l.queue[0]
	copy(l.queue, l.queue[1:])
	l.queue[len(l.queue)-1] = Frame{} // drop the payload reference
	l.queue = l.queue[:len(l.queue)-1]
	linkQueueDepth.Add(-1)
	l.sendable.Signal()
	return f
}

// Recv implements Conn. After Close it keeps returning queued frames
// until the link drains, then ErrClosed.
func (l *Link) Recv() (Frame, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.queue) == 0 && !l.down {
		l.recvable.Wait()
	}
	if len(l.queue) == 0 {
		return Frame{}, ErrClosed
	}
	return l.dequeueLocked(), nil
}

// TryRecv returns a pending frame without blocking.
func (l *Link) TryRecv() (Frame, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.queue) == 0 {
		return Frame{}, false
	}
	return l.dequeueLocked(), true
}

// Close implements Conn.
func (l *Link) Close() error {
	l.once.Do(func() {
		close(l.closed)
		l.mu.Lock()
		l.down = true
		l.sendable.Broadcast()
		l.recvable.Broadcast()
		l.mu.Unlock()
	})
	return nil
}

// Stats returns the link's counters and its modelled busy time.
func (l *Link) Stats() Stats {
	st := metrics.View[Stats](&l.n)
	l.mu.Lock()
	st.BusyTime = l.busy
	l.mu.Unlock()
	return st
}

// TCPLink is a Conn over a real TCP connection. A frame on the wire is
//
//	key | meta count | (k, v)* | virtual size | payload length | payload | CRC-32
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
// it, which suits a receiver that keeps what it receives (the relay's
// chunk table) or receives little (a back-channel).
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
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(f.VirtualSize))
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
	tcpBytesSent.Add(f.accountedSize())
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
// meta tag, both sizes — and for the payload of every frame but a
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
	virtual, err := h.u64()
	if err != nil {
		return Frame{}, err
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
	f := Frame{Key: key, Payload: payload, VirtualSize: int64(virtual), Meta: meta}
	tcpFramesRecv.Inc()
	tcpBytesRecv.Add(f.accountedSize())
	return f, nil
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

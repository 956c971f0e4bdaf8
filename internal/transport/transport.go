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
//     (DESIGN.md §10), not anything in this package.
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

// The link_* instruments aggregate over every Link in the process. A
// Link records into them under l.mu, beside the Stats field each one
// mirrors, so the registry never lags a link.
var (
	linkFramesSent    = registry.Counter("link_frames_sent")
	linkBytesSent     = registry.Counter("link_bytes_sent")
	linkFramesDropped = registry.Counter("link_frames_dropped")
	linkBytesDropped  = registry.Counter("link_bytes_dropped")
	linkSendWaits     = registry.Counter("link_send_waits")
	linkQueueDepth    = registry.Gauge("link_queue_depth")
)

var tcpFramesSent = registry.Counter("tcp_frames_sent")
var tcpBytesSent = registry.Counter("tcp_bytes_sent")
var tcpFramesRecv = registry.Counter("tcp_frames_recv")
var tcpBytesRecv = registry.Counter("tcp_bytes_recv")
var tcpCorruptFrames = registry.Counter("tcp_corrupt_frames")

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
// does not match its contents (wire corruption or a desynchronized
// stream after a mid-frame connection fault). The connection should be
// torn down and re-established; ReconnectLink does this automatically.
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

// Stats counts link activity. Two invariants hold at every quiescent
// point (no send or recv in flight):
//
//	FramesSent == frames delivered to the consumer + FramesDropped
//	BytesSent  == bytes  delivered to the consumer + BytesDropped
type Stats struct {
	// FramesSent counts frames accepted for delivery, including frames
	// SendLatest later evicted before a consumer received them.
	FramesSent int64
	// FramesDropped counts superseded frames evicted by SendLatest.
	FramesDropped int64
	// BytesSent accumulates the accounted sizes of FramesSent.
	BytesSent int64
	// BytesDropped accumulates the accounted sizes of FramesDropped, so
	// BytesSent-BytesDropped is what a draining consumer receives.
	BytesDropped int64
	// BusyTime is the modelled time spent transferring.
	BusyTime time.Duration
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
	stats    Stats

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
	return l
}

// TransferTime reports the modelled duration for size bytes.
func (l *Link) TransferTime(size int64) time.Duration { return l.spec.Model.Time(size) }

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

// SendShared is Send without the defensive deep copy: the enqueued
// frame aliases f's payload and metadata, so the caller must not mutate
// either after the call. It exists for the broadcast path — encoding a
// checkpoint once and fanning the same frame out to every consumer link
// costs one encode regardless of link count, where per-link Send would
// deep-copy (and so re-touch) the full payload per consumer.
func (l *Link) SendShared(f Frame) error {
	return l.send(f, false)
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

// SendLatestShared is SendLatest without the defensive deep copy; the
// same aliasing contract as SendShared applies.
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
	l.stats.FramesSent++
	l.stats.BytesSent += size
	l.stats.BusyTime += cost
	linkFramesSent.Inc()
	linkBytesSent.Add(size)
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
		size := f.accountedSize()
		l.stats.FramesDropped++
		l.stats.BytesDropped += size
		linkFramesDropped.Inc()
		linkBytesDropped.Add(size)
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

// Stats returns a snapshot of the link counters.
func (l *Link) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// TCPLink is a Conn over a real TCP connection. Frames are length-
// prefixed: key, meta (count + k/v strings), virtual size, payload,
// then a CRC32 (IEEE) of key+payload so corrupted or desynchronized
// frames are rejected instead of silently installed.
type TCPLink struct {
	conn net.Conn
	r    *bufio.Reader

	writeMu sync.Mutex
	w       *bufio.Writer
	readMu  sync.Mutex
}

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
	return &TCPLink{conn: conn, r: bufio.NewReaderSize(conn, 1<<16), w: bufio.NewWriterSize(conn, 1<<16)}
}

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

// ListenTCP accepts one peer connection on addr, invoking ready with the
// bound address before blocking in Accept.
func ListenTCP(addr string, ready func(boundAddr string)) (*TCPLink, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	defer ln.Close()
	if ready != nil {
		ready(ln.Addr().String())
	}
	conn, err := ln.Accept()
	if err != nil {
		return nil, fmt.Errorf("transport: accept: %w", err)
	}
	return WrapTCP(conn), nil
}

func writeBytes(w *bufio.Writer, b []byte) error {
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(len(b)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(b)
	return err
}

// eagerFieldBytes is the largest frame field Recv allocates on the
// strength of its length prefix alone. It sits above a default chunk
// record (vformat.DefaultChunkBytes plus its header), so every frame of
// a default stream still costs one exact-size allocation; a larger field
// grows as its bytes arrive, so a peer cannot make Recv allocate more
// than a small multiple of what it actually sent.
const eagerFieldBytes = 1 << 20

func readBytes(r *bufio.Reader, maxLen uint64) ([]byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint64(hdr[:])
	if n > maxLen {
		return nil, fmt.Errorf("transport: frame field of %d bytes exceeds limit %d", n, maxLen)
	}
	buf := make([]byte, min(n, eagerFieldBytes))
	for filled := 0; ; {
		if _, err := io.ReadFull(r, buf[filled:]); err != nil {
			return nil, err
		}
		if uint64(len(buf)) == n {
			return buf, nil
		}
		// Double, but never past n: the finished field is exact-size.
		grown := make([]byte, min(n, 2*uint64(len(buf))))
		filled = copy(grown, buf)
		buf = grown
	}
}

// Send implements Conn.
func (t *TCPLink) Send(f Frame) error {
	t.writeMu.Lock()
	defer t.writeMu.Unlock()
	if err := writeBytes(t.w, []byte(f.Key)); err != nil {
		return err
	}
	var meta [8]byte
	binary.LittleEndian.PutUint64(meta[:], uint64(len(f.Meta)))
	if _, err := t.w.Write(meta[:]); err != nil {
		return err
	}
	for k, v := range f.Meta {
		if err := writeBytes(t.w, []byte(k)); err != nil {
			return err
		}
		if err := writeBytes(t.w, []byte(v)); err != nil {
			return err
		}
	}
	var vs [8]byte
	binary.LittleEndian.PutUint64(vs[:], uint64(f.VirtualSize))
	if _, err := t.w.Write(vs[:]); err != nil {
		return err
	}
	if err := writeBytes(t.w, f.Payload); err != nil {
		return err
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], frameChecksum(f.Key, f.Payload))
	if _, err := t.w.Write(sum[:]); err != nil {
		return err
	}
	if err := t.w.Flush(); err != nil {
		return err
	}
	tcpFramesSent.Inc()
	tcpBytesSent.Add(f.accountedSize())
	return nil
}

// frameChecksum covers the fields whose corruption would poison a
// restored model: the routing key and the checkpoint payload.
func frameChecksum(key string, payload []byte) uint32 {
	sum := crc32.ChecksumIEEE([]byte(key))
	return crc32.Update(sum, crc32.IEEETable, payload)
}

const maxFrameField = 8 << 30

// Recv implements Conn. The returned frame's Payload is freshly
// allocated per call and the link keeps no reference to it: the
// receiver owns the bytes (the relay interns them without a copy).
func (t *TCPLink) Recv() (Frame, error) {
	t.readMu.Lock()
	defer t.readMu.Unlock()
	key, err := readBytes(t.r, 1<<20)
	if err != nil {
		return Frame{}, err
	}
	var cnt [8]byte
	if _, err := io.ReadFull(t.r, cnt[:]); err != nil {
		return Frame{}, err
	}
	n := binary.LittleEndian.Uint64(cnt[:])
	if n > 1<<16 {
		return Frame{}, fmt.Errorf("transport: implausible meta count %d", n)
	}
	var meta map[string]string
	if n > 0 {
		meta = make(map[string]string, min(n, 16)) // n is a claim until the entries arrive
		for i := uint64(0); i < n; i++ {
			k, err := readBytes(t.r, 1<<20)
			if err != nil {
				return Frame{}, err
			}
			v, err := readBytes(t.r, 1<<20)
			if err != nil {
				return Frame{}, err
			}
			meta[string(k)] = string(v)
		}
	}
	var vs [8]byte
	if _, err := io.ReadFull(t.r, vs[:]); err != nil {
		return Frame{}, err
	}
	payload, err := readBytes(t.r, maxFrameField)
	if err != nil {
		return Frame{}, err
	}
	var sum [4]byte
	if _, err := io.ReadFull(t.r, sum[:]); err != nil {
		return Frame{}, err
	}
	if got := binary.LittleEndian.Uint32(sum[:]); got != frameChecksum(string(key), payload) {
		tcpCorruptFrames.Inc()
		return Frame{}, fmt.Errorf("%w: key %q, %d payload bytes", ErrCorruptFrame, key, len(payload))
	}
	f := Frame{
		Key:         string(key),
		Payload:     payload,
		VirtualSize: int64(binary.LittleEndian.Uint64(vs[:])),
		Meta:        meta,
	}
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

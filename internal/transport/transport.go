// Package transport implements Viper's point-to-point model transfer
// channels. Two implementations share one interface:
//
//   - Link: an in-process, bandwidth-modelled channel whose transfer time
//     is charged against a pluggable clock. It stands in for the paper's
//     MPI_Send/MPI_Recv over GPUDirect RDMA (GPU-to-GPU) or InfiniBand
//     host memory (Host-to-Host); see the calibrated specs below.
//   - TCPLink: a real TCP connection carrying the same frames, used by the
//     two-process producer/consumer demo.
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
// scheme). Instrument pointers are resolved once here, so the per-frame
// cost is a handful of atomic adds.
var registry = metrics.NewRegistry("transport")

// Metrics returns the package's metrics registry (rendered by
// cmd/viper-top and snapshot-tested by the flow-control suite).
func Metrics() *metrics.Registry { return registry }

// instruments caches the resolved instrument pointers a Link records
// through. A zero instruments value (all nil) disables recording —
// metrics instruments are nil-safe no-ops — which LinkOptions.NoMetrics
// uses to measure the hot path's metrics overhead (ci.sh BENCH_6 gate).
//
// Links do not touch these per frame: the hot path only bumps the
// link-local Stats it already maintains under l.mu, and deltas are
// flushed to the registry every flushEvery frames plus on every rare
// event (drop, shed, grant, close, Stats read). The registry may
// therefore lag a busy link by up to flushEvery-1 frames, which keeps
// the instrumented Send within the CI overhead budget.
type instruments struct {
	framesSent   *metrics.Counter
	bytesSent    *metrics.Counter
	framesDrop   *metrics.Counter
	bytesDrop    *metrics.Counter
	groupSheds   *metrics.Counter
	sendWaits    *metrics.Counter
	creditGrants *metrics.Counter
	queueDepth   *metrics.Gauge
	shedFrames   *metrics.Histogram
}

var linkInstruments = instruments{
	framesSent:   registry.Counter("link_frames_sent"),
	bytesSent:    registry.Counter("link_bytes_sent"),
	framesDrop:   registry.Counter("link_frames_dropped"),
	bytesDrop:    registry.Counter("link_bytes_dropped"),
	groupSheds:   registry.Counter("link_group_sheds"),
	sendWaits:    registry.Counter("link_send_waits"),
	creditGrants: registry.Counter("link_credit_grants"),
	queueDepth:   registry.Gauge("link_queue_depth"),
	shedFrames:   registry.Histogram("link_shed_group_frames"),
}

// flushEvery is the registry flush cadence in enqueued frames.
const flushEvery = 64

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
// chunk streams); SendLatest uses them to shed superseded versions as
// whole groups instead of evicting arbitrary frames.
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

// Link is an in-process bandwidth-modelled connection. Both endpoints
// share the Link; the producer calls Send, the consumer Recv.
//
// With LinkOptions.Window > 0 the link runs credit-based flow control:
// every enqueued frame consumes one credit, and only the consumer's
// explicit Grant calls mint new ones — so a producer can have at most
// Window frames outstanding beyond what the consumer has acknowledged,
// and a stalled consumer stalls (Send) or sheds whole superseded
// version groups (SendLatest) instead of piling up unbounded work.
type Link struct {
	spec   LinkSpec
	clock  simclock.Clock
	depth  int
	window int
	inst   instruments

	mu       sync.Mutex
	sendable sync.Cond // space or credits freed, or link closed
	recvable sync.Cond // frame enqueued, or link closed
	queue    []Frame
	credits  int
	down     bool
	stats    Stats
	// shed remembers chunk-stream groups whose header was evicted before
	// any consumer saw it: trailing chunks of those groups are dropped on
	// arrival (they could never be assembled) instead of queueing as an
	// unsheddable orphan group. shedFIFO bounds the memory.
	shed     map[string]bool
	shedFIFO []string
	// flushed/flushedDepth/sinceFlush track what has been pushed to the
	// package registry (see the instruments doc).
	flushed      Stats
	flushedDepth int64
	sinceFlush   int

	closed chan struct{}
	once   sync.Once
}

// shedMemory bounds how many evicted group identities a link remembers.
const shedMemory = 256

// LinkOptions tunes a link beyond spec/clock/depth.
type LinkOptions struct {
	// Window enables credit-based flow control when positive: at most
	// Window frames may be outstanding (enqueued but not yet re-granted
	// by the consumer via Grant). 0 disables credits; sends are then
	// bounded by queue depth alone.
	Window int
	// NoMetrics detaches the link from the package metrics registry.
	// It exists so the CI benchmark can measure the metrics overhead of
	// the send hot path against an instrument-free baseline.
	NoMetrics bool
}

// NewLink builds a link with the given spec and clock. depth bounds the
// number of in-flight frames (sends beyond it block after their modelled
// transfer time).
func NewLink(spec LinkSpec, clock simclock.Clock, depth int) *Link {
	return NewLinkWithOptions(spec, clock, depth, LinkOptions{})
}

// NewLinkWithOptions builds a link with explicit flow-control options.
func NewLinkWithOptions(spec LinkSpec, clock simclock.Clock, depth int, opts LinkOptions) *Link {
	if depth < 1 {
		depth = 1
	}
	if opts.Window < 0 {
		opts.Window = 0
	}
	l := &Link{
		spec:    spec,
		clock:   clock,
		depth:   depth,
		window:  opts.Window,
		credits: opts.Window,
		closed:  make(chan struct{}),
	}
	if !opts.NoMetrics {
		l.inst = linkInstruments
	}
	l.sendable.L = &l.mu
	l.recvable.L = &l.mu
	return l
}

// Spec returns the link's spec.
func (l *Link) Spec() LinkSpec { return l.spec }

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
// enqueues a deep copy of the frame.
func (l *Link) Send(f Frame) error {
	return l.send(cloneFrame(f))
}

// SendShared is Send without the defensive deep copy: the enqueued
// frame aliases f's payload and metadata, so the caller must not mutate
// either after the call. It exists for the broadcast path — encoding a
// checkpoint once and fanning the same frame out to every consumer link
// costs one encode regardless of link count, where per-link Send would
// deep-copy (and so re-touch) the full payload per consumer.
func (l *Link) SendShared(f Frame) error {
	return l.send(f)
}

// charge spends the modelled transfer time for size bytes. The wait is
// interruptible: closing the link aborts it with ErrClosed instead of
// leaving the sender stuck inside an unbounded modelled sleep (the
// pre-rewrite Sleep could not be cancelled).
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

// flushMetricsLocked pushes the link-local accounting deltas to the
// package registry. Caller holds l.mu.
func (l *Link) flushMetricsLocked() {
	l.sinceFlush = 0
	d := l.stats
	l.inst.framesSent.Add(d.FramesSent - l.flushed.FramesSent)
	l.inst.bytesSent.Add(d.BytesSent - l.flushed.BytesSent)
	l.inst.framesDrop.Add(d.FramesDropped - l.flushed.FramesDropped)
	l.inst.bytesDrop.Add(d.BytesDropped - l.flushed.BytesDropped)
	l.inst.queueDepth.Add(int64(len(l.queue)) - l.flushedDepth)
	l.flushedDepth = int64(len(l.queue))
	l.flushed = d
}

// enqueueLocked appends f and does the send-side accounting. Caller
// holds l.mu and has verified space and credits.
func (l *Link) enqueueLocked(f Frame, size int64, cost time.Duration) {
	l.queue = append(l.queue, f)
	if l.window > 0 {
		l.credits--
	}
	l.stats.FramesSent++
	l.stats.BytesSent += size
	l.stats.BusyTime += cost
	l.sinceFlush++
	if l.sinceFlush >= flushEvery {
		l.flushMetricsLocked()
	}
	l.recvable.Signal()
}

// send charges the modelled transfer time and enqueues f as given,
// blocking while the queue is full or (window mode) credits are spent.
func (l *Link) send(f Frame) error {
	size := f.accountedSize()
	cost, err := l.charge(size)
	if err != nil {
		return err
	}
	l.mu.Lock()
	if !l.down && (len(l.queue) >= l.depth || (l.window > 0 && l.credits <= 0)) {
		l.inst.sendWaits.Inc()
	}
	for !l.down && (len(l.queue) >= l.depth || (l.window > 0 && l.credits <= 0)) {
		l.sendable.Wait()
	}
	if l.down {
		l.mu.Unlock()
		return ErrClosed
	}
	l.enqueueLocked(f, size, cost)
	l.mu.Unlock()
	return nil
}

// dequeueLocked pops the head frame. Caller holds l.mu and has verified
// the queue is non-empty.
func (l *Link) dequeueLocked() Frame {
	f := l.queue[0]
	copy(l.queue, l.queue[1:])
	l.queue[len(l.queue)-1] = Frame{} // drop the payload reference
	l.queue = l.queue[:len(l.queue)-1]
	l.sendable.Signal()
	return f
}

// Recv implements Conn. After Close it keeps returning queued frames
// until the link drains, then ErrClosed.
func (l *Link) Recv() (Frame, error) {
	l.mu.Lock()
	for len(l.queue) == 0 && !l.down {
		l.recvable.Wait()
	}
	if len(l.queue) == 0 {
		l.mu.Unlock()
		return Frame{}, ErrClosed
	}
	f := l.dequeueLocked()
	l.mu.Unlock()
	return f, nil
}

// SendLatest behaves like Send, but with latest-wins semantics: when
// the queue is full (or credits are spent), it shrinks the backlog by
// evicting superseded version groups — each group being one monolithic
// frame or one whole chunk stream (header plus chunks), identified by
// the model/version Meta tags when present and by Key otherwise. A
// group the consumer has started receiving is never torn: if only
// in-flight frames remain, SendLatest blocks until the consumer makes
// room. A slow consumer therefore observes skipped versions, never a
// half-delivered one (mirroring the paper's "only buffer the latest
// model" policy without its torn-stream failure mode).
func (l *Link) SendLatest(f Frame) error {
	return l.sendLatest(cloneFrame(f))
}

// SendLatestShared is SendLatest without the defensive deep copy; the
// same aliasing contract as SendShared applies.
func (l *Link) SendLatestShared(f Frame) error {
	return l.sendLatest(f)
}

// groupOf returns the version-group identity of a frame and the model
// it belongs to. Version-tagged frames form one group per
// (model, version) — a chunk stream's header and chunks all share it —
// while untagged frames group by key, preserving per-frame drop-oldest
// behaviour for plain monolithic updates.
func groupOf(f *Frame) (model, group string) {
	model = f.Meta[MetaModel]
	if v := f.Meta[MetaVersion]; v != "" {
		return model, "v\x00" + model + "\x00" + v
	}
	return model, "k\x00" + model + "\x00" + f.Key
}

// sendLatest charges the modelled transfer time and enqueues f as
// given, shedding superseded version groups instead of blocking where
// it safely can.
func (l *Link) sendLatest(f Frame) error {
	size := f.accountedSize()
	cost, err := l.charge(size)
	if err != nil {
		return err
	}
	model, group := groupOf(&f)
	l.mu.Lock()
	defer l.mu.Unlock()
	if IsChunkFrame(f) && l.shed[group] {
		// A chunk of a version whose header was already evicted unseen:
		// the consumer could never assemble it, so account it as sent and
		// immediately dropped rather than queueing a poisoned orphan.
		l.stats.FramesSent++
		l.stats.BytesSent += size
		l.stats.BusyTime += cost
		l.stats.FramesDropped++
		l.stats.BytesDropped += size
		l.flushMetricsLocked()
		return nil
	}
	waited := false
	for {
		if l.down {
			return ErrClosed
		}
		if len(l.queue) < l.depth && (l.window == 0 || l.credits > 0) {
			l.enqueueLocked(f, size, cost)
			return nil
		}
		if l.shedSupersededLocked(model, group) {
			continue
		}
		// Only in-flight work (or a spent credit window) remains: block
		// until the consumer drains, grants, or the link closes.
		if !waited {
			waited = true
			l.inst.sendWaits.Inc()
		}
		l.sendable.Wait()
	}
}

// shedSupersededLocked evicts whole superseded version groups from the
// queue, reporting whether anything was freed. A queued group is
// superseded when a later group of the same model exists — later in the
// queue, or arriving as the incoming frame (inModel/inGroup). It is
// sheddable only while the consumer has not started receiving it: its
// first queued frame must open a stream (a monolithic frame or a chunk
// header). A group whose first queued frame is a bare chunk is in
// flight — the consumer holds its header — and is never torn, unless
// the header was itself evicted unseen (a remnant of an earlier shed).
func (l *Link) shedSupersededLocked(inModel, inGroup string) bool {
	if len(l.queue) == 0 {
		return false
	}
	type groupState struct {
		group     string
		model     string
		opens     bool // first queued frame opens a stream
		remnant   bool // header already evicted: frames are garbage
		hasHeader bool
	}
	var order []*groupState
	byGroup := make(map[string]*groupState)
	for i := range l.queue {
		m, g := groupOf(&l.queue[i])
		gs := byGroup[g]
		if gs == nil {
			gs = &groupState{
				group:   g,
				model:   m,
				opens:   IsChunkHeader(l.queue[i]) || !IsChunkFrame(l.queue[i]),
				remnant: l.shed[g],
			}
			byGroup[g] = gs
			order = append(order, gs)
		}
		if IsChunkHeader(l.queue[i]) {
			gs.hasHeader = true
		}
	}
	doomed := make(map[string]bool)
	for idx, gs := range order {
		if gs.remnant && !gs.opens {
			doomed[gs.group] = true
			continue
		}
		if !gs.opens {
			continue // consumer is mid-collect: never tear it
		}
		superseded := inModel == gs.model && inGroup != gs.group
		for _, later := range order[idx+1:] {
			if later.model == gs.model && later.group != gs.group {
				superseded = true
				break
			}
		}
		if superseded {
			doomed[gs.group] = true
		}
	}
	if len(doomed) == 0 {
		return false
	}
	kept := make([]Frame, 0, len(l.queue))
	evicted := 0
	for i := range l.queue {
		f := l.queue[i]
		_, g := groupOf(&f)
		if !doomed[g] {
			kept = append(kept, f)
			continue
		}
		evicted++
		l.stats.FramesDropped++
		l.stats.BytesDropped += f.accountedSize()
		if l.window > 0 {
			l.credits++ // refund: the frame will never be delivered
		}
	}
	l.queue = kept
	for g := range doomed {
		if byGroup[g].hasHeader {
			l.rememberShedLocked(g)
		}
	}
	l.inst.groupSheds.Add(int64(len(doomed)))
	l.inst.shedFrames.Observe(int64(evicted))
	l.flushMetricsLocked()
	l.sendable.Broadcast() // freed slots/credits may unblock other senders
	return true
}

// rememberShedLocked records that group g's chunk-stream header was
// evicted before any consumer saw it, bounded to shedMemory entries.
func (l *Link) rememberShedLocked(g string) {
	if l.shed[g] {
		return
	}
	if l.shed == nil {
		l.shed = make(map[string]bool)
	}
	l.shed[g] = true
	l.shedFIFO = append(l.shedFIFO, g)
	if len(l.shedFIFO) > shedMemory {
		delete(l.shed, l.shedFIFO[0])
		l.shedFIFO = l.shedFIFO[1:]
	}
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

// Grant returns n delivery credits to the producer side of a windowed
// link, capped at the configured window. Recv deliberately does not
// mint credits: the consumer acknowledges frames it has actually
// processed, so the window tracks consumer progress rather than queue
// occupancy. Grant on a credit-disabled link is a no-op.
func (l *Link) Grant(n int) {
	if n <= 0 {
		return
	}
	l.mu.Lock()
	if l.window > 0 && !l.down {
		l.credits += n
		if l.credits > l.window {
			l.credits = l.window
		}
		l.inst.creditGrants.Add(int64(n))
		l.sendable.Broadcast()
	}
	l.mu.Unlock()
}

// Window reports the configured credit window (0: credits disabled).
func (l *Link) Window() int { return l.window }

// Credits reports the producer's remaining credits (always 0 when
// credits are disabled).
func (l *Link) Credits() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.credits
}

// QueueLen reports the number of frames awaiting the consumer.
func (l *Link) QueueLen() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.queue)
}

// Latest returns a Conn view of the link whose Send applies SendLatest
// semantics, so chunk streams (SendChunked) ride the version-group
// shedding and credit machinery without changing the streaming code.
func (l *Link) Latest() Conn { return latestConn{l} }

type latestConn struct{ link *Link }

func (c latestConn) Send(f Frame) error   { return c.link.SendLatest(f) }
func (c latestConn) Recv() (Frame, error) { return c.link.Recv() }
func (c latestConn) Close() error         { return c.link.Close() }

// Close implements Conn.
func (l *Link) Close() error {
	l.once.Do(func() {
		close(l.closed)
		l.mu.Lock()
		l.down = true
		l.flushMetricsLocked()
		l.sendable.Broadcast()
		l.recvable.Broadcast()
		l.mu.Unlock()
	})
	return nil
}

// Stats returns a snapshot of the link counters (and flushes the
// link's pending deltas to the package metrics registry).
func (l *Link) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.flushMetricsLocked()
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

func readBytes(r *bufio.Reader, maxLen uint64) ([]byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint64(hdr[:])
	if n > maxLen {
		return nil, fmt.Errorf("transport: frame field of %d bytes exceeds limit %d", n, maxLen)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
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
		meta = make(map[string]string, n)
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

// Broadcast sends one frame over several connections (the documented
// extension point toward the paper's future multi-consumer topology).
// It returns the first error encountered, after attempting every conn.
func Broadcast(conns []Conn, f Frame) error {
	var firstErr error
	for _, c := range conns {
		if err := c.Send(f); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

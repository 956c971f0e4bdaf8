package core

import (
	"errors"
	"sync"
	"time"

	"viper/internal/memsim"
	"viper/internal/simclock"
)

// The calibrated link models (ratios matching the paper's Figure 8; see
// DESIGN.md §1).
var (
	// gpuDirectModel models GPUDirect RDMA over NVLink/Slingshot: the
	// GPU-to-GPU path that gives the paper its ≈9× speedup.
	gpuDirectModel = memsim.BandwidthModel{Latency: 5 * time.Microsecond, BytesPerSec: 8.5 * float64(1<<30)}
	// hostIBModel models host-to-host RDMA over InfiniBand, the fallback
	// when direct GPU-to-GPU links are unavailable (≈3× speedup).
	hostIBModel = memsim.BandwidthModel{Latency: 10 * time.Microsecond, BytesPerSec: 5.5 * float64(1<<30)}
)

// errLinkClosed is returned by operations on a closed Link.
var errLinkClosed = errors.New("core: link closed")

// LinkFrame is one whole checkpoint on a Link.
type LinkFrame struct {
	// Key identifies the checkpoint (CheckpointKey).
	Key string
	// Model names the model; latest-wins eviction is per model.
	Model string
	// Payload is the encoded checkpoint, shared with the sender.
	Payload []byte
	// Size is the accounted size in bytes the link charges for.
	Size int64
}

// Link is the simulator's producer→consumer channel, standing in for the
// paper's MPI_Send/MPI_Recv over GPUDirect RDMA or InfiniBand host memory:
// a depth-bounded queue of whole checkpoints whose sender first pays the
// modelled transfer time on the link's clock. Both endpoints share the
// Link; the producer calls SendLatest, the consumer Recv.
type Link struct {
	model memsim.BandwidthModel
	clock simclock.Clock
	depth int

	mu       sync.Mutex
	sendable sync.Cond // space freed, or link closed
	recvable sync.Cond // frame enqueued, or link closed
	queue    []LinkFrame
	down     bool

	closed chan struct{}
	once   sync.Once
}

// NewLink builds a link charging model on clock. depth bounds the number
// of queued frames.
func NewLink(model memsim.BandwidthModel, clock simclock.Clock, depth int) *Link {
	l := &Link{model: model, clock: clock, depth: max(depth, 1), closed: make(chan struct{})}
	l.sendable.L = &l.mu
	l.recvable.L = &l.mu
	return l
}

// SendLatest charges f's modelled transfer time, then enqueues f with
// latest-wins semantics whose unit is the frame: when the queue is full it
// evicts every queued frame that a later frame of the same model (queued,
// or f) supersedes, and blocks only when nothing can go — a slow consumer
// observes skipped versions, the paper's "only buffer the latest model"
// policy. The queued frame aliases f.Payload, so the sender must not
// mutate it afterwards: a broadcast encodes a checkpoint once and puts the
// same bytes on every consumer's link.
func (l *Link) SendLatest(f LinkFrame) error {
	if err := l.charge(f.Size); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for !l.down && len(l.queue) >= l.depth {
		if !l.evictSupersededLocked(f.Model) {
			l.sendable.Wait()
		}
	}
	if l.down {
		return errLinkClosed
	}
	l.queue = append(l.queue, f)
	l.recvable.Signal()
	return nil
}

// charge spends the modelled transfer time for size bytes. The wait is
// interruptible: closing the link aborts it with errLinkClosed instead of
// leaving the sender stuck inside an unbounded modelled sleep.
func (l *Link) charge(size int64) error {
	select {
	case <-l.closed:
		return errLinkClosed
	default:
	}
	cost := l.model.Time(size)
	if cost <= 0 {
		return nil
	}
	select {
	case <-l.clock.After(cost):
		return nil
	case <-l.closed:
		return errLinkClosed
	}
}

// evictSupersededLocked drops every queued frame that a later frame of the
// same model supersedes — later in the queue, or the incoming frame of
// model incoming — and reports whether anything was freed. Each model's
// newest queued frame survives unless the incoming frame is of that model.
// Caller holds l.mu.
func (l *Link) evictSupersededLocked(incoming string) bool {
	seen := map[string]bool{incoming: true}
	// Walk newest to oldest so a frame's successors are seen before it,
	// packing the survivors against the tail.
	kept := len(l.queue)
	for i := len(l.queue) - 1; i >= 0; i-- {
		if f := l.queue[i]; !seen[f.Model] {
			seen[f.Model] = true
			kept--
			l.queue[kept] = f
		}
	}
	if kept == 0 {
		return false
	}
	n := copy(l.queue, l.queue[kept:])
	clear(l.queue[n:]) // drop the payload references
	l.queue = l.queue[:n]
	l.sendable.Broadcast() // freed slots may unblock other senders
	return true
}

// dequeueLocked pops the head frame. Caller holds l.mu and has verified
// the queue is non-empty.
func (l *Link) dequeueLocked() LinkFrame {
	f := l.queue[0]
	copy(l.queue, l.queue[1:])
	l.queue[len(l.queue)-1] = LinkFrame{} // drop the payload reference
	l.queue = l.queue[:len(l.queue)-1]
	l.sendable.Signal()
	return f
}

// Recv blocks until a frame arrives or the link closes. After Close it
// keeps returning queued frames until the link drains, then errLinkClosed.
func (l *Link) Recv() (LinkFrame, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.queue) == 0 && !l.down {
		l.recvable.Wait()
	}
	if len(l.queue) == 0 {
		return LinkFrame{}, errLinkClosed
	}
	return l.dequeueLocked(), nil
}

// TryRecv returns a pending frame without blocking.
func (l *Link) TryRecv() (LinkFrame, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.queue) == 0 {
		return LinkFrame{}, false
	}
	return l.dequeueLocked(), true
}

// Close tears the link down: a blocked or later SendLatest fails with
// errLinkClosed, a modelled transfer in progress is cut short, and Recv
// drains what is queued before it fails too.
func (l *Link) Close() {
	l.once.Do(func() {
		close(l.closed)
		l.mu.Lock()
		l.down = true
		l.sendable.Broadcast()
		l.recvable.Broadcast()
		l.mu.Unlock()
	})
}

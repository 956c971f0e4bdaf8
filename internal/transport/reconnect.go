package transport

import (
	"sync"
	"sync/atomic"

	"viper/internal/retry"
)

// ReconnectStats counts ReconnectLink recovery activity.
type ReconnectStats struct {
	// Connects counts successful connection establishments (1 for a
	// fault-free run).
	Connects int64
	// SendRetries and RecvRetries count failed attempts that were
	// retried after tearing the connection down.
	SendRetries int64
	RecvRetries int64
}

// ReconnectLink is a Conn that survives connection faults: when a send
// or receive fails, the underlying TCPLink is torn down and re-
// established via the connect function, bounded by a retry.Policy. The
// producer side passes an accept-based connect (Listener.Accept), the
// consumer side a dial-based one, making recovery symmetric.
//
// Frames in flight when a connection dies are lost, not replayed: Viper
// frames are superseding model updates, and the remote layer backfills
// any gap from the KV staging area (the PFS-analogue fallback path).
type ReconnectLink struct {
	connect func() (*TCPLink, error)
	policy  retry.Policy

	// dialMu serializes connection establishment so a concurrent Send
	// and Recv cannot race two dials (or two accepts) for one slot.
	dialMu sync.Mutex

	mu     sync.Mutex
	cur    *TCPLink
	closed bool

	connects, sendRetries, recvRetries atomic.Int64 // what Stats reports
}

// NewReconnectLink wraps connect with retry-bounded reconnection. No
// connection is made until the first Send/Recv (or an explicit Connect).
func NewReconnectLink(connect func() (*TCPLink, error), policy retry.Policy) *ReconnectLink {
	return &ReconnectLink{connect: connect, policy: policy}
}

// Connect eagerly establishes the link (retrying per the policy), so
// callers can surface connectivity errors before streaming begins.
func (r *ReconnectLink) Connect() error {
	return r.policy.Do(func(int) error {
		_, err := r.acquire()
		return err
	})
}

// acquire returns the live link, establishing one if needed. A closed
// link yields a permanent ErrClosed so retry loops stop immediately.
func (r *ReconnectLink) acquire() (*TCPLink, error) {
	r.dialMu.Lock()
	defer r.dialMu.Unlock()
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, retry.Permanent(ErrClosed)
	}
	if r.cur != nil {
		link := r.cur
		r.mu.Unlock()
		return link, nil
	}
	r.mu.Unlock()
	link, err := r.connect()
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		link.Close()
		return nil, retry.Permanent(ErrClosed)
	}
	r.cur = link
	r.connects.Add(1)
	return link, nil
}

// invalidate discards link after err failed an operation on it, so the
// next acquire reconnects, and returns the error to report: permanent
// once the ReconnectLink itself is closed — the failure is then Close
// tearing the connection down, and backing off before a retry that can
// only fail would just delay the owner's shutdown.
func (r *ReconnectLink) invalidate(link *TCPLink, err error) error {
	r.mu.Lock()
	if r.cur == link {
		r.cur = nil
	}
	closed := r.closed
	r.mu.Unlock()
	link.Close()
	if closed {
		return retry.Permanent(ErrClosed)
	}
	return err
}

// Send implements Conn, reconnecting and retrying on failure.
func (r *ReconnectLink) Send(f Frame) error {
	first := true
	return r.policy.Do(func(int) error {
		if !first {
			r.sendRetries.Add(1)
		}
		first = false
		link, err := r.acquire()
		if err != nil {
			return err
		}
		if err := link.Send(f); err != nil {
			return r.invalidate(link, err)
		}
		return nil
	})
}

// Recv implements Conn, reconnecting and retrying on failure. Note that
// a reconnect loses frames the peer sent on the dead connection; callers
// needing every update must recover gaps out of band.
func (r *ReconnectLink) Recv() (Frame, error) {
	var out Frame
	first := true
	err := r.policy.Do(func(int) error {
		if !first {
			r.recvRetries.Add(1)
		}
		first = false
		link, err := r.acquire()
		if err != nil {
			return err
		}
		f, err := link.Recv()
		if err != nil {
			return r.invalidate(link, err)
		}
		out = f
		return nil
	})
	return out, err
}

// Close implements Conn. It does not close the Listener or unblock an
// in-flight connect; owners close those first.
func (r *ReconnectLink) Close() error {
	r.mu.Lock()
	r.closed = true
	link := r.cur
	r.cur = nil
	r.mu.Unlock()
	if link != nil {
		return link.Close()
	}
	return nil
}

// Stats returns the recovery counters.
func (r *ReconnectLink) Stats() ReconnectStats {
	return ReconnectStats{Connects: r.connects.Load(), SendRetries: r.sendRetries.Load(), RecvRetries: r.recvRetries.Load()}
}

// Package remote implements Viper's multi-process deployment: a producer
// and a consumer on (potentially) different machines, sharing a metadata
// server and a notification broker over TCP, and streaming checkpoints
// over a direct TCP link — the wall-clock analogue of the in-process
// engine in internal/core, used by the cmd/viper-producer and
// cmd/viper-consumer demo binaries.
//
// The delivery pipeline is fault-tolerant: both ends drive the direct
// link through transport.ReconnectLink (redial / re-accept with bounded
// retries), the metadata client retries idempotent operations, and when
// the direct link stays faulted the producer degrades to staging the
// checkpoint payload in the KV store — mirroring the in-process
// GPU→host→PFS fallback of core.WeightsHandler.captureWithFallback —
// from where the consumer backfills any update the link lost.
package remote

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"viper/internal/metrics"
	"viper/internal/retry"
	"viper/internal/simclock"
	"viper/internal/transport"
)

// registry is the package's metrics surface: delivery-path counters for
// every producer and consumer in the process. A producer's and a
// consumer's own counters (ProducerStats, ConsumerStats) are parented to
// it; inst holds the instruments no Stats field reports. All record sites
// are per-checkpoint (never per-byte).
var registry = metrics.NewRegistry("remote")

// Metrics returns the package's metrics registry.
func Metrics() *metrics.Registry { return registry }

// The instruments no Stats field reports.
var (
	consumerInstalls = registry.Counter("consumer_installs")
	stageFlushes     = registry.Counter("producer_stage_flushes")
	stageSuperseded  = registry.Counter("producer_stage_superseded")
	stageFlushMS     = registry.Histogram("producer_stage_flush_ms")
	prebuiltInstalls = registry.Counter("consumer_prebuilt_installs")
	abandonedBuilds  = registry.Counter("consumer_abandoned_builds")
	fillSuperseded   = registry.Counter("consumer_fill_superseded")
	cacheFillMS      = registry.Histogram("consumer_cache_fill_ms")
	haveListLagMS    = registry.Histogram("consumer_have_list_lag_ms") // install → its have-list written
	// Model-sized targets — a full stream's assembly, a back-buffer clone —
	// written into the consumer's spare instead of a fresh allocation.
	recycledSnapshots = registry.Counter("consumer_recycled_snapshots")
	// Per delta publish: records the encoder hashed, and hashes it
	// inherited from the previous encode. Per delta install: positions
	// covered by the span source without a record.
	hashedChunks    = registry.Counter("producer_hashed_chunks")
	inheritedHashes = registry.Counter("producer_inherited_hashes")
	inheritedChunks = registry.Counter("consumer_inherited_chunks")
)

// The registry lists every counter from start-up.
func init() {
	metrics.Bind[ProducerStats](registry, new(producerCounters))
	metrics.Bind[ConsumerStats](registry, new(consumerCounters))
}

// policyOrDefault substitutes the standard wall-clock schedule for a
// zero policy.
func policyOrDefault(p retry.Policy) retry.Policy {
	if p.MaxAttempts == 0 {
		return retry.Default(nil)
	}
	return p
}

// opened is what a constructor has connected so far.
type opened []io.Closer

// step records c (if the step opened anything) when the step succeeded;
// on err it closes everything opened before and returns err wrapped as
// the constructor's.
func (o *opened) step(what string, c io.Closer, err error) error {
	if err == nil {
		if c != nil {
			*o = append(*o, c)
		}
		return nil
	}
	for _, c := range *o {
		c.Close()
	}
	return fmt.Errorf("remote: %s: %w", what, err)
}

// dialedLink is the reconnecting link of the side that dials addr (dial
// nil: plain TCP). With a pool, the payloads it delivers are drawn from it.
func dialedLink(addr string, dial func(string) (net.Conn, error), pol retry.Policy, pool *transport.RecvPool) *transport.ReconnectLink {
	if dial == nil {
		dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	return transport.NewReconnectLink(func() (*transport.TCPLink, error) {
		conn, err := dial(addr)
		if err != nil {
			return nil, err
		}
		link := transport.WrapTCP(conn)
		link.SetRecvPool(pool)
		return link, nil
	}, pol)
}

// recvLoop is the reader loop of both ends: it hands every frame the
// (reconnecting) link delivers to handle until handle reports false, closed
// closes or the link is closed for good. While the link is persistently
// unavailable it backs off on the retry policy's schedule — charged
// against the injected clock, so virtual-time tests cover the full backoff
// curve without burning wall time — and keeps trying. The backoff wait
// stays interruptible: a plain clock.Sleep kept the loop alive (and
// leakcheck-visible) for a full backoff period after Close.
func recvLoop(link *transport.ReconnectLink, policy retry.Policy, clock simclock.Clock, closed <-chan struct{}, handle func(transport.Frame) bool) {
	backoff := initialBackoff(policy)
	for {
		f, err := link.Recv()
		if err != nil {
			select {
			case <-closed:
				return
			default:
			}
			if errors.Is(err, transport.ErrClosed) {
				return
			}
			select {
			case <-clock.After(backoff):
			case <-closed:
				return
			}
			backoff = nextBackoff(policy, backoff)
			continue
		}
		backoff = initialBackoff(policy)
		if !handle(f) {
			return
		}
	}
}

// initialBackoff is recvLoop's first retry delay under policy.
func initialBackoff(p retry.Policy) time.Duration {
	if p.BaseDelay > 0 {
		return p.BaseDelay
	}
	return 50 * time.Millisecond
}

// nextBackoff grows cur by the policy's multiplier, capped at MaxDelay.
func nextBackoff(p retry.Policy, cur time.Duration) time.Duration {
	mult := p.Multiplier
	if mult < 1 {
		mult = 2
	}
	next := time.Duration(float64(cur) * mult)
	if p.MaxDelay > 0 && next > p.MaxDelay {
		next = p.MaxDelay
	}
	return next
}

// latest is a latest-wins hand-off to one background worker: one item
// runs, at most one waits, and a newer one supersedes the one waiting.
// The producer's stage flusher and the consumer's filler are both this.
type latest[T any] struct {
	closed <-chan struct{} // the owner's shutdown channel
	wake   chan struct{}   // nudges the worker after pending is set

	mu      sync.Mutex
	pending *T
	refused bool
}

func newLatest[T any](closed <-chan struct{}) *latest[T] {
	return &latest[T]{closed: closed, wake: make(chan struct{}, 1)}
}

// put leaves it for the worker and returns the item it superseded, if one
// was still waiting: whatever that holds is the caller's to give back.
// After refuse, ok is false and it stays the caller's.
func (l *latest[T]) put(it *T) (superseded *T, ok bool) {
	l.mu.Lock()
	if l.refused {
		l.mu.Unlock()
		return nil, false
	}
	superseded, l.pending = l.pending, it
	l.mu.Unlock()
	select {
	case l.wake <- struct{}{}:
	default: // a wake-up is already pending
	}
	return superseded, true
}

// refuse makes every later put fail. An owner whose worker must finish
// what is waiting calls it before it closes closed: a put racing the close
// then either lands ahead of the worker's last sweep or queues nothing.
func (l *latest[T]) refuse() {
	l.mu.Lock()
	l.refused = true
	l.mu.Unlock()
}

// run is the worker: one item at a time, never under mu, until closed
// closes — after one last sweep, so what was put before is still handed
// to work.
func (l *latest[T]) run(work func(*T)) {
	for {
		select {
		case <-l.wake:
		case <-l.closed:
		}
		for {
			l.mu.Lock()
			it := l.pending
			l.pending = nil
			l.mu.Unlock()
			if it == nil {
				break
			}
			work(it)
		}
		select {
		case <-l.closed:
			return
		default:
		}
	}
}

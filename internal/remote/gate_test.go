package remote

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"viper/internal/kvstore"
)

// connGate holds the writes of the connections it wraps while it is
// held, so a test can park the producer's stage flusher inside a staging
// write — or the consumer's filler inside a have-list write — and
// script what happens around it.
type connGate struct {
	mu      sync.Mutex
	open    chan struct{} // closed while writes may pass
	blocked chan struct{} // one token per write that had to wait
	passed  atomic.Int64  // bytes forwarded so far
}

func newConnGate() *connGate {
	g := &connGate{open: make(chan struct{}), blocked: make(chan struct{}, 64)}
	close(g.open)
	return g
}

// hold makes every later write wait for release.
func (g *connGate) hold() {
	g.mu.Lock()
	g.open = make(chan struct{})
	g.mu.Unlock()
}

// release lets held and later writes pass.
func (g *connGate) release() {
	g.mu.Lock()
	select {
	case <-g.open:
	default:
		close(g.open)
	}
	g.mu.Unlock()
}

// waitBlocked returns once a write is parked at the gate.
func (g *connGate) waitBlocked(t *testing.T) {
	t.Helper()
	select {
	case <-g.blocked:
	case <-time.After(10 * time.Second):
		t.Fatal("no write reached the held gate")
	}
}

func (g *connGate) wrap(c net.Conn) net.Conn { return &gatedConn{Conn: c, gate: g} }

type gatedConn struct {
	net.Conn
	gate *connGate
}

func (c *gatedConn) Write(b []byte) (int, error) {
	c.gate.mu.Lock()
	open := c.gate.open
	c.gate.mu.Unlock()
	select {
	case <-open:
	default:
		select {
		case c.gate.blocked <- struct{}{}:
		default:
		}
		<-open
	}
	c.gate.passed.Add(int64(len(b)))
	return c.Conn.Write(b)
}

// dial is a dial hook whose connections pass through the gate.
func (g *connGate) dial(addr string) (net.Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return g.wrap(c), nil
}

// failWrites wraps a connection whose every write fails.
func failWrites(c net.Conn) net.Conn { return &failingConn{Conn: c} }

type failingConn struct{ net.Conn }

func (c *failingConn) Write([]byte) (int, error) { return 0, errors.New("injected write failure") }

// byteCounter reports the running total of bytes written through the
// connection to onWrite, before each write is forwarded.
type byteCounter struct {
	net.Conn
	total   int64
	onWrite func(total int64)
}

func (c *byteCounter) Write(b []byte) (int, error) {
	c.total += int64(len(b))
	c.onWrite(c.total)
	return c.Conn.Write(b)
}

// swapStageKV replaces the stage flusher's KV connection with one whose
// conn passes through wrap. Call it before the first publish: the
// flusher only reads the field after a publish has handed it work.
func swapStageKV(t *testing.T, prod *Producer, addr string, wrap func(net.Conn) net.Conn) {
	t.Helper()
	kv, err := kvstore.DialOptions(addr, kvstore.Options{DialFunc: func(a string) (net.Conn, error) {
		c, err := net.Dial("tcp", a)
		if err != nil {
			return nil, err
		}
		return wrap(c), nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	prod.stageKV.Close()
	prod.stageKV = kv
}

// waitFor polls cond until it holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

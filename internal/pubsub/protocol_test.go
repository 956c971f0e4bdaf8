package pubsub

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"viper/internal/mutate"
)

func rawPubSubConn(t *testing.T) (net.Conn, *bufio.Reader) {
	t.Helper()
	srv := NewServer(NewBroker(16))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	return conn, bufio.NewReader(conn)
}

func psSend(t *testing.T, conn net.Conn, line string) {
	t.Helper()
	if _, err := conn.Write([]byte(line + "\r\n")); err != nil {
		t.Fatal(err)
	}
}

func psRead(t *testing.T, r *bufio.Reader) string {
	t.Helper()
	line, err := r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	return strings.TrimRight(line, "\r\n")
}

func TestPubSubProtocolUnknownCommand(t *testing.T) {
	conn, r := rawPubSubConn(t)
	psSend(t, conn, "SHUTDOWN now")
	if got := psRead(t, r); !strings.HasPrefix(got, "-ERR unknown command") {
		t.Fatalf("reply = %q", got)
	}
	psSend(t, conn, "PING")
	if got := psRead(t, r); got != "+PONG" {
		t.Fatalf("after error, PING = %q", got)
	}
}

func TestPubSubProtocolMalformedCommands(t *testing.T) {
	conn, r := rawPubSubConn(t)
	psSend(t, conn, "SUB")
	if got := psRead(t, r); !strings.HasPrefix(got, "-ERR usage") {
		t.Fatalf("SUB reply = %q", got)
	}
	psSend(t, conn, "PUB onlychannel")
	if got := psRead(t, r); !strings.HasPrefix(got, "-ERR usage") {
		t.Fatalf("PUB reply = %q", got)
	}
	psSend(t, conn, "PUB chan notanumber")
	if got := psRead(t, r); !strings.HasPrefix(got, "-ERR bad length") {
		t.Fatalf("PUB length reply = %q", got)
	}
}

func TestPubSubEmptyPayload(t *testing.T) {
	pub, subC := newServerPair(t)
	ch, err := subC.Subscribe("c")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Publish("c", ""); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-ch:
		if msg.Payload != "" {
			t.Fatalf("payload = %q, want empty", msg.Payload)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("empty payload not delivered")
	}
}

func TestPubSubClientSurvivesDoubleClose(t *testing.T) {
	pub, _ := newServerPair(t)
	if err := pub.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pub.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Publish("c", "x"); err == nil {
		t.Fatal("publish after close must fail")
	}
}

func TestPubSubSubscriberReceivesOwnPublishes(t *testing.T) {
	srv := NewServer(NewBroker(16))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := DialClient(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	ch, err := c.Subscribe("loop")
	if err != nil {
		t.Fatal(err)
	}
	n, err := c.Publish("loop", "self")
	if err != nil || n != 1 {
		t.Fatalf("publish = %d, %v", n, err)
	}
	select {
	case msg := <-ch:
		if msg.Payload != "self" {
			t.Fatalf("payload = %q", msg.Payload)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("self-publish not delivered")
	}
}

// TestServerCloseIdempotent: Close must be safe to call more than once.
// Before the sync.Once guard the second call panicked on the double
// close of s.done (found by viper-vet's chanlife analyzer).
func TestServerCloseIdempotent(t *testing.T) {
	s := NewServer(NewBroker(4))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// oversize are announced lengths no notification has: the largest int (n+2
// wrapped negative and the make panicked), one the allocator would really
// try for, and the first one over the cap.
var oversize = []int{math.MaxInt64, 1 << 40, MaxPayloadBytes + 1}

// TestOversizePubRefused: one such PUB line used to panic the connection
// goroutine — and with it the process, viper-metasrv — in makeslice. It is
// refused before anything is allocated and the connection is served on.
func TestOversizePubRefused(t *testing.T) {
	conn, r := rawPubSubConn(t)
	for _, n := range oversize {
		psSend(t, conn, fmt.Sprintf("PUB m %d", n))
		if got := psRead(t, r); got != "-ERR payload too large" {
			t.Fatalf("PUB announcing %d bytes: reply = %q", n, got)
		}
		psSend(t, conn, "PING")
		if got := psRead(t, r); got != "+PONG" {
			t.Fatalf("after the refusal, PING = %q", got)
		}
	}
	psSend(t, conn, fmt.Sprintf("PUB m %d\r\n%s", MaxPayloadBytes, strings.Repeat("x", MaxPayloadBytes)))
	if got := psRead(t, r); got != ":0" {
		t.Fatalf("PUB of exactly the cap: reply = %q", got)
	}
}

// TestOversizeMsgDropsTheConnection is the same line from the other side:
// a broker that pushes it used to kill every consumer process subscribed
// to it. The client gives the connection up — it cannot skip a payload of
// that length, so it reads nothing that follows — and its caller sees an
// error, not a crash.
func TestOversizeMsgDropsTheConnection(t *testing.T) {
	for _, n := range oversize {
		c := newClient(mutate.NewConn([]byte(fmt.Sprintf("MSG m %d\r\n+PONG\r\n", n))))
		<-c.closed
		if len(c.replies) != 0 {
			t.Fatalf("MSG announcing %d bytes: the client read on past it", n)
		}
		if _, err := c.Publish("m", "x"); err == nil {
			t.Fatal("Publish on a dropped connection succeeded")
		}
	}
	pub, sub := newServerPair(t)
	ch, err := sub.Subscribe("m")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Publish("m", strings.Repeat("x", MaxPayloadBytes+1)); err == nil {
		t.Fatal("Publish sent a payload over the cap")
	}
	if n, err := pub.Publish("m", "after"); err != nil || n != 1 {
		t.Fatalf("after the refused Publish: %d receivers, %v", n, err)
	}
	if msg := <-ch; msg.Payload != "after" {
		t.Fatalf("after the refused Publish the subscriber got %q", msg.Payload)
	}
}

// TestLineTooLong: a line is capped at maxLineBytes on both sides. The
// server answers -ERR and closes — the rest of the line cannot be skipped
// safely — without buffering what it was sent; the client closes.
func TestLineTooLong(t *testing.T) {
	long := append(bytes.Repeat([]byte("c"), 8<<20), "\r\nPING\r\n"...)
	srv := NewServer(NewBroker(4))
	conn := mutate.NewConn(append([]byte("SUB "), long...))
	alloc := mutate.Allocated(func() {
		srv.wg.Add(1)
		srv.serveConn(conn)
		srv.wg.Wait()
	})
	if out := conn.Out.String(); out != "-ERR line too long\r\n" {
		t.Fatalf("an 8 MiB line was answered %q", out)
	}
	if alloc > 4*maxLineBytes {
		t.Fatalf("the server allocated %d bytes reading a line capped at %d", alloc, maxLineBytes)
	}

	var c *Client
	conn = mutate.NewConn(append([]byte("+"), long...))
	alloc = mutate.Allocated(func() {
		c = newClient(conn)
		<-c.closed
	})
	if alloc > 4*maxLineBytes {
		t.Fatalf("the client allocated %d bytes reading a line capped at %d", alloc, maxLineBytes)
	}
	select {
	case line := <-c.replies:
		t.Fatalf("the client took an 8 MiB line for a reply (%d bytes)", len(line))
	default:
	}
}

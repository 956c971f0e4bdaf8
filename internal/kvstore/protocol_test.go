package kvstore

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"
)

// rawConn opens a raw TCP connection to a fresh server for protocol
// abuse tests.
func rawConn(t *testing.T) (net.Conn, *bufio.Reader) {
	t.Helper()
	srv := NewServer(NewStore())
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

func sendLine(t *testing.T, conn net.Conn, line string) {
	t.Helper()
	if _, err := conn.Write([]byte(line + "\r\n")); err != nil {
		t.Fatal(err)
	}
}

func readLine(t *testing.T, r *bufio.Reader) string {
	t.Helper()
	line, err := r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	return strings.TrimRight(line, "\r\n")
}

func TestProtocolUnknownCommand(t *testing.T) {
	conn, r := rawConn(t)
	sendLine(t, conn, "FLUSHALL")
	if got := readLine(t, r); !strings.HasPrefix(got, "-ERR unknown command") {
		t.Fatalf("reply = %q", got)
	}
	// The connection must survive and keep serving.
	sendLine(t, conn, "PING")
	if got := readLine(t, r); got != "+PONG" {
		t.Fatalf("after error, PING reply = %q", got)
	}
}

func TestProtocolMalformedSet(t *testing.T) {
	conn, r := rawConn(t)
	sendLine(t, conn, "SET keyonly")
	if got := readLine(t, r); !strings.HasPrefix(got, "-ERR usage") {
		t.Fatalf("reply = %q", got)
	}
	sendLine(t, conn, "SET key notanumber")
	if got := readLine(t, r); !strings.HasPrefix(got, "-ERR bad length") {
		t.Fatalf("reply = %q", got)
	}
	sendLine(t, conn, "SET key -5")
	if got := readLine(t, r); !strings.HasPrefix(got, "-ERR bad length") {
		t.Fatalf("reply = %q", got)
	}
}

func TestProtocolEmptyLinesIgnored(t *testing.T) {
	conn, r := rawConn(t)
	sendLine(t, conn, "")
	sendLine(t, conn, "PING")
	if got := readLine(t, r); got != "+PONG" {
		t.Fatalf("reply = %q", got)
	}
}

func TestProtocolIncrNonInteger(t *testing.T) {
	conn, r := rawConn(t)
	// SET key to a non-integer, then INCR must report an error.
	payload := "abc"
	sendLine(t, conn, "SET k 3")
	if _, err := conn.Write([]byte(payload + "\r\n")); err != nil {
		t.Fatal(err)
	}
	if got := readLine(t, r); got != "+OK" {
		t.Fatalf("SET reply = %q", got)
	}
	sendLine(t, conn, "INCR k")
	if got := readLine(t, r); !strings.HasPrefix(got, "-ERR") {
		t.Fatalf("INCR reply = %q", got)
	}
}

func TestProtocolLargeValue(t *testing.T) {
	_, c := newServerClient(t)
	big := strings.Repeat("x", 1<<20) // 1 MiB value
	if err := c.Set("big", big); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get("big")
	if err != nil || len(got) != len(big) {
		t.Fatalf("Get len = %d, err = %v", len(got), err)
	}
}

func TestProtocolAbruptDisconnectDuringSet(t *testing.T) {
	conn, _ := rawConn(t)
	// Announce a 100-byte payload but hang up after 10: the server must
	// drop the connection without crashing (verified by a fresh client
	// still being served — rawConn's cleanup does that implicitly via a
	// second connection below).
	sendLine(t, conn, "SET k 100")
	if _, err := conn.Write([]byte("only ten b")); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	// A new connection to the same server must still work.
	conn2, r2 := rawConn(t)
	sendLine(t, conn2, "PING")
	if got := readLine(t, r2); got != "+PONG" {
		t.Fatalf("reply = %q", got)
	}
}

// TestServerCloseIdempotent: Close must be safe to call more than once.
// Before the sync.Once guard the second call panicked on the double
// close of s.done (found by viper-vet's chanlife analyzer).
func TestServerCloseIdempotent(t *testing.T) {
	s := NewServer(NewStore())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// expectClosed asserts the server hung up: the next read hits EOF (or a
// reset), never a further reply.
func expectClosed(t *testing.T, r *bufio.Reader) {
	t.Helper()
	if line, err := r.ReadString('\n'); err == nil {
		t.Fatalf("connection still open, read %q", line)
	}
}

// An announced length above MaxValueBytes must be refused before any
// buffer is sized from it, and the connection closed: the value bytes
// that would follow cannot be skipped safely.
func TestProtocolOversizeSetRefused(t *testing.T) {
	conn, r := rawConn(t)
	sendLine(t, conn, fmt.Sprintf("SET k %d", MaxValueBytes+1))
	if got := readLine(t, r); got != "-ERR value too large" {
		t.Fatalf("reply = %q", got)
	}
	expectClosed(t, r)
}

// A negative length is refused without reading a value; since no value
// follows a refused header in a well-behaved exchange, the connection
// keeps serving.
func TestProtocolNegativeSetLength(t *testing.T) {
	conn, r := rawConn(t)
	sendLine(t, conn, "SET k -1")
	if got := readLine(t, r); !strings.HasPrefix(got, "-ERR bad length") {
		t.Fatalf("reply = %q", got)
	}
	sendLine(t, conn, "GET k")
	if got := readLine(t, r); got != "$-1" {
		t.Fatalf("GET after refused SET = %q, want $-1 (nothing stored)", got)
	}
}

// A value whose announced length is not followed by CRLF means client
// and server disagree on where the value ends: protocol error, nothing
// stored, connection closed.
func TestProtocolMissingCRLFRejected(t *testing.T) {
	store := NewStore()
	srv := NewServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	r := bufio.NewReader(conn)
	if _, err := conn.Write([]byte("SET k 3\r\nabcdefPING\r\n")); err != nil {
		t.Fatal(err)
	}
	if got := readLine(t, r); !strings.HasPrefix(got, "-ERR protocol") {
		t.Fatalf("reply = %q", got)
	}
	expectClosed(t, r)
	if _, err := store.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("mis-terminated value was stored (err %v)", err)
	}
}

// fakeServer answers every request line on one connection with reply.
func fakeServer(t *testing.T, reply string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				r := bufio.NewReader(conn)
				for {
					if _, err := r.ReadString('\n'); err != nil {
						return
					}
					if _, err := conn.Write([]byte(reply)); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// The client applies the same bounds to a server's bulk reply: an
// oversize "$<len>" and a value without its CRLF are errors, not an
// allocation or a shifted stream.
func TestClientRejectsBadBulkReplies(t *testing.T) {
	for name, reply := range map[string]string{
		"oversize":     fmt.Sprintf("$%d\r\n", MaxValueBytes+1),
		"missing CRLF": "$3\r\nabcXY",
	} {
		c, err := Dial(fakeServer(t, reply))
		if err != nil {
			t.Fatal(err)
		}
		if v, err := c.GetBytes("k"); err == nil {
			t.Errorf("%s: GetBytes = %q, want an error", name, v)
		}
		c.Close()
	}
}

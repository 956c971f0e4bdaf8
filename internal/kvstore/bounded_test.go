package kvstore

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"testing"

	"viper/internal/mutate"
)

// serveBytes feeds input to a fresh server's connection loop over an
// in-memory connection and returns what it wrote and what it allocated.
func serveBytes(srv *Server, input []byte) (out string, alloc uint64) {
	conn := mutate.NewConn(input)
	alloc = mutate.Allocated(func() {
		srv.wg.Add(1)
		srv.serveConn(conn)
	})
	return conn.Out.String(), alloc
}

// TestAnnouncedLengthIsAClaim: a length line is a claim until the bytes
// arrive. An 18-byte SET announcing the cap with nothing behind it used
// to cost the server a 1 GiB buffer; a value allocates as it lands, a few
// times what arrived plus the eager bound.
func TestAnnouncedLengthIsAClaim(t *testing.T) {
	for _, arrived := range []int{0, 3 << 20} {
		input := append([]byte(fmt.Sprintf("SET k %d\r\n", MaxValueBytes)), make([]byte, arrived)...)
		out, alloc := serveBytes(NewServer(NewStore()), input)
		if limit := uint64(4*arrived + eagerValueBytes + 256<<10); alloc > limit {
			t.Fatalf("%d of an announced %d bytes arrived and the server allocated %d, limit %d", arrived, MaxValueBytes, alloc, limit)
		}
		if out != "" {
			t.Fatalf("an unfinished value was answered: %q", out)
		}
	}
}

// TestLargeValuesArriveWhole: values past the eager bound — grown as they
// land on the server, and on the client reading them back — round-trip bit
// for bit, and the finished buffer is exact-size, so the store's spare
// recycling sees the capacity it always saw.
func TestLargeValuesArriveWhole(t *testing.T) {
	srv := NewServer(NewStore())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, n := range []int{eagerValueBytes - 1, eagerValueBytes, eagerValueBytes + 1, 3<<20 + 17, 8 << 20} {
		value := bytes.Repeat([]byte{byte(n), '\r', '\n', 0xff}, n/4+1)[:n]
		if err := c.SetBytes("big", value); err != nil {
			t.Fatalf("SET of %d bytes: %v", n, err)
		}
		got, err := c.GetBytes("big")
		if err != nil || !bytes.Equal(got, value) {
			t.Fatalf("GET of %d bytes: %d bytes back, err %v", n, len(got), err)
		}
		if cap(got) != n {
			t.Fatalf("a %d-byte value came back in a buffer of capacity %d", n, cap(got))
		}
		e, _ := srv.store.pin("big")
		if cap(e.buf) != n {
			t.Fatalf("a %d-byte value is stored in a buffer of capacity %d", n, cap(e.buf))
		}
		srv.store.unpin(e)
	}
}

// TestLineTooLong: a line is capped at maxLineBytes on both sides. The
// server answers -ERR and closes — the rest of the line cannot be skipped
// safely — without buffering what it was sent; the client drops the
// connection.
func TestLineTooLong(t *testing.T) {
	long := append(bytes.Repeat([]byte("k"), 8<<20), "\r\nPING\r\n"...)
	out, alloc := serveBytes(NewServer(NewStore()), append([]byte("GET "), long...))
	if out != "-ERR line too long\r\n" {
		t.Fatalf("an 8 MiB line was answered %q", out)
	}
	if alloc > 4*maxLineBytes {
		t.Fatalf("the server allocated %d bytes reading a line capped at %d", alloc, maxLineBytes)
	}
	// A line of exactly the cap is served.
	key := strings.Repeat("k", maxLineBytes-len("GET \r\n"))
	if out, _ := serveBytes(NewServer(NewStore()), []byte("GET "+key+"\r\nPING\r\n")); out != "$-1\r\n+PONG\r\n" {
		t.Fatalf("a line of exactly the cap was answered %q", out)
	}

	conn := mutate.NewConn(append([]byte("+"), long...))
	c, err := DialOptions("mem", Options{DialFunc: func(string) (net.Conn, error) { return conn, nil }})
	if err != nil {
		t.Fatal(err)
	}
	var getErr error
	if alloc := mutate.Allocated(func() { _, getErr = c.Get("k") }); alloc > 8*maxLineBytes {
		t.Fatalf("the client allocated %d bytes reading a line capped at %d", alloc, maxLineBytes)
	}
	if getErr == nil {
		t.Fatal("the client accepted an 8 MiB reply line")
	}
}

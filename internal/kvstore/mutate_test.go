package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strings"
	"testing"

	"viper/internal/mutate"
)

// The metadata protocol's two parsers — Server.serveConn and the Client's
// reply readers — under the deterministic mutator (internal/mutate): a few
// thousand mutants of streams each side really reads, fed to the real code
// over an in-memory connection. Whatever the bytes: no panic, no allocation
// out of proportion to what arrived, and the server serves the next
// connection as if nothing had happened.
//
// A length is a claim, not a size: up to eagerValueBytes is allocated for
// it before the bytes arrive, a longer value grows as it lands, and a line
// is capped at maxLineBytes — so mutants that announce up to the cap
// (MaxValueBytes, 1 GiB: checkpoints are staged here) are fed like any
// other.

// parserAllocLimit is the most either side may allocate for an input: each
// byte is copied a few times (line, value — twice more while a large one
// grows — reply), a line costs its reply — for GET and KEYS as much as the
// connection stored before, which is input too — and the one value a
// stream may leave unfinished holds at most the eager bound.
func parserAllocLimit(input []byte) uint64 {
	lines := bytes.Count(input, []byte("\n"))
	return uint64(8*len(input)+lines*(len(input)+1<<10)+eagerValueBytes) + 32<<10
}

// claims are length lines with nothing behind them, at the values the cap,
// the recycling threshold and the int they are parsed into break at.
func claims(format string) (lines [][]byte) {
	for _, n := range []uint64{0, recycleMin - 1, recycleMin, eagerValueBytes, eagerValueBytes + 1, MaxValueBytes, MaxValueBytes + 1, 1 << 40, math.MaxInt64, math.MaxInt64 + 1} {
		lines = append(lines, []byte(fmt.Sprintf(format, n)))
	}
	return lines
}

func TestMutatedStreamsServer(t *testing.T) {
	staged := bytes.Repeat([]byte("VCH2\x00\r\n\xff"), 40) // binary-safe: CR, LF and NUL inside a value
	seeds := append(claims("SET k %d\r\n"),
		[]byte("PING\r\n"),
		[]byte("SET k 5\r\nhello\r\nGET k\r\nGET missing\r\n"),
		[]byte(fmt.Sprintf("SET viper/stage/tc1/v41 %d\r\n%s\r\nGET viper/stage/tc1/v41\r\nDEL viper/stage/tc1/v41\r\n", len(staged), staged)),
		[]byte("INCR n\r\nINCR n\r\nSET s 1\r\nx\r\nINCR s\r\nKEYS\r\nKEYS viper/\r\nDEL n\r\n"),
		[]byte("SET k\r\nSET k x\r\nSET k -1\r\nGET\r\nDEL\r\nINCR\r\nSHUTDOWN now\r\n\r\n"),
		[]byte("SET k 3\r\nabcXX"),
	)
	serve := func(srv *Server, input []byte) string {
		conn := mutate.NewConn(input)
		srv.wg.Add(1)
		srv.serveConn(conn)
		return conn.Out.String()
	}
	stored, refused := 0, 0
	mutate.Each(25, 3000, seeds, func(input []byte) {
		srv := NewServer(NewStore())
		var out string
		if alloc, limit := mutate.Allocated(func() { out = serve(srv, input) }), parserAllocLimit(input); alloc > limit {
			t.Fatalf("serveConn allocated %d bytes for %d input bytes, limit %d:\n%q", alloc, len(input), limit, input)
		}
		stored += strings.Count(out, "+OK")
		refused += strings.Count(out, "-ERR value too large")
		if got := serve(srv, []byte("SET canary 2\r\nok\r\nGET canary\r\n")); got != "+OK\r\n$2\r\nok\r\n" {
			t.Fatalf("after %q a new connection's SET and GET got %q", input, got)
		}
	})
	// The pass means something only if it reached both outcomes.
	if stored == 0 || refused == 0 {
		t.Fatalf("%d values stored, %d lengths refused: the mutants missed a path", stored, refused)
	}
	t.Logf("%d values stored, %d announced lengths refused", stored, refused)
}

func TestMutatedStreamsClient(t *testing.T) {
	seeds := append(append(claims("$%d\r\n"), claims("*%d\r\n")...),
		[]byte("+OK\r\n$5\r\nhello\r\n"),
		[]byte("*2\r\n$1\r\na\r\n$2\r\nbc\r\n:1\r\n:7\r\n"),
		[]byte("$-1\r\n-ERR value too large\r\n-ERR value is not an integer\r\n"),
		[]byte("$3\r\nabcXX"),
	)
	answered := 0
	mutate.Each(26, 3000, seeds, func(input []byte) {
		alloc := mutate.Allocated(func() {
			// One stream, however often the client drops the connection
			// over what it reads and dials again.
			conn := mutate.NewConn(input)
			c, err := DialOptions("mem", Options{DialFunc: func(string) (net.Conn, error) { return conn, nil }})
			if err != nil {
				t.Fatal(err)
			}
			ops := []func() error{
				func() error { return c.Set("k", "v") },
				func() error { _, err := c.GetBytes("k"); return err },
				func() error { _, err := c.Keys(""); return err },
				func() error { _, err := c.Del("k"); return err },
				func() error { _, err := c.Incr("n"); return err },
			}
			for i := 0; ; i++ {
				err := ops[i%len(ops)]()
				if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
					break
				}
				if err == nil {
					answered++
				}
			}
		})
		if limit := parserAllocLimit(input); alloc > limit {
			t.Fatalf("the client allocated %d bytes for %d input bytes, limit %d:\n%q", alloc, len(input), limit, input)
		}
	})
	if answered == 0 {
		t.Fatal("no operation was answered: the pass never reached a reply's happy path")
	}
	t.Logf("%d operations answered", answered)
}

package pubsub

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"viper/internal/mutate"
)

// The notification protocol's two parsers — Server.serveConn and
// Client.readLoop — under the deterministic mutator (internal/mutate): a
// few thousand mutants of streams each side really reads, fed to the real
// loop over an in-memory connection. Whatever the bytes: no panic, no
// allocation out of proportion to what arrived (an announced length is a
// claim, honoured up to MaxPayloadBytes and no further), and the next
// well-formed connection is served as if nothing had happened.

// notification is what the system publishes: an encoded ModelMeta.
const notification = `{"name":"tc1","version":41,"location":"gpu","path":"tc1/v00000041","size":16777216,"format":"vchunk","stage_pending":true}`

func pub(channel, payload string) string {
	return fmt.Sprintf("PUB %s %d\r\n%s\r\n", channel, len(payload), payload)
}

func msg(channel, payload string) string {
	return fmt.Sprintf("MSG %s %d\r\n%s\r\n", channel, len(payload), payload)
}

// claims are length lines with nothing behind them, at every value the cap
// and the int they are parsed into break at.
func claims(verb string) (lines [][]byte) {
	for _, n := range []uint64{0, MaxPayloadBytes - 1, MaxPayloadBytes, MaxPayloadBytes + 1, 1 << 31, 1 << 40, math.MaxInt64, math.MaxInt64 + 1} {
		lines = append(lines, []byte(fmt.Sprintf("%s m %d\r\n", verb, n)))
	}
	return lines
}

// parserAllocLimit is the most either parser may allocate for an input:
// every byte is copied a few times on its way to a Message (line, payload
// buffer, string), a line costs its reply or its subscription, and one
// payload — the last, still short of its announced length — may hold a
// buffer of up to the cap.
func parserAllocLimit(input []byte) uint64 {
	return uint64(4*len(input)+2<<10*bytes.Count(input, []byte("\n"))) + MaxPayloadBytes + 32<<10
}

func TestMutatedStreamsServer(t *testing.T) {
	seeds := append(claims("PUB"),
		[]byte("PING\r\n"),
		[]byte("SUB models\r\n"),
		[]byte(pub("models", notification)),
		[]byte("SUB m\r\n"+pub("m", "abc")+"PING\r\n"+pub("m", "")),
		[]byte("SUB\r\nPUB onlychannel\r\nPUB m notanumber\r\nPUB m -1\r\nSHUTDOWN now\r\n\r\n"),
	)
	broker := NewBroker(16)
	srv := NewServer(broker)
	serve := func(input []byte) string {
		conn := mutate.NewConn(input)
		srv.wg.Add(1)
		srv.serveConn(conn)
		srv.wg.Wait() // the connection's subscription writers
		return conn.Out.String()
	}
	published, refused := 0, 0
	mutate.Each(23, 3000, seeds, func(input []byte) {
		var out string
		if alloc, limit := mutate.Allocated(func() { out = serve(input) }), parserAllocLimit(input); alloc > limit {
			t.Fatalf("serveConn allocated %d bytes for %d input bytes, limit %d:\n%q", alloc, len(input), limit, input)
		}
		published += strings.Count(out, "\r\n:")
		refused += strings.Count(out, "-ERR payload too large")
		if got := serve([]byte("PING\r\n")); got != "+PONG\r\n" {
			t.Fatalf("after %q a new connection's PING got %q", input, got)
		}
		broker.mu.Lock()
		left := len(broker.subs)
		broker.mu.Unlock()
		if left != 0 {
			t.Fatalf("after %q the broker still holds subscriptions on %d channels of closed connections", input, left)
		}
	})
	// The pass means something only if it reached both outcomes.
	if published == 0 || refused == 0 {
		t.Fatalf("%d payloads published, %d lengths refused: the mutants missed a path", published, refused)
	}
	t.Logf("%d payloads published, %d announced lengths refused", published, refused)
}

func TestMutatedStreamsClient(t *testing.T) {
	seeds := append(claims("MSG"),
		[]byte("+PONG\r\n"),
		[]byte("+OK\r\n"+msg("models", notification)),
		[]byte(":1\r\n"+msg("models", "")+"-ERR bad length\r\n"+msg("other", "abc")),
		[]byte("MSG\r\nMSG models\r\nMSG models notanumber\r\n"),
	)
	delivered := 0
	mutate.Each(24, 3000, seeds, func(input []byte) {
		alloc := mutate.Allocated(func() {
			c := newClient(mutate.NewConn(input))
			c.Subscribe("models") // takes the stream's first reply line, whatever it is
			// Each request takes one more reply line, until the stream's end —
			// or a line the client cannot go on after — has closed the client.
			for open := true; open; {
				c.request("PING\r\n")
				select {
				case <-c.closed:
					open = false
				default:
				}
			}
			delivered += len(c.subs["models"][0])
		})
		if limit := parserAllocLimit(input); alloc > limit {
			t.Fatalf("the client allocated %d bytes for %d input bytes, limit %d:\n%q", alloc, len(input), limit, input)
		}
	})
	if delivered == 0 {
		t.Fatal("no mutant delivered a message: the pass never reached the payload path")
	}
	t.Logf("%d messages delivered", delivered)
}

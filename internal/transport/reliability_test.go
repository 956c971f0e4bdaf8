package transport

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"viper/internal/faults"
	"viper/internal/retry"
	"viper/internal/vformat"
)

// acceptedPair spawns a listener, accepts one link, and dials the raw
// client side, registering shutdown for all three via t.Cleanup: these
// tests Fatal mid-flight, and anything closed only by a trailing
// statement would outlive them (the leakcheck TestMain polices exactly
// that).
func acceptedPair(t *testing.T) (server *TCPLink, clientConn net.Conn) {
	t.Helper()
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	accepted := make(chan *TCPLink, 1)
	go func() {
		l, err := ln.Accept()
		if err == nil {
			accepted <- l
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	server = <-accepted
	t.Cleanup(func() { server.Close() })
	return server, conn
}

func TestTCPRecvRejectsCorruptFrame(t *testing.T) {
	server, conn := acceptedPair(t)
	// One byte inside the payload of a frame that is not a chunk record.
	faulty := WrapTCP(faults.NewFlipper("weights-blob", 7).Wrap(conn))
	t.Cleanup(func() { faulty.Close() })
	if err := faulty.Send(Frame{Key: "k", Payload: []byte("weights-blob-weights-blob")}); err != nil {
		t.Fatal(err)
	}
	if _, err := server.Recv(); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("Recv = %v, want ErrCorruptFrame", err)
	}
}

// Whatever part of a frame random corruption hits (headers included),
// Recv must fail rather than deliver a poisoned frame.
func TestTCPRecvNeverDeliversCorruptedBytes(t *testing.T) {
	payload := []byte("model-weights-model-weights-model-weights")
	for seed := int64(0); seed < 8; seed++ {
		// Each seed is a subtest so acceptedPair's cleanups run at the end
		// of every round, not only when the whole test finishes — and run
		// even when the corruption assertion Fatals mid-round.
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			server, conn := acceptedPair(t)
			inj := faults.New(faults.Config{Seed: seed, CorruptRate: 1})
			faulty := WrapTCP(faults.WrapConn(conn, inj))
			t.Cleanup(func() { faulty.Close() })
			if err := faulty.Send(Frame{Key: "k", Payload: payload}); err == nil {
				// A flip in a length field claims bytes that never come:
				// the sender hangs up so Recv meets EOF, not a wait.
				faulty.Close()
				if got, err := server.Recv(); err == nil {
					t.Fatalf("seed %d: corrupted frame delivered: %+v", seed, got)
				}
			}
		})
	}
}

// TestEveryFlippedByteIsCaught flips each byte of a stream's frames in turn
// — a header frame, a chunk-record frame, a have-list — and holds Recv to
// the coverage rule: a damaged frame is refused (ErrCorruptFrame, or a
// framing error when a length was hit), the one exception being a byte
// inside a chunk record's payload, which is delivered for the record's own
// CRC to refuse. Nothing else gets through: not a key byte, not a length,
// and — the hole this closed — not a meta tag, which no checksum covered
// while the frame CRC was key + payload.
func TestEveryFlippedByteIsCaught(t *testing.T) {
	rec, recWire := recordFrame(t, 1<<10)
	seeds := fuzzRecvSeeds(t)
	for name, wire := range map[string][]byte{"header": seeds[0], "record": recWire, "have-list": seeds[2]} {
		payloadAt := len(wire) // where the record payload starts: flips from there to the CRC are the exception
		if name == "record" {
			payloadAt = len(wire) - 4 - len(rec.Payload)
		}
		delivered := 0
		for i := range wire {
			damaged := append([]byte(nil), wire...)
			damaged[i] ^= 0x40
			before := tcpCorruptFrames.Value()
			f, _, _, err := recvOnce(damaged)
			switch {
			case err != nil && errors.Is(err, ErrCorruptFrame) != (tcpCorruptFrames.Value() == before+1):
				t.Fatalf("%s byte %d: %v, but tcp_corrupt_frames moved by %d", name, i, err, tcpCorruptFrames.Value()-before)
			case err != nil:
			case i < payloadAt || i >= len(wire)-4:
				t.Fatalf("%s byte %d of %d flipped and the frame was delivered: %+v", name, i, len(wire), f.Meta)
			case vformat.VerifyChunkRecord(f.Payload):
				t.Fatalf("record payload byte %d flipped and the record still verifies", i-payloadAt)
			default:
				delivered++
			}
		}
		if name == "record" && delivered != len(rec.Payload) {
			t.Fatalf("%d of %d payload flips reached the record CRC", delivered, len(rec.Payload))
		}
	}
}

func TestReconnectLinkConsumerSurvivesServerDrop(t *testing.T) {
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// Server: accept, send one frame, drop the connection; accept the
	// redial and send the second frame.
	go func() {
		for i := 1; i <= 2; i++ {
			l, err := ln.Accept()
			if err != nil {
				return
			}
			l.Send(Frame{Key: fmt.Sprintf("v%d", i)})
			if i == 1 {
				l.Close()
			} else {
				defer l.Close()
			}
		}
	}()
	pol := retry.Policy{MaxAttempts: 10, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond}
	rl := NewReconnectLink(func() (*TCPLink, error) { return DialTCP(ln.Addr()) }, pol)
	defer rl.Close()
	f1, err := rl.Recv()
	if err != nil || f1.Key != "v1" {
		t.Fatalf("first frame = %+v, %v", f1, err)
	}
	f2, err := rl.Recv()
	if err != nil || f2.Key != "v2" {
		t.Fatalf("post-reconnect frame = %+v, %v", f2, err)
	}
	if s := rl.Stats(); s.Connects != 2 || s.RecvRetries < 1 {
		t.Fatalf("stats = %+v, want 2 connects and >=1 recv retry", s)
	}
}

func TestReconnectLinkProducerReacceptsConsumer(t *testing.T) {
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	pol := retry.Policy{MaxAttempts: 10, BaseDelay: 5 * time.Millisecond}
	rl := NewReconnectLink(ln.Accept, pol)
	defer rl.Close()
	c1, err := DialTCP(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := rl.Send(Frame{Key: "v1"}); err != nil {
		t.Fatal(err)
	}
	if f, err := c1.Recv(); err != nil || f.Key != "v1" {
		t.Fatalf("consumer 1 got %+v, %v", f, err)
	}
	c1.Close()
	// Second consumer dials; the producer keeps sending until a send
	// lands on the fresh connection (writes into the dying socket can
	// succeed locally before the RST is observed).
	c2, err := DialTCP(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	go func() {
		for i := 2; i < 100; i++ {
			if err := rl.Send(Frame{Key: fmt.Sprintf("v%d", i)}); err != nil {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	f, err := c2.Recv()
	if err != nil {
		t.Fatalf("reconnected consumer recv: %v", err)
	}
	if f.Key == "v1" {
		t.Fatalf("stale frame %q delivered to fresh connection", f.Key)
	}
	if s := rl.Stats(); s.Connects != 2 {
		t.Fatalf("stats = %+v, want 2 connects", s)
	}
}

func TestReconnectLinkClosedIsPermanent(t *testing.T) {
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	attempts := 0
	pol := retry.Policy{MaxAttempts: 5, BaseDelay: time.Millisecond, OnRetry: func(int, error, time.Duration) { attempts++ }}
	rl := NewReconnectLink(func() (*TCPLink, error) { return DialTCP(ln.Addr()) }, pol)
	rl.Close()
	if err := rl.Send(Frame{Key: "x"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send on closed reconnect link = %v", err)
	}
	if attempts != 0 {
		t.Fatalf("closed link consumed %d retries, want 0", attempts)
	}
}

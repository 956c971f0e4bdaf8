package transport

import (
	"fmt"
	"testing"
	"testing/quick"
)

// tcpPair connects a client and a server link over loopback and closes
// both with the test.
func tcpPair(tb testing.TB) (client, server *TCPLink) {
	tb.Helper()
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	defer ln.Close()
	if client, err = DialTCP(ln.Addr()); err != nil {
		tb.Fatal(err)
	}
	if server, err = ln.Accept(); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

func TestTCPLinkRoundTrip(t *testing.T) {
	client, server := tcpPair(t)
	want := Frame{
		Key:     "ptychonn/v3",
		Payload: []byte{0, 1, 2, 254, 255},
		Meta:    map[string]string{"iter": "1512", "loss": "0.03"},
	}
	if err := client.Send(want); err != nil {
		t.Fatal(err)
	}
	got, err := server.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Key != want.Key {
		t.Fatalf("got %+v", got)
	}
	if len(got.Payload) != 5 || got.Payload[3] != 254 {
		t.Fatalf("payload = %v", got.Payload)
	}
	if got.Meta["iter"] != "1512" || got.Meta["loss"] != "0.03" {
		t.Fatalf("meta = %v", got.Meta)
	}
}

func TestTCPLinkEmptyMetaAndPayload(t *testing.T) {
	client, server := tcpPair(t)
	if err := client.Send(Frame{Key: "empty"}); err != nil {
		t.Fatal(err)
	}
	got, err := server.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Key != "empty" || len(got.Payload) != 0 || got.Meta != nil {
		t.Fatalf("got %+v", got)
	}
}

func TestTCPLinkMultipleFramesInOrder(t *testing.T) {
	client, server := tcpPair(t)
	const n = 25
	go func() {
		for i := 0; i < n; i++ {
			_ = client.Send(Frame{Key: fmt.Sprintf("f%d", i), Payload: []byte{byte(i)}})
		}
	}()
	for i := 0; i < n; i++ {
		got, err := server.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if got.Key != fmt.Sprintf("f%d", i) || got.Payload[0] != byte(i) {
			t.Fatalf("frame %d = %+v", i, got)
		}
	}
}

func TestTCPLinkBidirectional(t *testing.T) {
	client, server := tcpPair(t)
	if err := client.Send(Frame{Key: "ping"}); err != nil {
		t.Fatal(err)
	}
	if _, err := server.Recv(); err != nil {
		t.Fatal(err)
	}
	if err := server.Send(Frame{Key: "pong"}); err != nil {
		t.Fatal(err)
	}
	got, err := client.Recv()
	if err != nil || got.Key != "pong" {
		t.Fatalf("got %+v, %v", got, err)
	}
}

func TestTCPLinkRecvAfterPeerClose(t *testing.T) {
	client, server := tcpPair(t)
	client.Close()
	if _, err := server.Recv(); err == nil {
		t.Fatal("Recv after peer close must error")
	}
}

func TestPropTCPRoundTripArbitraryPayload(t *testing.T) {
	client, server := tcpPair(t)
	i := 0
	f := func(payload []byte, key string) bool {
		i++
		if len(key) > 100 {
			key = key[:100]
		}
		frame := Frame{Key: fmt.Sprintf("k%d-%x", i, key), Payload: payload}
		if err := client.Send(frame); err != nil {
			return false
		}
		got, err := server.Recv()
		if err != nil || got.Key != frame.Key || len(got.Payload) != len(payload) {
			return false
		}
		for j := range payload {
			if got.Payload[j] != payload[j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestWithMetaStampsEveryFrame checks the decorator relay-mode
// producers use to tag model/version onto each outgoing frame.
func TestWithMetaStampsEveryFrame(t *testing.T) {
	var sent []Frame
	c := WithMeta(connFunc{send: func(f Frame) error { sent = append(sent, f); return nil }},
		map[string]string{"model": "m", "version": "3"})
	if err := c.Send(Frame{Key: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Send(Frame{Key: "b", Meta: map[string]string{"x": "y"}}); err != nil {
		t.Fatal(err)
	}
	f1, f2 := sent[0], sent[1]
	if f1.Meta["model"] != "m" || f1.Meta["version"] != "3" {
		t.Fatalf("frame 1 missing stamped meta: %v", f1.Meta)
	}
	if f2.Meta["model"] != "m" || f2.Meta["x"] != "y" {
		t.Fatalf("frame 2 lost stamped or original meta: %v", f2.Meta)
	}
}

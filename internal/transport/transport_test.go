package transport

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"viper/internal/memsim"
	"viper/internal/simclock"
)

func TestLinkSendRecvRoundTrip(t *testing.T) {
	l := NewLink(GPUDirectSpec, simclock.NewVirtual(), 4)
	defer l.Close()
	want := Frame{Key: "tc1/v1", Payload: []byte("weights"), Meta: map[string]string{"loss": "0.5"}}
	if err := l.Send(want); err != nil {
		t.Fatal(err)
	}
	got, err := l.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Key != want.Key || string(got.Payload) != "weights" || got.Meta["loss"] != "0.5" {
		t.Fatalf("got %+v", got)
	}
}

func TestLinkSendCopiesPayload(t *testing.T) {
	l := NewLink(GPUDirectSpec, simclock.NewVirtual(), 4)
	defer l.Close()
	payload := []byte{1, 2, 3}
	if err := l.Send(Frame{Key: "k", Payload: payload}); err != nil {
		t.Fatal(err)
	}
	payload[0] = 99
	got, _ := l.Recv()
	if got.Payload[0] != 1 {
		t.Fatal("link must deep-copy the payload")
	}
}

func TestLinkChargesVirtualTime(t *testing.T) {
	clock := simclock.NewVirtual()
	spec := LinkSpec{Name: "t", Model: memsim.BandwidthModel{BytesPerSec: float64(1 << 30)}}
	l := NewLink(spec, clock, 4)
	defer l.Close()
	if err := l.Send(Frame{Key: "k", Payload: []byte("x"), VirtualSize: 2 << 30}); err != nil {
		t.Fatal(err)
	}
	if got := clock.Elapsed(); got != 2*time.Second {
		t.Fatalf("Send advanced clock by %v, want 2s", got)
	}
	s := l.Stats()
	if s.FramesSent != 1 || s.BytesSent != 2<<30 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestLinkTransferTimeOrdering(t *testing.T) {
	clock := simclock.NewVirtual()
	gpu := NewLink(GPUDirectSpec, clock, 1)
	host := NewLink(HostIBSpec, clock, 1)
	size := int64(4 << 30)
	if !(gpu.spec.Model.Time(size) < host.spec.Model.Time(size)) {
		t.Fatal("GPUDirect must be faster than host IB")
	}
}

func TestLinkCloseUnblocksRecv(t *testing.T) {
	l := NewLink(GPUDirectSpec, simclock.NewVirtual(), 1)
	done := make(chan error, 1)
	go func() {
		_, err := l.Recv()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	l.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("Recv err = %v, want ErrClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Recv did not unblock on Close")
	}
	if err := l.Send(Frame{Key: "k"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send after close = %v, want ErrClosed", err)
	}
}

func TestLinkTryRecv(t *testing.T) {
	l := NewLink(GPUDirectSpec, simclock.NewVirtual(), 2)
	defer l.Close()
	if _, ok := l.TryRecv(); ok {
		t.Fatal("TryRecv on empty link must report false")
	}
	_ = l.Send(Frame{Key: "k"})
	f, ok := l.TryRecv()
	if !ok || f.Key != "k" {
		t.Fatalf("TryRecv = %+v, %v", f, ok)
	}
}

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
		Key:         "ptychonn/v3",
		Payload:     []byte{0, 1, 2, 254, 255},
		VirtualSize: 4 << 30,
		Meta:        map[string]string{"iter": "1512", "loss": "0.03"},
	}
	if err := client.Send(want); err != nil {
		t.Fatal(err)
	}
	got, err := server.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Key != want.Key || got.VirtualSize != want.VirtualSize {
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

// TestSendLatestSharedAliasesPayload pins the encode-once/send-many
// contract: SendLatestShared must put the caller's exact payload backing
// array on every link (zero copies — what core's broadcast loop relies
// on), while SendLatest and Send keep their defensive deep copy.
func TestSendLatestSharedAliasesPayload(t *testing.T) {
	clock := simclock.NewVirtual()
	a := NewLink(GPUDirectSpec, clock, 4)
	b := NewLink(GPUDirectSpec, clock, 4)
	payload := []byte{1, 2, 3, 4}
	f := Frame{Key: "k", Payload: payload, Meta: map[string]string{"model": "m"}}
	for _, l := range []*Link{a, b} {
		if err := l.SendLatestShared(f); err != nil {
			t.Fatal(err)
		}
		g, ok := l.TryRecv()
		if !ok {
			t.Fatal("no frame after SendLatestShared")
		}
		if &g.Payload[0] != &payload[0] {
			t.Fatal("SendLatestShared copied the payload; every link must alias the caller's array")
		}
	}
	for name, send := range map[string]func(Frame) error{"Send": a.Send, "SendLatest": a.SendLatest} {
		if err := send(f); err != nil {
			t.Fatal(err)
		}
		g, ok := a.TryRecv()
		if !ok {
			t.Fatalf("no frame after %s", name)
		}
		if &g.Payload[0] == &payload[0] {
			t.Fatalf("%s must deep-copy the payload (callers may mutate after it returns)", name)
		}
	}
}

// TestWithMetaStampsEveryFrame checks the decorator relay-mode
// producers use to tag model/version onto each outgoing frame.
func TestWithMetaStampsEveryFrame(t *testing.T) {
	l := NewLink(GPUDirectSpec, simclock.NewVirtual(), 4)
	c := WithMeta(l, map[string]string{"model": "m", "version": "3"})
	if err := c.Send(Frame{Key: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Send(Frame{Key: "b", Meta: map[string]string{"x": "y"}}); err != nil {
		t.Fatal(err)
	}
	f1, _ := l.TryRecv()
	f2, _ := l.TryRecv()
	if f1.Meta["model"] != "m" || f1.Meta["version"] != "3" {
		t.Fatalf("frame 1 missing stamped meta: %v", f1.Meta)
	}
	if f2.Meta["model"] != "m" || f2.Meta["x"] != "y" {
		t.Fatalf("frame 2 lost stamped or original meta: %v", f2.Meta)
	}
}

package pubsub

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestBrokerDeliversToSubscriber(t *testing.T) {
	b := NewBroker(8)
	sub := b.Subscribe("updates")
	defer sub.Close()
	if n := b.Publish("updates", "v1"); n != 1 {
		t.Fatalf("Publish receivers = %d, want 1", n)
	}
	select {
	case msg := <-sub.C:
		if msg.Payload != "v1" || msg.Channel != "updates" {
			t.Fatalf("got %+v", msg)
		}
	case <-time.After(time.Second):
		t.Fatal("message not delivered")
	}
}

func TestBrokerChannelIsolation(t *testing.T) {
	b := NewBroker(8)
	a := b.Subscribe("a")
	defer a.Close()
	if n := b.Publish("b", "x"); n != 0 {
		t.Fatalf("Publish to channel without subscribers = %d receivers", n)
	}
	select {
	case msg := <-a.C:
		t.Fatalf("channel a received foreign message %+v", msg)
	case <-time.After(20 * time.Millisecond):
	}
}

func TestBrokerMultipleSubscribers(t *testing.T) {
	b := NewBroker(8)
	s1 := b.Subscribe("u")
	s2 := b.Subscribe("u")
	defer s1.Close()
	defer s2.Close()
	if n := b.Publish("u", "v"); n != 2 {
		t.Fatalf("receivers = %d, want 2", n)
	}
	for _, s := range []*Subscription{s1, s2} {
		select {
		case msg := <-s.C:
			if msg.Payload != "v" {
				t.Fatalf("payload = %q", msg.Payload)
			}
		case <-time.After(time.Second):
			t.Fatal("missing delivery")
		}
	}
}

func TestBrokerUnsubscribe(t *testing.T) {
	b := NewBroker(8)
	s := b.Subscribe("u")
	if b.Subscribers("u") != 1 {
		t.Fatal("subscriber not registered")
	}
	s.Close()
	if b.Subscribers("u") != 0 {
		t.Fatal("subscriber not removed")
	}
	if n := b.Publish("u", "v"); n != 0 {
		t.Fatalf("receivers after close = %d", n)
	}
	// Closing twice must not panic.
	s.Close()
}

func TestBrokerDropsOldestWhenFull(t *testing.T) {
	b := NewBroker(2)
	s := b.Subscribe("u")
	defer s.Close()
	for i := 0; i < 5; i++ {
		b.Publish("u", fmt.Sprintf("v%d", i))
	}
	if b.Dropped() != 3 {
		t.Fatalf("Dropped = %d, want 3", b.Dropped())
	}
	// The newest two must survive.
	m1 := <-s.C
	m2 := <-s.C
	if m1.Payload != "v3" || m2.Payload != "v4" {
		t.Fatalf("survivors = %q, %q; want v3, v4", m1.Payload, m2.Payload)
	}
}

func TestBrokerNotifyLatencyUnderMillisecond(t *testing.T) {
	// The paper's claim for the push path: <1ms notification latency.
	// In-process delivery should be far below that even on CI machines.
	b := NewBroker(8)
	s := b.Subscribe("u")
	defer s.Close()
	start := time.Now()
	b.Publish("u", "v")
	<-s.C
	if d := time.Since(start); d > time.Millisecond {
		t.Fatalf("notify latency %v, want < 1ms", d)
	}
}

func newServerPair(t *testing.T) (*Client, *Client) {
	t.Helper()
	srv := NewServer(NewBroker(64))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	pub, err := DialClient(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pub.Close() })
	subC, err := DialClient(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { subC.Close() })
	return pub, subC
}

func TestTCPPubSubRoundTrip(t *testing.T) {
	pub, subC := newServerPair(t)
	ch, err := subC.Subscribe("model-updates")
	if err != nil {
		t.Fatal(err)
	}
	n, err := pub.Publish("model-updates", `{"name":"tc1","version":3}`)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("receivers = %d, want 1", n)
	}
	select {
	case msg := <-ch:
		if msg.Payload != `{"name":"tc1","version":3}` {
			t.Fatalf("payload = %q", msg.Payload)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pushed message not received")
	}
}

func TestTCPPublishNoSubscribers(t *testing.T) {
	pub, _ := newServerPair(t)
	n, err := pub.Publish("empty", "x")
	if err != nil || n != 0 {
		t.Fatalf("Publish = %d, %v", n, err)
	}
}

func TestTCPMultipleMessagesInOrder(t *testing.T) {
	pub, subC := newServerPair(t)
	ch, err := subC.Subscribe("seq")
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		if _, err := pub.Publish("seq", fmt.Sprintf("m%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		select {
		case msg := <-ch:
			if msg.Payload != fmt.Sprintf("m%d", i) {
				t.Fatalf("message %d = %q", i, msg.Payload)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("message %d not received", i)
		}
	}
}

func TestTCPPayloadWithNewlines(t *testing.T) {
	pub, subC := newServerPair(t)
	ch, err := subC.Subscribe("raw")
	if err != nil {
		t.Fatal(err)
	}
	payload := "line1\r\nline2\nMSG fake 3\r\nxyz"
	if _, err := pub.Publish("raw", payload); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-ch:
		if msg.Payload != payload {
			t.Fatalf("payload = %q, want %q", msg.Payload, payload)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("not received")
	}
}

func TestTCPConcurrentPublishers(t *testing.T) {
	srv := NewServer(NewBroker(256))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	subC, err := DialClient(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { subC.Close() })
	ch, err := subC.Subscribe("c")
	if err != nil {
		t.Fatal(err)
	}
	const pubs, each = 4, 10
	var wg sync.WaitGroup
	for p := 0; p < pubs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			cl, err := DialClient(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			for i := 0; i < each; i++ {
				if _, err := cl.Publish("c", fmt.Sprintf("p%d-%d", p, i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	got := 0
	timeout := time.After(3 * time.Second)
	for got < pubs*each {
		select {
		case <-ch:
			got++
		case <-timeout:
			t.Fatalf("received %d/%d messages", got, pubs*each)
		}
	}
}

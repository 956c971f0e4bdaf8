package kvstore

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"viper/internal/faults"
	"viper/internal/retry"
)

func faultyTestPolicy() retry.Policy {
	return retry.Policy{MaxAttempts: 8, BaseDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond}
}

// A client with a retry policy must complete every idempotent operation
// through a connection that randomly drops, by redialing and resending.
func TestClientRetriesThroughConnectionFaults(t *testing.T) {
	store := NewStore()
	srv := NewServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	inj := faults.New(faults.Config{Seed: 5, FailRate: 0.15, SkipFirst: 1})
	c, err := DialOptions(addr, Options{
		Retry: faultyTestPolicy(),
		DialFunc: faults.WrapDial(func(a string) (net.Conn, error) {
			return net.Dial("tcp", a)
		}, inj),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 150
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%d", i)
		if err := c.Set(key, fmt.Sprintf("v%d", i)); err != nil {
			t.Fatalf("Set %d: %v", i, err)
		}
		got, err := c.Get(key)
		if err != nil || got != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get %d = %q, %v", i, got, err)
		}
	}
	if s := inj.Stats(); s.Failures == 0 {
		t.Fatalf("fault injector never fired (stats %+v); test proves nothing", s)
	}
	// The server-side store must hold exactly the written values.
	if store.Len() != n {
		t.Fatalf("store has %d keys, want %d", store.Len(), n)
	}
}

func TestClientWithoutRetryReportsUnavailable(t *testing.T) {
	srv := NewServer(NewStore())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv.Close()
	err = c.Set("k", "v")
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Set on dead server = %v, want ErrUnavailable", err)
	}
}

func TestMissingKeyIsPermanentNotRetried(t *testing.T) {
	srv := NewServer(NewStore())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	retries := 0
	pol := faultyTestPolicy()
	pol.OnRetry = func(int, error, time.Duration) { retries++ }
	c, err := DialOptions(addr, Options{Retry: pol})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Get("absent"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get = %v, want ErrNotFound", err)
	}
	if retries != 0 {
		t.Fatalf("missing key consumed %d retries, want 0", retries)
	}
}

// INCR is not idempotent; a connection fault must fail it immediately
// rather than risk double-incrementing on a resend.
func TestIncrIsNeverRetried(t *testing.T) {
	srv := NewServer(NewStore())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	inj := faults.New(faults.Config{Seed: 1, FailRate: 1})
	c, err := DialOptions(addr, Options{
		Retry: faultyTestPolicy(),
		DialFunc: func(a string) (net.Conn, error) {
			conn, err := net.Dial("tcp", a)
			if err != nil {
				return nil, err
			}
			return faults.WrapConn(conn, inj), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Incr("ctr"); err == nil {
		t.Fatal("Incr through a fully faulted conn must fail")
	}
	if s := inj.Stats(); s.Ops != 1 {
		t.Fatalf("injector saw %d ops, want exactly 1 (no retries)", s.Ops)
	}
}

// Server.Close racing in-flight client operations must leave no
// goroutine stuck and every operation either succeeded or failed with a
// network error (run under -race).
func TestServerCloseVsInflightClientOps(t *testing.T) {
	srv := NewServer(NewStore())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	const clients = 4
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < clients; i++ {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			defer c.Close()
			<-start
			for j := 0; ; j++ {
				if err := c.Set(fmt.Sprintf("k%d-%d", i, j), "v"); err != nil {
					return // server gone: expected
				}
				if _, err := c.Get(fmt.Sprintf("k%d-%d", i, j)); err != nil {
					return
				}
			}
		}(i, c)
	}
	close(start)
	time.Sleep(20 * time.Millisecond)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("clients hung after server close")
	}
}

func TestClientCloseIsSticky(t *testing.T) {
	srv := NewServer(NewStore())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialOptions(addr, Options{Retry: faultyTestPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := c.Get("k"); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("Get after close = %v, want ErrClientClosed", err)
	}
}

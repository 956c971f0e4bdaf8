package kvstore

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestStoreSetGet(t *testing.T) {
	s := NewStore()
	s.Set("model/tc1/version", "3")
	v, err := s.Get("model/tc1/version")
	if err != nil || v != "3" {
		t.Fatalf("Get = %q, %v", v, err)
	}
}

func TestStoreGetMissing(t *testing.T) {
	s := NewStore()
	if _, err := s.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestStoreDel(t *testing.T) {
	s := NewStore()
	s.Set("k", "v")
	if !s.Del("k") {
		t.Fatal("Del existing must report true")
	}
	if s.Del("k") {
		t.Fatal("Del missing must report false")
	}
}

func TestStoreIncr(t *testing.T) {
	s := NewStore()
	for want := int64(1); want <= 3; want++ {
		n, err := s.Incr("ctr")
		if err != nil || n != want {
			t.Fatalf("Incr = %d, %v; want %d", n, err, want)
		}
	}
	s.Set("bad", "xyz")
	if _, err := s.Incr("bad"); err == nil {
		t.Fatal("Incr on non-integer must fail")
	}
}

func TestStoreKeysPrefix(t *testing.T) {
	s := NewStore()
	s.Set("model/a", "1")
	s.Set("model/b", "2")
	s.Set("other", "3")
	keys := s.Keys("model/")
	if len(keys) != 2 || keys[0] != "model/a" || keys[1] != "model/b" {
		t.Fatalf("Keys = %v", keys)
	}
	if all := s.Keys(""); len(all) != 3 {
		t.Fatalf("Keys(\"\") = %v", all)
	}
}

func TestStoreVersionBumps(t *testing.T) {
	s := NewStore()
	v0 := s.Version()
	s.Set("k", "v")
	if s.Version() == v0 {
		t.Fatal("Set must bump version")
	}
	v1 := s.Version()
	s.Del("k")
	if s.Version() == v1 {
		t.Fatal("Del must bump version")
	}
	v2 := s.Version()
	s.Del("k") // no-op
	if s.Version() != v2 {
		t.Fatal("no-op Del must not bump version")
	}
}

func TestStoreConcurrentIncr(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	const workers, each = 8, 100
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := s.Incr("ctr"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	v, _ := s.Get("ctr")
	if v != fmt.Sprint(workers*each) {
		t.Fatalf("ctr = %s, want %d", v, workers*each)
	}
}

func newServerClient(t *testing.T) (*Store, *Client) {
	t.Helper()
	store := NewStore()
	srv := NewServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return store, client
}

func TestClientSetGetRoundTrip(t *testing.T) {
	_, c := newServerClient(t)
	value := "with spaces\nand newlines\r\nand unicode ✓"
	if err := c.Set("meta", value); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get("meta")
	if err != nil || got != value {
		t.Fatalf("Get = %q, %v", got, err)
	}
}

func TestClientGetMissing(t *testing.T) {
	_, c := newServerClient(t)
	if _, err := c.Get("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestClientDelIncrKeys(t *testing.T) {
	_, c := newServerClient(t)
	if err := c.Set("m/a", "1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("m/b", "2"); err != nil {
		t.Fatal(err)
	}
	ok, err := c.Del("m/a")
	if err != nil || !ok {
		t.Fatalf("Del = %v, %v", ok, err)
	}
	ok, err = c.Del("m/a")
	if err != nil || ok {
		t.Fatalf("second Del = %v, %v", ok, err)
	}
	n, err := c.Incr("ctr")
	if err != nil || n != 1 {
		t.Fatalf("Incr = %d, %v", n, err)
	}
	keys, err := c.Keys("m/")
	if err != nil || len(keys) != 1 || keys[0] != "m/b" {
		t.Fatalf("Keys = %v, %v", keys, err)
	}
}

func TestClientSeesServerStore(t *testing.T) {
	store, c := newServerClient(t)
	store.Set("direct", "42")
	got, err := c.Get("direct")
	if err != nil || got != "42" {
		t.Fatalf("Get = %q, %v", got, err)
	}
}

func TestClientConcurrentRequests(t *testing.T) {
	_, c := newServerClient(t)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", i)
			if err := c.Set(key, fmt.Sprint(i)); err != nil {
				t.Error(err)
				return
			}
			v, err := c.Get(key)
			if err != nil || v != fmt.Sprint(i) {
				t.Errorf("Get(%s) = %q, %v", key, v, err)
			}
		}(i)
	}
	wg.Wait()
}

func TestMultipleClients(t *testing.T) {
	store := NewStore()
	srv := NewServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c1, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c1.Set("shared", "hello"); err != nil {
		t.Fatal(err)
	}
	got, err := c2.Get("shared")
	if err != nil || got != "hello" {
		t.Fatalf("c2.Get = %q, %v", got, err)
	}
}

func TestPropClientRoundTripArbitraryValues(t *testing.T) {
	_, c := newServerClient(t)
	i := 0
	f := func(value string) bool {
		i++
		key := fmt.Sprintf("prop%d", i)
		if err := c.Set(key, value); err != nil {
			return false
		}
		got, err := c.Get(key)
		return err == nil && got == value
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

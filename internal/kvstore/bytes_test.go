package kvstore

import (
	"bytes"
	"net"
	"testing"

	"viper/internal/faults"
)

// SetBytes/GetBytes are binary-safe: the length prefix, not the content,
// delimits a value.
func TestBytesRoundTrip(t *testing.T) {
	store, c := newServerClient(t)
	for name, value := range map[string][]byte{ // names double as keys: no spaces
		"empty":         {},
		"embedded-CRLF": []byte("a\r\nb\r\n\r\n"),
		"only-CRLF":     []byte("\r\n"),
		"over-buffer":   bytes.Repeat([]byte{0, '\r', '\n', 0xff}, 50<<10),
	} {
		if err := c.SetBytes(name, value); err != nil {
			t.Fatalf("%s: SetBytes: %v", name, err)
		}
		got, err := c.GetBytes(name)
		if err != nil || !bytes.Equal(got, value) {
			t.Fatalf("%s: GetBytes = %d bytes, %v; want %d bytes", name, len(got), err, len(value))
		}
		// The string API sees the same value.
		if s, err := c.Get(name); err != nil || s != string(value) {
			t.Fatalf("%s: Get = %d bytes, %v", name, len(s), err)
		}
		if held, err := store.Get(name); err != nil || held != string(value) {
			t.Fatalf("%s: store holds %d bytes, %v", name, len(held), err)
		}
	}
}

// A value larger than the client's write buffer leaves in several
// writes, so an injected write fault drops the connection mid-value. The
// retry must re-send the whole value, and the store must at every point
// hold a whole value — the old one or the new one, never a torn prefix.
func TestSetBytesDroppedMidValue(t *testing.T) {
	store := NewStore()
	srv := NewServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	inj := faults.New(faults.Config{Seed: 11, FailRate: 0.2, SkipFirst: 1})
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
	const size = 200 << 10 // far above the client's write buffer: ≥ 3 writes per SET
	whole := func(v []byte) bool {
		return len(v) == size && bytes.Count(v, v[:1]) == size
	}
	for i := 1; i <= 60; i++ {
		value := bytes.Repeat([]byte{byte(i)}, size)
		err := c.SetBytes("blob", value)
		got, gerr := store.Get("blob")
		held := []byte(got)
		switch {
		case err == nil:
			if gerr != nil || !bytes.Equal(held, value) {
				t.Fatalf("SetBytes %d succeeded but the store holds %d bytes (%v)", i, len(held), gerr)
			}
		case gerr == nil && !whole(held):
			t.Fatalf("SetBytes %d failed (%v) and left a torn value of %d bytes", i, err, len(held))
		}
	}
	if s := inj.Stats(); s.Failures == 0 {
		t.Fatalf("fault injector never fired (stats %+v); test proves nothing", s)
	}
}

// The server reads a large value into the buffer of the last large value
// the store retired, instead of allocating a fresh one — but never into
// a buffer a reply is still being written from.
func TestLargeValueBuffersAreRecycled(t *testing.T) {
	store, c := newServerClient(t)
	const size = 2 * recycleMin
	value := func(b byte) []byte { return bytes.Repeat([]byte{b}, size) }
	backing := func(key string) *byte {
		t.Helper()
		store.mu.RLock()
		defer store.mu.RUnlock()
		e := store.data[key]
		if e == nil || len(e.buf) != size {
			t.Fatalf("%s: not stored whole", key)
		}
		return &e.buf[0]
	}
	mustSet := func(key string, b byte) {
		t.Helper()
		if err := c.SetBytes(key, value(b)); err != nil {
			t.Fatal(err)
		}
	}

	// The staging rotation: write version N, trim version N-2.
	mustSet("v1", 1)
	mustSet("v2", 2)
	first := backing("v1")
	if _, err := c.Del("v1"); err != nil {
		t.Fatal(err)
	}
	mustSet("v3", 3)
	if backing("v3") != first {
		t.Fatal("v3 was not read into v1's retired buffer")
	}
	if got, err := c.GetBytes("v3"); err != nil || !bytes.Equal(got, value(3)) {
		t.Fatalf("v3 reads back wrong (%v)", err)
	}
	if got, err := c.GetBytes("v2"); err != nil || !bytes.Equal(got, value(2)) {
		t.Fatalf("v2 was disturbed (%v)", err)
	}

	// A pinned buffer (a GET reply in flight) survives its key's deletion
	// untouched and is recycled only by the unpin.
	e, err := store.pin("v2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Del("v2"); err != nil {
		t.Fatal(err)
	}
	mustSet("v4", 4)
	if backing("v4") == &e.buf[0] {
		t.Fatal("v4 was read into a pinned buffer")
	}
	if !bytes.Equal(e.buf, value(2)) {
		t.Fatal("pinned buffer changed under its reader")
	}
	store.unpin(e)
	mustSet("v5", 5)
	if backing("v5") != &e.buf[0] {
		t.Fatal("v5 was not read into the buffer the unpin released")
	}

	// Overwriting retires the old buffer too; a small value never takes
	// (and so never wastes) a large retired buffer.
	overwritten := backing("v5")
	mustSet("v5", 6)
	if err := c.Set("meta", "small"); err != nil {
		t.Fatal(err)
	}
	mustSet("v6", 7)
	if backing("v6") != overwritten {
		t.Fatal("the buffer an overwrite retired did not outlast a small SET to serve the next large one")
	}
}

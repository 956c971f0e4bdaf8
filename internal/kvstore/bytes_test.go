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
		if held, err := store.getBytes(name); err != nil || !bytes.Equal(held, value) {
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
		held, gerr := store.getBytes("blob")
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

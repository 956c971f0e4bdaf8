package kvstore

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"unsafe"

	"viper/internal/retry"
)

// ErrUnavailable marks client operations that failed because the server
// could not be reached (after any configured retries). It wraps the
// underlying network error.
var ErrUnavailable = errors.New("kvstore: server unavailable")

// ErrClientClosed is returned by operations on a closed client.
var ErrClientClosed = errors.New("kvstore: client closed")

// Options configures a Client's fault-tolerance behaviour.
type Options struct {
	// Retry bounds redial-and-retry for idempotent operations (PING,
	// GET, SET, DEL, KEYS). The zero value performs a single attempt.
	// INCR is never retried: a lost reply leaves it ambiguous whether
	// the increment was applied.
	Retry retry.Policy
	// DialFunc establishes connections (nil = net.Dial over TCP); a
	// fault injector hooks in here.
	DialFunc func(addr string) (net.Conn, error)
}

// Client is a TCP client for Server. Methods are safe for concurrent use
// (requests are serialized over one connection). When built with a retry
// policy, idempotent operations transparently redial and resend after
// connection faults; protocol-level failures (missing keys, malformed
// requests) are never retried.
type Client struct {
	addr string
	opts Options

	mu     sync.Mutex
	conn   net.Conn
	r      *bufio.Reader
	w      *bufio.Writer
	closed bool
}

// Dial connects to a kvstore server at addr with no retries (the
// original single-attempt behaviour).
func Dial(addr string) (*Client, error) {
	return DialOptions(addr, Options{})
}

// DialOptions connects to a kvstore server at addr, applying the retry
// policy to the initial dial as well as to later idempotent operations.
func DialOptions(addr string, opts Options) (*Client, error) {
	if opts.DialFunc == nil {
		opts.DialFunc = func(a string) (net.Conn, error) { return net.Dial("tcp", a) }
	}
	c := &Client{addr: addr, opts: opts}
	err := opts.Retry.Do(func(int) error {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.connectLocked()
	})
	if err != nil {
		return nil, fmt.Errorf("%w: dial %s: %w", ErrUnavailable, addr, err)
	}
	return c, nil
}

// connectLocked (re)establishes the connection; c.mu must be held.
func (c *Client) connectLocked() error {
	if c.closed {
		return retry.Permanent(ErrClientClosed)
	}
	conn, err := c.opts.DialFunc(c.addr)
	if err != nil {
		return err
	}
	c.conn = conn
	c.r = bufio.NewReader(conn)
	c.w = bufio.NewWriter(conn)
	return nil
}

// dropLocked discards a connection after a fault so the next attempt
// redials; c.mu must be held.
func (c *Client) dropLocked() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
		c.r = nil
		c.w = nil
	}
}

// do runs one protocol round-trip, redialing and retrying per the
// policy when idempotent. Non-permanent failures poison the connection.
func (c *Client) do(idempotent bool, round func() error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	pol := c.opts.Retry
	if !idempotent {
		pol = retry.Policy{}
	}
	err := pol.Do(func(int) error {
		if c.conn == nil {
			if err := c.connectLocked(); err != nil {
				return err
			}
		}
		err := round()
		if err != nil && !retry.IsPermanent(err) {
			c.dropLocked()
		}
		return err
	})
	if err != nil && !retry.IsPermanent(err) {
		return fmt.Errorf("%w: %w", ErrUnavailable, err)
	}
	return err
}

// Close closes the connection. Pending operations fail; later calls
// return ErrClientClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// Set assigns value to key on the server.
func (c *Client) Set(key, value string) error {
	// The string's bytes are viewed, not copied: SetBytes only reads them.
	return c.SetBytes(key, unsafe.Slice(unsafe.StringData(value), len(value)))
}

// SetBytes is Set for a value already held as bytes: the command line,
// the caller's slice and the terminator go to the connection with no
// intermediate payload-sized buffer. The slice is only read, and only
// until SetBytes returns; a retry after a connection fault re-sends it
// whole.
func (c *Client) SetBytes(key string, value []byte) error {
	return c.do(true, func() error {
		c.w.WriteString("SET ")
		c.w.WriteString(key)
		writeLenLine(c.w, " ", len(value))
		writeValue(c.w, value)
		if err := c.w.Flush(); err != nil {
			return err
		}
		line, err := c.readLine()
		if err != nil {
			return err
		}
		if line != "+OK" {
			return asProtocolErr(fmt.Errorf("kvstore: SET failed: %s", line), line)
		}
		return nil
	})
}

// Get fetches key; ErrNotFound if missing.
func (c *Client) Get(key string) (string, error) {
	v, err := c.GetBytes(key)
	return string(v), err
}

// GetBytes is Get returning the value in the one buffer it was read
// into, which the caller owns.
func (c *Client) GetBytes(key string) ([]byte, error) {
	var out []byte
	err := c.do(true, func() error {
		c.w.WriteString("GET ")
		c.w.WriteString(key)
		c.w.WriteString("\r\n")
		if err := c.w.Flush(); err != nil {
			return err
		}
		v, err := c.readBulk()
		if err != nil {
			return err
		}
		out = v
		return nil
	})
	return out, err
}

// Del removes key, reporting whether it existed. Retries after a
// connection fault may observe false for a key the first attempt
// deleted; the store state is unaffected either way.
func (c *Client) Del(key string) (bool, error) {
	var existed bool
	err := c.do(true, func() error {
		fmt.Fprintf(c.w, "DEL %s\r\n", key)
		if err := c.w.Flush(); err != nil {
			return err
		}
		n, err := c.readInt()
		if err != nil {
			return err
		}
		existed = n == 1
		return nil
	})
	return existed, err
}

// Incr atomically increments key on the server. Never retried: after a
// lost reply the client cannot know whether the increment landed.
func (c *Client) Incr(key string) (int64, error) {
	var out int64
	err := c.do(false, func() error {
		fmt.Fprintf(c.w, "INCR %s\r\n", key)
		if err := c.w.Flush(); err != nil {
			return err
		}
		n, err := c.readInt()
		if err != nil {
			return err
		}
		out = n
		return nil
	})
	return out, err
}

// Keys lists keys with the given prefix.
func (c *Client) Keys(prefix string) ([]string, error) {
	var out []string
	err := c.do(true, func() error {
		fmt.Fprintf(c.w, "KEYS %s\r\n", prefix)
		if err := c.w.Flush(); err != nil {
			return err
		}
		line, err := c.readLine()
		if err != nil {
			return err
		}
		if !strings.HasPrefix(line, "*") {
			return asProtocolErr(fmt.Errorf("kvstore: unexpected KEYS reply %q", line), line)
		}
		n, err := strconv.Atoi(line[1:])
		if err != nil {
			return fmt.Errorf("kvstore: bad array length %q", line)
		}
		var keys []string // grown as keys arrive: n is the peer's claim
		for i := 0; i < n; i++ {
			k, err := c.readBulk()
			if err != nil {
				return err
			}
			keys = append(keys, string(k))
		}
		out = keys
		return nil
	})
	return out, err
}

// asProtocolErr marks server-reported errors ("-ERR ...") permanent —
// resending the same request cannot help — while leaving anything else
// (a desynchronized stream after a fault) retryable on a fresh
// connection.
func asProtocolErr(err error, line string) error {
	if strings.HasPrefix(line, "-ERR") {
		return retry.Permanent(err)
	}
	return err
}

func (c *Client) readLine() (string, error) {
	return readLineCapped(c.r)
}

// readBulk reads one "$<len>"-framed value. A length over MaxValueBytes
// or a missing terminator means the stream cannot be trusted; both are
// ordinary (retryable) errors, so do() drops the connection.
func (c *Client) readBulk() ([]byte, error) {
	line, err := c.readLine()
	if err != nil {
		return nil, err
	}
	if !strings.HasPrefix(line, "$") {
		return nil, asProtocolErr(fmt.Errorf("kvstore: unexpected bulk reply %q", line), line)
	}
	n, err := strconv.Atoi(line[1:])
	if err != nil {
		return nil, fmt.Errorf("kvstore: bad bulk length %q", line)
	}
	if n < 0 {
		return nil, retry.Permanent(ErrNotFound)
	}
	if err := checkValueLen(n); err != nil {
		return nil, err
	}
	return readValue(c.r, nil, n)
}

func (c *Client) readInt() (int64, error) {
	line, err := c.readLine()
	if err != nil {
		return 0, err
	}
	if !strings.HasPrefix(line, ":") {
		return 0, asProtocolErr(fmt.Errorf("kvstore: unexpected int reply %q", line), line)
	}
	return strconv.ParseInt(line[1:], 10, 64)
}

package pubsub

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
)

// Server exposes a Broker over TCP.
//
// Protocol (text, length-prefixed payloads):
//
//	SUB <channel>\r\n                  → +OK, then pushed MSG frames
//	PUB <channel> <len>\r\n<payload>\r\n → :<receivers>
//	PING\r\n                           → +PONG
//
// Pushed frame: MSG <channel> <len>\r\n<payload>\r\n
//
// A PUB that announces more than MaxPayloadBytes is answered "-ERR payload
// too large" before anything is allocated for it, and the connection is
// served on. A line longer than maxLineBytes is answered "-ERR line too
// long" and the connection closed.
type Server struct {
	broker *Broker

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	done     chan struct{}
	once     sync.Once
	wg       sync.WaitGroup
}

// maxLineBytes caps one protocol line: the server answers a longer one
// "-ERR line too long" and closes, the client closes.
const maxLineBytes = 64 << 10

// readLineCapped reads one line of at most maxLineBytes, without its CRLF.
// Only a line that outgrows r's buffer is accumulated, and never past the
// cap; ok is false, with err nil, for a longer one.
func readLineCapped(r *bufio.Reader) (line string, ok bool, err error) {
	var b []byte
	for {
		part, err := r.ReadSlice('\n')
		if len(b)+len(part) > maxLineBytes {
			return "", false, nil
		}
		if b = append(b, part...); !errors.Is(err, bufio.ErrBufferFull) {
			return strings.TrimRight(string(b), "\r\n"), err == nil, err
		}
	}
}

// MaxPayloadBytes caps the length a peer may announce for one payload, in
// either direction. It is far above any notification the system publishes
// (an encoded ModelMeta, under 1 KiB) and far below what an unchecked
// length could make the other side allocate.
const MaxPayloadBytes = 64 << 10

// NewServer wraps broker in a TCP server (not yet listening).
func NewServer(broker *Broker) *Server {
	return &Server{broker: broker, conns: make(map[net.Conn]struct{}), done: make(chan struct{})}
}

// Listen binds to addr and serves until Close, returning the bound
// address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("pubsub: listen %s: %w", addr, err)
	}
	s.mu.Lock()
	s.listener = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conns[conn] = struct{}{}
			s.mu.Unlock()
			s.wg.Add(1)
			go s.serveConn(conn)
		}
	}()
	return ln.Addr().String(), nil
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	var subs []*Subscription
	var writeMu sync.Mutex
	defer func() {
		for _, sub := range subs {
			sub.Close()
		}
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	reply := func(format string, args ...interface{}) error {
		writeMu.Lock()
		defer writeMu.Unlock()
		fmt.Fprintf(w, format, args...)
		return w.Flush()
	}
	for {
		line, ok, err := readLineCapped(r)
		if !ok {
			if err == nil {
				reply("-ERR line too long\r\n")
			}
			return
		}
		if line == "" {
			continue
		}
		parts := strings.SplitN(line, " ", 3)
		switch strings.ToUpper(parts[0]) {
		case "PING":
			if reply("+PONG\r\n") != nil {
				return
			}
		case "SUB":
			if len(parts) < 2 {
				if reply("-ERR usage: SUB channel\r\n") != nil {
					return
				}
				continue
			}
			// Replay the retained message so a reconnecting subscriber
			// immediately learns about the newest model version.
			sub, _ := s.broker.SubscribeReplay(parts[1])
			subs = append(subs, sub)
			s.wg.Add(1)
			go func(sub *Subscription) {
				defer s.wg.Done()
				for msg := range sub.C {
					if reply("MSG %s %d\r\n%s\r\n", msg.Channel, len(msg.Payload), msg.Payload) != nil {
						return
					}
				}
			}(sub)
			if reply("+OK\r\n") != nil {
				return
			}
		case "PUB":
			if len(parts) != 3 {
				if reply("-ERR usage: PUB channel len\r\n") != nil {
					return
				}
				continue
			}
			n, err := strconv.Atoi(parts[2])
			if err != nil || n < 0 {
				if reply("-ERR bad length\r\n") != nil {
					return
				}
				continue
			}
			if n > MaxPayloadBytes {
				if reply("-ERR payload too large\r\n") != nil {
					return
				}
				continue
			}
			buf := make([]byte, n+2)
			if _, err := io.ReadFull(r, buf); err != nil {
				return
			}
			cnt := s.broker.Publish(parts[1], string(buf[:n]))
			if reply(":%d\r\n", cnt) != nil {
				return
			}
		default:
			if reply("-ERR unknown command %q\r\n", parts[0]) != nil {
				return
			}
		}
	}
}

// Close stops the listener and closes all connections. It is
// idempotent: only the first call closes the done channel.
func (s *Server) Close() error {
	s.once.Do(func() { close(s.done) })
	s.mu.Lock()
	if s.listener != nil {
		s.listener.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// Client is a TCP pub/sub client. A single client may both publish and
// subscribe; pushed messages are delivered on the channel returned by
// Subscribe.
type Client struct {
	conn net.Conn
	r    *bufio.Reader

	writeMu sync.Mutex
	w       *bufio.Writer

	mu      sync.Mutex
	subs    map[string][]chan Message
	replies chan string
	closed  chan struct{}
	once    sync.Once
}

// DialClient connects to a pubsub server at addr and starts the reader
// loop.
func DialClient(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("pubsub: dial %s: %w", addr, err)
	}
	return newClient(conn), nil
}

// newClient starts a client's reader loop over conn.
func newClient(conn net.Conn) *Client {
	c := &Client{
		conn:    conn,
		r:       bufio.NewReader(conn),
		w:       bufio.NewWriter(conn),
		subs:    make(map[string][]chan Message),
		replies: make(chan string, 16),
		closed:  make(chan struct{}),
	}
	go c.readLoop()
	return c
}

func (c *Client) readLoop() {
	defer c.Close()
	for {
		line, ok, _ := readLineCapped(c.r)
		if !ok {
			return
		}
		if strings.HasPrefix(line, "MSG ") {
			parts := strings.SplitN(line, " ", 3)
			if len(parts) != 3 {
				return
			}
			n, err := strconv.Atoi(parts[2])
			if err != nil || n < 0 || n > MaxPayloadBytes {
				return
			}
			buf := make([]byte, n+2)
			if _, err := io.ReadFull(c.r, buf); err != nil {
				return
			}
			msg := Message{Channel: parts[1], Payload: string(buf[:n])}
			c.mu.Lock()
			for _, ch := range c.subs[msg.Channel] {
				select {
				case ch <- msg:
				default: // slow local consumer: drop
				}
			}
			c.mu.Unlock()
			continue
		}
		select {
		case c.replies <- line:
		case <-c.closed:
			return
		}
	}
}

func (c *Client) request(format string, args ...interface{}) (string, error) {
	c.writeMu.Lock()
	fmt.Fprintf(c.w, format, args...)
	err := c.w.Flush()
	c.writeMu.Unlock()
	if err != nil {
		return "", err
	}
	select {
	case line := <-c.replies:
		if strings.HasPrefix(line, "-ERR") {
			return "", fmt.Errorf("pubsub: %s", line)
		}
		return line, nil
	case <-c.closed:
		return "", fmt.Errorf("pubsub: connection closed")
	}
}

// Subscribe registers for a channel; pushed messages arrive on the
// returned Go channel (buffered; drops if the local consumer lags).
func (c *Client) Subscribe(channel string) (<-chan Message, error) {
	ch := make(chan Message, 64)
	c.mu.Lock()
	c.subs[channel] = append(c.subs[channel], ch)
	c.mu.Unlock()
	if _, err := c.request("SUB %s\r\n", channel); err != nil {
		return nil, err
	}
	return ch, nil
}

// Publish sends payload on channel, returning the server-side receiver
// count. A payload over MaxPayloadBytes is refused here: the server would
// refuse its length and read the payload it was not sent for as commands.
func (c *Client) Publish(channel, payload string) (int, error) {
	if len(payload) > MaxPayloadBytes {
		return 0, fmt.Errorf("pubsub: %d-byte payload is over the %d-byte cap", len(payload), MaxPayloadBytes)
	}
	line, err := c.request("PUB %s %d\r\n%s\r\n", channel, len(payload), payload)
	if err != nil {
		return 0, err
	}
	if !strings.HasPrefix(line, ":") {
		return 0, fmt.Errorf("pubsub: unexpected publish reply %q", line)
	}
	return strconv.Atoi(line[1:])
}

// Close shuts the connection down.
func (c *Client) Close() error {
	c.once.Do(func() { close(c.closed); c.conn.Close() })
	return nil
}

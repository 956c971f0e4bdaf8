package kvstore

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
)

// Server exposes a Store over TCP using a RESP-like text protocol:
//
//	SET <key> <len>\r\n<value bytes>\r\n  → +OK
//	GET <key>                            → $<len>\r\n<value>\r\n or $-1
//	DEL <key>                            → :1 or :0
//	INCR <key>                           → :<n> or -ERR
//	KEYS <prefix>                        → *<n> then $-framed keys
//	PING                                 → +PONG
//
// Values are length-prefixed, so they are binary-safe: any byte,
// including CR and LF, may appear. An announced length above
// MaxValueBytes is refused ("-ERR value too large") and the connection
// closed, since the unread value would desynchronize the stream; a value
// not followed by CRLF is a protocol error ("-ERR protocol: ...") that
// also closes the connection, and the value is not stored. Nothing is
// sized by a claim beyond a bound before the bytes arrive: a value past
// eagerValueBytes allocates as it lands, and a line longer than
// maxLineBytes is refused ("-ERR line too long", connection closed).
type Server struct {
	store *Store

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	done     chan struct{}
	once     sync.Once
	wg       sync.WaitGroup
}

// NewServer wraps store in a TCP server (not yet listening).
func NewServer(store *Store) *Server {
	return &Server{store: store, conns: make(map[net.Conn]struct{}), done: make(chan struct{})}
}

// Listen binds to addr (e.g. "127.0.0.1:0") and serves until Close.
// It returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("kvstore: listen %s: %w", addr, err)
	}
	s.mu.Lock()
	s.listener = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-s.done:
				return
			default:
				return // listener failed
			}
		}
		s.mu.Lock()
		select {
		case <-s.done:
			// Accepted as Close was sweeping s.conns: nobody else would
			// close this connection, and Close would wait on it forever.
			s.mu.Unlock()
			conn.Close()
			return
		default:
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	for {
		line, err := readLineCapped(r)
		if err != nil {
			if errors.Is(err, errLineTooLong) {
				fmt.Fprint(w, "-ERR line too long\r\n")
				w.Flush()
			}
			return
		}
		if line == "" {
			continue
		}
		// Flush even when dispatch failed: a protocol refusal carries an
		// -ERR reply the peer should see before the connection closes.
		err = s.dispatch(line, r, w)
		if ferr := w.Flush(); err != nil || ferr != nil {
			return
		}
	}
}

func (s *Server) dispatch(line string, r *bufio.Reader, w *bufio.Writer) error {
	parts := strings.SplitN(line, " ", 3)
	cmd := strings.ToUpper(parts[0])
	switch cmd {
	case "PING":
		fmt.Fprint(w, "+PONG\r\n")
	case "SET":
		if len(parts) != 3 {
			fmt.Fprint(w, "-ERR usage: SET key len\r\n")
			return nil
		}
		n, err := strconv.Atoi(parts[2])
		if err != nil || n < 0 {
			fmt.Fprint(w, "-ERR bad length\r\n")
			return nil
		}
		if err := checkValueLen(n); err != nil {
			fmt.Fprint(w, "-ERR value too large\r\n")
			return err
		}
		// A large value is read into a buffer the store retired, when one
		// fits, and the store keeps it. A value that fails to arrive whole
		// just drops the buffer.
		value, err := readValue(r, s.store.retired.Draw(n), n)
		if err != nil {
			if errors.Is(err, errBadTerminator) {
				fmt.Fprint(w, "-ERR protocol: value not terminated by CRLF\r\n")
			}
			return err
		}
		s.store.setBytes(parts[1], value)
		fmt.Fprint(w, "+OK\r\n")
	case "GET":
		if len(parts) < 2 {
			fmt.Fprint(w, "-ERR usage: GET key\r\n")
			return nil
		}
		e, err := s.store.pin(parts[1])
		if err != nil {
			fmt.Fprint(w, "$-1\r\n")
			return nil
		}
		// bufio copies what it does not write through, so once writeValue
		// returns nothing refers to the buffer any more.
		writeLenLine(w, "$", len(e.buf))
		writeValue(w, e.buf)
		s.store.unpin(e)
	case "DEL":
		if len(parts) < 2 {
			fmt.Fprint(w, "-ERR usage: DEL key\r\n")
			return nil
		}
		if s.store.Del(parts[1]) {
			fmt.Fprint(w, ":1\r\n")
		} else {
			fmt.Fprint(w, ":0\r\n")
		}
	case "INCR":
		if len(parts) < 2 {
			fmt.Fprint(w, "-ERR usage: INCR key\r\n")
			return nil
		}
		n, err := s.store.Incr(parts[1])
		if err != nil {
			fmt.Fprintf(w, "-ERR %s\r\n", err)
			return nil
		}
		fmt.Fprintf(w, ":%d\r\n", n)
	case "KEYS":
		prefix := ""
		if len(parts) >= 2 {
			prefix = parts[1]
		}
		keys := s.store.Keys(prefix)
		fmt.Fprintf(w, "*%d\r\n", len(keys))
		for _, k := range keys {
			fmt.Fprintf(w, "$%d\r\n%s\r\n", len(k), k)
		}
	default:
		fmt.Fprintf(w, "-ERR unknown command %q\r\n", cmd)
	}
	return nil
}

// Close stops the listener and closes every open connection. It is
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

// Package debugsrv is the debug endpoint of Viper's long-lived binaries
// (viper-relay, viper-producer, viper-consumer; their -debug-addr flag):
// the standard Go profiling handlers under /debug/pprof/ and a JSON dump of
// every metrics registry in the process under /metrics. It is off unless an
// address is given, serves on its own mux — nothing is registered on
// http.DefaultServeMux — and has a shutdown path that leaves no goroutine
// behind.
package debugsrv

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"

	"viper/internal/metrics"
)

// Server is a running debug endpoint.
type Server struct {
	srv  *http.Server
	addr string
	done chan struct{} // closed when the serve loop has exited

	mu   sync.Mutex
	open int       // connections being served
	idle sync.Cond // open moved down
}

// Start serves the debug endpoint on addr ("127.0.0.1:0" picks a free port;
// see Addr), with /metrics answering metrics.AllSnapshots at that moment:
// every registry is current whenever it is read, so no node has a flush
// to run first. An empty addr starts nothing and returns a nil Server,
// whose Close is a no-op — so a binary can defer Close whatever its flag
// says.
func Start(addr string) (*Server, error) {
	if addr == "" {
		return nil, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("debugsrv: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(metrics.AllSnapshots()) // a failed write is the client's loss
	})
	s := &Server{addr: ln.Addr().String(), done: make(chan struct{})}
	// A connection is counted by the accept loop (StateNew fires there, so
	// none is added once the loop has exited) and discounted by its own
	// goroutine on the way out.
	s.idle.L = &s.mu
	s.srv = &http.Server{Handler: mux, ConnState: func(_ net.Conn, state http.ConnState) {
		s.mu.Lock()
		defer s.mu.Unlock()
		switch state {
		case http.StateNew:
			s.open++
		case http.StateClosed, http.StateHijacked:
			s.open--
			s.idle.Broadcast()
		}
	}}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed after Close; anything else ends the endpoint, not the node
	}()
	return s, nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.addr }

// Close stops the endpoint at once — the listener and every connection are
// closed, which cuts a profile being taken short (the pprof handlers watch
// their request's context) — and returns once the serve loop and every
// connection's goroutine have finished.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	err := s.srv.Close()
	<-s.done
	s.mu.Lock()
	for s.open > 0 {
		s.idle.Wait()
	}
	s.mu.Unlock()
	return err
}

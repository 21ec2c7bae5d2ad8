// Package httpsrv runs the loopback HTTP endpoints of the web-service
// registry (ws) and the database protocol (dbproto) and shuts them down
// without waiting on connections that were dialled but never used.
//
// http.Server.Shutdown counts a connection that has not yet read a byte
// (http.StateNew) as busy until it is five seconds old, so one idle dial
// from a client's connection pool held every Stop/Close for the whole
// drain timeout and made it report context.DeadlineExceeded. The Server
// here tracks such connections and closes them before draining: nothing
// was admitted on them, so closing one is the same as refusing it at the
// closed listener.
package httpsrv

import (
	"context"
	"net"
	"net/http"
	"sync"
	"time"
)

// Timeouts are the per-connection deadlines of a Server.
type Timeouts struct {
	Read, Write, Idle time.Duration
}

// Server is an http.Server serving one listener.
type Server struct {
	http *http.Server

	mu      sync.Mutex
	closing bool
	fresh   map[net.Conn]struct{} // accepted, no request byte read yet
}

// Serve starts serving h on ln in a background goroutine.
func Serve(ln net.Listener, h http.Handler, to Timeouts) *Server {
	s := &Server{fresh: make(map[net.Conn]struct{})}
	s.http = &http.Server{
		Handler:      h,
		ReadTimeout:  to.Read,
		WriteTimeout: to.Write,
		IdleTimeout:  to.Idle,
		ConnState:    s.track,
	}
	go func() { _ = s.http.Serve(ln) }()
	return s
}

// track records which connections are still in http.StateNew; once
// Shutdown has begun, a newly accepted connection is closed at once.
func (s *Server) track(c net.Conn, state http.ConnState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if state != http.StateNew {
		delete(s.fresh, c)
		return
	}
	if s.closing {
		_ = c.Close()
		return
	}
	s.fresh[c] = struct{}{}
}

// Shutdown stops accepting, closes connections that never carried a
// request, gives in-flight requests up to timeout to finish, then closes
// whatever is left. The error is the drain's (context.DeadlineExceeded
// when requests were cut off). Safe to call more than once.
func (s *Server) Shutdown(timeout time.Duration) error {
	s.mu.Lock()
	s.closing = true
	for c := range s.fresh {
		_ = c.Close()
	}
	clear(s.fresh)
	s.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if err != nil {
		_ = s.http.Close()
	}
	return err
}

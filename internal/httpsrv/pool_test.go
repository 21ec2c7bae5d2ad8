package httpsrv

import (
	"context"
	"sync"
	"testing"
	"time"
)

// startEcho serves one Mux whose only operation answers <OK></OK>.
func startEcho(t *testing.T) *Server {
	t.Helper()
	mux := &Mux[struct{}]{
		Prefix:  "t",
		MaxBody: 1 << 20,
		Lookup:  func(string) (struct{}, error) { return struct{}{}, nil },
		Ops: map[string]Op[struct{}]{
			"echo": func(_ struct{}, _, dst []byte) ([]byte, error) { return append(dst, "<OK></OK>"...), nil },
		},
	}
	srv, err := Listen(mux)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv
}

func (s *Server) acceptedConns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.accepted
}

// TestClientPoolBoundsConnections pins the shared keep-alive pool: a burst
// of concurrent posts opens at most poolSize connections, and sequential
// posts reuse one.
func TestClientPoolBoundsConnections(t *testing.T) {
	srv := startEcho(t)
	c := NewClient(srv.URL(), "t", "x", "test", 30*time.Second)
	var wg sync.WaitGroup
	errs := make(chan error, 500)
	for i := 0; i < 500; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Post(context.Background(), "echo", []byte("<Q></Q>")); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := srv.acceptedConns(); n > poolSize {
		t.Errorf("500 concurrent posts opened %d connections, bound %d", n, poolSize)
	}

	srv = startEcho(t)
	c = NewClient(srv.URL(), "t", "x", "test", 30*time.Second)
	for i := 0; i < 200; i++ {
		answer, err := c.Post(context.Background(), "echo", []byte("<Q></Q>"))
		if err != nil {
			t.Fatal(err)
		}
		if string(answer) != "<OK></OK>" {
			t.Fatalf("answer %q", answer)
		}
	}
	if n := srv.acceptedConns(); n != 1 {
		t.Errorf("200 sequential posts opened %d connections, want 1", n)
	}
}

// TestPoolIdlesOutBeforeServer pins the timeout order: the server must
// never close a pooled connection the client may still pick for a POST,
// which net/http does not retry.
func TestPoolIdlesOutBeforeServer(t *testing.T) {
	srv := startEcho(t)
	if transport.IdleConnTimeout <= 0 || transport.IdleConnTimeout >= srv.http.IdleTimeout {
		t.Fatalf("client idle timeout %v, server idle timeout %v", transport.IdleConnTimeout, srv.http.IdleTimeout)
	}
	if transport.MaxConnsPerHost != poolSize || transport.MaxIdleConnsPerHost != poolSize {
		t.Fatalf("pool bounds %d/%d, want %d", transport.MaxConnsPerHost, transport.MaxIdleConnsPerHost, poolSize)
	}
}

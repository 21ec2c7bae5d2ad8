// Package httpsrv is the loopback RPC substrate of the benchmark's network
// boundary (the paper's communication cost Cc). The web-service registry
// (ws) and the database protocol (dbproto) are XML codecs over it: both
// speak POST /<prefix>/<name>/<op> with an XML body and an XML answer.
//
// Server side, Listen binds 127.0.0.1:0 with one set of peer-protection
// timeouts and one drain bound, and a Mux runs the steps every request
// shares: routing, a bounded body read, the optional artificial delay,
// fault injection, XML parsing, the operation, and the answer. Client side,
// one Client.Post encodes the body, stamps the caller, reads the reply once
// and wraps non-200 replies as *fault.HTTPStatusError. Request bodies are
// byte-stable: the fault plan keys its decisions on endpoint, operation,
// body digest and caller.
//
// Clients share http.DefaultTransport. Server.Close does not wait on it:
// http.Server.Shutdown counts a connection that has not yet read a byte
// (http.StateNew) as busy until it is five seconds old, so one idle dial
// from a client's connection pool would hold every Close for the whole
// drain bound. The Server tracks such connections and closes them before
// draining: nothing was admitted on them, so closing one is the same as
// refusing it at the closed listener. Pooled connections that did carry a
// request are idle keep-alives, which Shutdown closes at once.
package httpsrv

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	x "repro/internal/xmlmsg"
)

// drainTimeout bounds the graceful drain of Close before the remaining
// connections are cut off.
const drainTimeout = 5 * time.Second

// Server is an http.Server serving one loopback listener.
type Server struct {
	http *http.Server
	url  string

	mu      sync.Mutex
	closing bool
	fresh   map[net.Conn]struct{} // accepted, no request byte read yet
}

// Listen binds a loopback listener and serves h on it in a background
// goroutine. The timeouts protect the server from hung or slow-drip peers.
func Listen(h http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &Server{url: "http://" + ln.Addr().String(), fresh: make(map[net.Conn]struct{})}
	s.http = &http.Server{
		Handler:      h,
		ReadTimeout:  15 * time.Second,
		WriteTimeout: 30 * time.Second,
		IdleTimeout:  60 * time.Second,
		ConnState:    s.track,
	}
	go func() { _ = s.http.Serve(ln) }()
	return s, nil
}

// URL returns the base URL, e.g. "http://127.0.0.1:39113".
func (s *Server) URL() string { return s.url }

// track records which connections are still in http.StateNew; once Close
// has begun, a newly accepted connection is closed at once.
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

// Close stops accepting, closes connections that never carried a request,
// gives in-flight requests up to five seconds to finish (a half-written
// snapshot answer would otherwise corrupt a checkpoint read), then closes
// whatever is left. The error is the drain's (context.DeadlineExceeded
// when requests were cut off). Safe to call more than once.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closing = true
	for c := range s.fresh {
		_ = c.Close()
	}
	clear(s.fresh)
	s.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if err != nil {
		_ = s.http.Close()
	}
	return err
}

// Op answers one operation on a resolved target.
type Op[T any] func(target T, doc *x.Node) (*x.Node, error)

// Mux dispatches POST /<Prefix>/<name>/<op> to Ops[op] on the target
// Lookup(name) resolves. In order it: routes (405 for other methods, 404
// for bad paths, unknown names and unknown operations); refuses a body
// declared over MaxBody bytes (413) and reads at most MaxBody; sleeps
// Delay, after the read so a departed client cancels it; consults the
// fault plan on endpoint <Prefix>/<lower(name)> unless the operation is
// Exempt; parses the body; runs the operation; and streams the XML
// answer. Operation errors answer 503 when they wrap a
// *fault.TransientError (retryable) and 400 otherwise.
type Mux[T any] struct {
	Prefix  string
	MaxBody int64
	Delay   time.Duration
	Exempt  map[string]bool
	Lookup  func(name string) (T, error)
	Ops     map[string]Op[T]

	plan atomic.Pointer[fault.Plan]
}

// SetFaultPlan installs (or, with nil, removes) the deterministic fault
// plan consulted before every dispatched request.
func (m *Mux[T]) SetFaultPlan(p *fault.Plan) { m.plan.Store(p) }

// ServeHTTP implements http.Handler.
func (m *Mux[T]) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	parts := strings.Split(strings.Trim(req.URL.Path, "/"), "/")
	if len(parts) != 3 || parts[0] != m.Prefix {
		http.Error(w, "expected /"+m.Prefix+"/<name>/<operation>", http.StatusNotFound)
		return
	}
	name, opName := parts[1], parts[2]
	target, err := m.Lookup(name)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	op := m.Ops[opName]
	if op == nil {
		http.Error(w, "unknown operation "+opName, http.StatusNotFound)
		return
	}
	if req.ContentLength > m.MaxBody {
		http.Error(w, "request body too large", http.StatusRequestEntityTooLarge)
		return
	}
	body, err := readBody(http.MaxBytesReader(w, req.Body, m.MaxBody), req.ContentLength)
	if err != nil {
		http.Error(w, "read: "+err.Error(), http.StatusBadRequest)
		return
	}
	// net/http only notices a departed client once the body is consumed,
	// so the delay comes after the read.
	if fault.Sleep(req.Context(), m.Delay) != nil {
		return
	}
	if !m.Exempt[opName] &&
		!fault.InjectHTTP(w, req, m.plan.Load(), m.Prefix+"/"+strings.ToLower(name), opName, body) {
		return
	}
	doc, err := x.ParseBytes(body)
	if err != nil {
		http.Error(w, "parse: "+err.Error(), http.StatusBadRequest)
		return
	}
	result, err := op(target, doc)
	if err != nil {
		status := http.StatusBadRequest
		var te *fault.TransientError
		if errors.As(err, &te) {
			status = http.StatusServiceUnavailable
		}
		http.Error(w, err.Error(), status)
		return
	}
	w.Header().Set("Content-Type", "application/xml")
	_ = result.WriteXML(w) // a failed write means the client left
}

// readBody reads r to EOF into a buffer sized from the declared length.
func readBody(r io.Reader, declared int64) ([]byte, error) {
	var buf bytes.Buffer
	if declared > 0 {
		buf.Grow(int(declared) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// Client posts XML documents to the operations of one named endpoint,
// <base>/<prefix>/<name>/<op>.
type Client struct {
	base, prefix, name string
	label              string // error prefix, the codec package's name
	http               http.Client
}

// NewClient creates a client for one endpoint. label prefixes every error;
// timeout bounds each whole exchange.
func NewClient(base, prefix, name, label string, timeout time.Duration) Client {
	return Client{base: base, prefix: prefix, name: name, label: label, http: http.Client{Timeout: timeout}}
}

// Post encodes doc, sends it to op under the context (stamping the
// context's caller, see fault.CallerHeader) and parses the XML answer.
// Non-200 answers surface as a wrapped *fault.HTTPStatusError so the
// resilience layer can classify 5xx answers as transient.
func (c *Client) Post(ctx context.Context, op string, doc *x.Node) (*x.Node, error) {
	var buf bytes.Buffer
	if err := doc.WriteXML(&buf); err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.base+"/"+c.prefix+"/"+c.name+"/"+op, &buf)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/xml")
	if caller := fault.Caller(ctx); caller != "" {
		req.Header.Set(fault.CallerHeader, caller)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, c.fail(op, err)
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		return nil, c.fail(op, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, c.fail(op, &fault.HTTPStatusError{Status: resp.StatusCode, Body: strings.TrimSpace(string(body))})
	}
	return x.ParseBytes(body)
}

func (c *Client) fail(op string, err error) error {
	return fmt.Errorf("%s: %s %s: %w", c.label, c.name, op, err)
}

// Package httpsrv is the loopback RPC substrate of the benchmark's network
// boundary (the paper's communication cost Cc). The web-service registry
// (ws) and the database protocol (dbproto) are XML codecs over it: both
// speak POST /<prefix>/<name>/<op> with an XML body and an XML answer.
//
// Server side, Listen binds 127.0.0.1:0 with one set of peer-protection
// timeouts and one drain bound, and a Mux runs the steps every request
// shares: routing, a bounded body read, the optional artificial delay,
// fault injection, the operation, and the answer. Operations take and
// return bytes: each codec parses a tree only where it needs one, and
// reads and writes result sets with the xmlmsg result-set codec. Client
// side, one Client.Post sends the body, stamps the caller, reads the reply
// once and wraps non-200 replies as *fault.HTTPStatusError. Request bodies
// are byte-stable — the fault plan keys its decisions on endpoint,
// operation, body digest and caller — so the codecs' encoders
// (Node.AppendXML and xmlmsg.AppendResultSet) must write the same bytes for
// the same logical request.
//
// Every Client shares one keep-alive transport, bounded to poolSize
// connections per host. http.DefaultTransport keeps two idle connections
// per host, so the benchmark's concurrent processes re-dialled for most
// requests. Server.Close does not wait on the pool:
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

const (
	// drainTimeout bounds the graceful drain of Close before the remaining
	// connections are cut off.
	drainTimeout = 5 * time.Second
	// idleTimeout is how long a server keeps an idle keep-alive connection.
	idleTimeout = 60 * time.Second
	// poolSize bounds the client transport's connections per host, busy
	// and idle alike. Unbounded, the pool grows with the processes'
	// concurrency: on remote-d025 (2 vCPUs) peak RSS rose by about 16 %
	// and the clock slowed, while bounds from 4 to 128 measured alike.
	poolSize = 32
)

// transport is the keep-alive pool every Client shares. Its idle timeout
// is below the server's: net/http does not retry a POST on a pooled
// connection the server has already closed.
var transport = func() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxConnsPerHost = poolSize
	t.MaxIdleConnsPerHost = poolSize
	t.IdleConnTimeout = idleTimeout / 2
	return t
}()

// Server is an http.Server serving one loopback listener.
type Server struct {
	http *http.Server
	url  string

	mu       sync.Mutex
	closing  bool
	fresh    map[net.Conn]struct{} // accepted, no request byte read yet
	accepted int                   // connections accepted, for the pool's tests
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
		IdleTimeout:  idleTimeout,
		ConnState:    s.track,
	}
	go func() { _ = s.http.Serve(ln) }()
	return s, nil
}

// URL returns the base URL, e.g. "http://127.0.0.1:39113".
func (s *Server) URL() string { return s.url }

// track counts accepted connections and records which are still in
// http.StateNew; once Close has begun, a newly accepted connection is
// closed at once.
func (s *Server) track(c net.Conn, state http.ConnState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if state != http.StateNew {
		delete(s.fresh, c)
		return
	}
	s.accepted++
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

// Op answers one operation on a resolved target: it reads the request
// body and appends its XML answer to dst.
type Op[T any] func(target T, body, dst []byte) ([]byte, error)

// ParseBody parses a request body for the operations that need a tree. Its
// error is answered as 400 "parse: …".
func ParseBody(body []byte) (*x.Node, error) {
	doc, err := x.ParseBytes(body)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	return doc, nil
}

// Mux dispatches POST /<Prefix>/<name>/<op> to Ops[op] on the target
// Lookup(name) resolves. In order it: routes (405 for other methods, 404
// for bad paths, unknown names and unknown operations); refuses a body
// declared over MaxBody bytes (413) and reads at most MaxBody; sleeps
// Delay, after the read so a departed client cancels it; consults the
// fault plan on endpoint <Prefix>/<lower(name)> unless the operation is
// Exempt; runs the operation; and writes its XML answer. Operation errors
// answer 503 when they wrap a *fault.TransientError (retryable) and 400
// otherwise.
type Mux[T any] struct {
	Prefix  string
	MaxBody int64
	Delay   time.Duration
	Exempt  map[string]bool
	Lookup  func(name string) (T, error)
	Ops     map[string]Op[T]

	plan atomic.Pointer[fault.Plan]
}

// answerPool recycles the buffers operations append their answers to.
var answerPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

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
	bp := answerPool.Get().(*[]byte)
	defer answerPool.Put(bp)
	answer, err := op(target, body, (*bp)[:0])
	if err != nil {
		status := http.StatusBadRequest
		var te *fault.TransientError
		if errors.As(err, &te) {
			status = http.StatusServiceUnavailable
		}
		http.Error(w, err.Error(), status)
		return
	}
	*bp = answer[:0]
	w.Header().Set("Content-Type", "application/xml")
	_, _ = w.Write(answer) // a failed write means the client left
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

// NewClient creates a client for one endpoint on the shared keep-alive
// pool. label prefixes every error; timeout bounds each whole exchange.
func NewClient(base, prefix, name, label string, timeout time.Duration) Client {
	return Client{base: base, prefix: prefix, name: name, label: label,
		http: http.Client{Transport: transport, Timeout: timeout}}
}

// Post sends the XML body to op under the context (stamping the context's
// caller, see fault.CallerHeader) and returns the XML answer. Non-200
// answers surface as a wrapped *fault.HTTPStatusError so the resilience
// layer can classify 5xx answers as transient.
func (c *Client) Post(ctx context.Context, op string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.base+"/"+c.prefix+"/"+c.name+"/"+op, bytes.NewReader(body))
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
	answer, err := readBody(resp.Body, resp.ContentLength)
	_ = resp.Body.Close()
	if err != nil {
		return nil, c.fail(op, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, c.fail(op, &fault.HTTPStatusError{Status: resp.StatusCode, Body: strings.TrimSpace(string(answer))})
	}
	return answer, nil
}

func (c *Client) fail(op string, err error) error {
	return fmt.Errorf("%s: %s %s: %w", c.label, c.name, op, err)
}

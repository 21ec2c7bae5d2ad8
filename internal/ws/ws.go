// Package ws implements the web-service substrate of the DIPBench
// scenario: the three Asian source systems Beijing, Seoul and Hongkong are
// "simply data sources hidden by Web services". Each Service fronts a
// relational database instance and exposes two operations over HTTP:
//
//	POST /ws/<service>/query   body <Query table="T"/>      -> ResultSet XML
//	POST /ws/<service>/update  body ResultSet or entity XML -> <OK/>
//
// Services run on a real loopback net/http server so that the
// communication-cost category Cc of the benchmark's cost model measures
// genuine request/response round trips. An optional artificial delay per
// call models a slower network.
package ws

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/httpsrv"
	rel "repro/internal/relational"
	x "repro/internal/xmlmsg"
)

// MessageHandler processes a service-specific entity message posted to the
// update operation (e.g. the SKCustomer master-data message Seoul accepts
// in process P01).
type MessageHandler func(doc *x.Node) error

// Service is one hosted web service.
type Service struct {
	name string
	db   *rel.Database

	mu       sync.RWMutex
	handlers map[string]MessageHandler

	queries uint64
	updates uint64
}

// NewService wraps a database instance as a web service.
func NewService(name string, db *rel.Database) *Service {
	return &Service{name: name, db: db, handlers: make(map[string]MessageHandler)}
}

// Name returns the service name.
func (s *Service) Name() string { return s.name }

// Database exposes the backing instance for initialization.
func (s *Service) Database() *rel.Database { return s.db }

// HandleMessage registers a handler for entity messages with the given
// root element name.
func (s *Service) HandleMessage(rootName string, h MessageHandler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[rootName] = h
}

// Stats returns the cumulative query and update call counts.
func (s *Service) Stats() (queries, updates uint64) {
	return atomic.LoadUint64(&s.queries), atomic.LoadUint64(&s.updates)
}

// query executes the query operation.
func (s *Service) query(doc *x.Node) (*x.Node, error) {
	atomic.AddUint64(&s.queries, 1)
	if doc.Name != "Query" {
		return nil, fmt.Errorf("ws: query operation expects a Query document, got %s", doc.Name)
	}
	table := doc.Attr("table")
	t := s.db.Table(table)
	if t == nil {
		return nil, fmt.Errorf("ws: service %s has no table %q", s.name, table)
	}
	relation := t.Scan()
	return x.FromRelation(table, relation), nil
}

// update executes the update operation: either a bulk ResultSet upsert or
// a registered entity message.
func (s *Service) update(doc *x.Node) error {
	atomic.AddUint64(&s.updates, 1)
	if doc.Name == "ResultSet" {
		relation, err := x.ToRelation(doc)
		if err != nil {
			return err
		}
		table := doc.Attr("name")
		t := s.db.Table(table)
		if t == nil {
			return fmt.Errorf("ws: service %s has no table %q", s.name, table)
		}
		for i := 0; i < relation.Len(); i++ {
			if err := t.Upsert(relation.Row(i)); err != nil {
				return err
			}
		}
		return nil
	}
	s.mu.RLock()
	h := s.handlers[doc.Name]
	s.mu.RUnlock()
	if h == nil {
		return fmt.Errorf("ws: service %s has no handler for message %q", s.name, doc.Name)
	}
	return h(doc)
}

// Registry hosts multiple services under one HTTP server.
type Registry struct {
	mu       sync.RWMutex
	services map[string]*Service
	delay    time.Duration
	plan     *fault.Plan

	server  *httpsrv.Server
	baseURL string
}

// NewRegistry creates an empty registry with an artificial per-call delay
// (0 for loopback-only latency).
func NewRegistry(delay time.Duration) *Registry {
	return &Registry{services: make(map[string]*Service), delay: delay}
}

// Register adds a service; it replaces any previous service of that name.
func (r *Registry) Register(s *Service) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.services[strings.ToLower(s.name)] = s
}

// Service returns the named service or nil.
func (r *Registry) Service(name string) *Service {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.services[strings.ToLower(name)]
}

// SetFaultPlan installs (or, with nil, removes) the deterministic fault
// plan consulted before every dispatched request.
func (r *Registry) SetFaultPlan(p *fault.Plan) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.plan = p
}

// faultPlan returns the installed plan (possibly nil; Plan methods are
// nil-safe).
func (r *Registry) faultPlan() *fault.Plan {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.plan
}

// Start binds a loopback listener and serves until Stop. It returns the
// base URL, e.g. "http://127.0.0.1:39113".
func (r *Registry) Start() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("ws: listen: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/ws/", r.dispatch)
	r.baseURL = "http://" + ln.Addr().String()
	// Peer-protection timeouts: one hung client must not wedge the
	// application server (same defaults as the dbproto endpoint).
	r.server = httpsrv.Serve(ln, mux, httpsrv.Timeouts{
		Read: 15 * time.Second, Write: 30 * time.Second, Idle: 60 * time.Second,
	})
	return r.baseURL, nil
}

// BaseURL returns the server's base URL ("" before Start).
func (r *Registry) BaseURL() string { return r.baseURL }

// StopTimeout bounds the graceful drain Stop attempts before falling
// back to closing connections outright.
const StopTimeout = 5 * time.Second

// Stop shuts the HTTP server down gracefully: admission stops
// immediately, connections that never sent a request are closed, in-flight
// requests get up to StopTimeout to complete, then any stragglers are cut
// off. Safe to call more than once.
func (r *Registry) Stop() error {
	if r.server == nil {
		return nil
	}
	return r.server.Shutdown(StopTimeout)
}

// dispatch routes /ws/<service>/<op> requests.
func (r *Registry) dispatch(w http.ResponseWriter, req *http.Request) {
	// The artificial network delay honours the request context: a
	// departed client releases the handler goroutine immediately. net/http
	// only notices a departed client once the request body is consumed, so
	// the body is read first.
	body, err := io.ReadAll(io.LimitReader(req.Body, 64<<20))
	if err != nil {
		http.Error(w, "read: "+err.Error(), http.StatusBadRequest)
		return
	}
	if fault.Sleep(req.Context(), r.delay) != nil {
		return
	}
	if req.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	parts := strings.Split(strings.Trim(req.URL.Path, "/"), "/")
	if len(parts) != 3 {
		http.Error(w, "expected /ws/<service>/<operation>", http.StatusNotFound)
		return
	}
	svc := r.Service(parts[1])
	if svc == nil {
		http.Error(w, "unknown service "+parts[1], http.StatusNotFound)
		return
	}
	if !fault.InjectHTTP(w, req, r.faultPlan(), "ws/"+strings.ToLower(parts[1]), parts[2], body) {
		return
	}
	doc, err := x.ParseBytes(body)
	if err != nil {
		http.Error(w, "parse: "+err.Error(), http.StatusBadRequest)
		return
	}
	switch parts[2] {
	case "query":
		result, err := svc.query(doc)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/xml")
		_ = result.WriteXML(w)
	case "update":
		if err := svc.update(doc); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/xml")
		_, _ = io.WriteString(w, "<OK/>")
	default:
		http.Error(w, "unknown operation "+parts[2], http.StatusNotFound)
	}
}

// Client calls one service over HTTP.
type Client struct {
	baseURL string
	service string
	http    *http.Client
}

// NewClient creates a client for the named service at the registry's base
// URL.
func NewClient(baseURL, service string) *Client {
	return &Client{
		baseURL: baseURL,
		service: strings.ToLower(service),
		http:    &http.Client{Timeout: 30 * time.Second},
	}
}

// post sends a document under the context and returns the response body.
// Non-200 responses surface as a wrapped fault.HTTPStatusError so the
// resilience layer can classify 5xx answers as transient.
func (c *Client) post(ctx context.Context, op string, doc *x.Node) ([]byte, error) {
	var buf bytes.Buffer
	if err := doc.WriteXML(&buf); err != nil {
		return nil, err
	}
	url := fmt.Sprintf("%s/ws/%s/%s", c.baseURL, c.service, op)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, &buf)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/xml")
	if caller := fault.Caller(ctx); caller != "" {
		req.Header.Set(fault.CallerHeader, caller)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("ws: %s %s: %w", c.service, op, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("ws: %s %s: %w", c.service, op, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("ws: %s %s: %w", c.service, op,
			&fault.HTTPStatusError{Status: resp.StatusCode, Body: strings.TrimSpace(string(body))})
	}
	return body, nil
}

// QueryContext fetches a whole table as an XML result-set document.
func (c *Client) QueryContext(ctx context.Context, table string) (*x.Node, error) {
	body, err := c.post(ctx, "query", x.New("Query").SetAttr("table", table))
	if err != nil {
		return nil, err
	}
	return x.ParseBytes(body)
}

// Query is QueryContext under context.Background.
func (c *Client) Query(table string) (*x.Node, error) {
	return c.QueryContext(context.Background(), table)
}

// QueryRelationContext fetches a whole table materialized as a relation.
func (c *Client) QueryRelationContext(ctx context.Context, table string) (*rel.Relation, error) {
	doc, err := c.QueryContext(ctx, table)
	if err != nil {
		return nil, err
	}
	return x.ToRelation(doc)
}

// QueryRelation is QueryRelationContext under context.Background.
func (c *Client) QueryRelation(table string) (*rel.Relation, error) {
	return c.QueryRelationContext(context.Background(), table)
}

// UpdateContext posts a document (ResultSet bulk upsert or entity
// message) to the service's update operation.
func (c *Client) UpdateContext(ctx context.Context, doc *x.Node) error {
	_, err := c.post(ctx, "update", doc)
	return err
}

// Update is UpdateContext under context.Background.
func (c *Client) Update(doc *x.Node) error {
	return c.UpdateContext(context.Background(), doc)
}

// UpdateRelationContext bulk-upserts a relation into the named table.
func (c *Client) UpdateRelationContext(ctx context.Context, table string, r *rel.Relation) error {
	return c.UpdateContext(ctx, x.FromRelation(table, r))
}

// UpdateRelation is UpdateRelationContext under context.Background.
func (c *Client) UpdateRelation(table string, r *rel.Relation) error {
	return c.UpdateRelationContext(context.Background(), table, r)
}

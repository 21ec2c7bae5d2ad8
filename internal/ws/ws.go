// Package ws implements the web-service substrate of the DIPBench
// scenario: the three Asian source systems Beijing, Seoul and Hongkong are
// "simply data sources hidden by Web services". Each Service fronts a
// relational database instance and exposes two operations over HTTP:
//
//	POST /ws/<service>/query   body <Query table="T"/>      -> ResultSet XML
//	POST /ws/<service>/update  body ResultSet or entity XML -> <OK/>
//
// The package is the XML codec of these two operations; transport,
// routing, fault injection and the artificial per-call delay (a slower
// network) come from the loopback RPC substrate in internal/httpsrv, so
// the communication-cost category Cc of the benchmark's cost model
// measures genuine request/response round trips. Result sets travel
// through the xmlmsg result-set codec without a tree, and the client hands
// query answers on as bytes; Query requests and entity messages are parsed
// as trees.
package ws

import (
	"context"
	"fmt"
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
func (s *Service) query(body, dst []byte) ([]byte, error) {
	doc, err := httpsrv.ParseBody(body)
	if err != nil {
		return nil, err
	}
	atomic.AddUint64(&s.queries, 1)
	if doc.Name != "Query" {
		return nil, fmt.Errorf("ws: query operation expects a Query document, got %s", doc.Name)
	}
	table := doc.Attr("table")
	t := s.db.Table(table)
	if t == nil {
		return nil, fmt.Errorf("ws: service %s has no table %q", s.name, table)
	}
	return x.AppendResultSet(dst, table, t.Scan()), nil
}

// update executes the update operation: either a bulk ResultSet upsert or
// a registered entity message.
func (s *Service) update(body []byte) error {
	if table, relation, rest, ok := x.ScanResultSet(string(body)); ok && rest == "" {
		atomic.AddUint64(&s.updates, 1)
		return s.upsert(table, relation)
	}
	doc, err := httpsrv.ParseBody(body)
	if err != nil {
		return err
	}
	atomic.AddUint64(&s.updates, 1)
	if doc.Name == "ResultSet" {
		relation, err := x.ToRelation(doc)
		if err != nil {
			return err
		}
		return s.upsert(doc.Attr("name"), relation)
	}
	s.mu.RLock()
	h := s.handlers[doc.Name]
	s.mu.RUnlock()
	if h == nil {
		return fmt.Errorf("ws: service %s has no handler for message %q", s.name, doc.Name)
	}
	return h(doc)
}

// upsert writes a bulk ResultSet update into the named table.
func (s *Service) upsert(table string, relation *rel.Relation) error {
	t := s.db.Table(table)
	if t == nil {
		return fmt.Errorf("ws: service %s has no table %q", s.name, table)
	}
	for _, row := range relation.Rows() {
		if err := t.Upsert(row); err != nil {
			return err
		}
	}
	return nil
}

// Registry hosts multiple services under one HTTP server.
type Registry struct {
	mu       sync.RWMutex
	services map[string]*Service

	mux    *httpsrv.Mux[*Service]
	server *httpsrv.Server
}

// NewRegistry creates an empty registry with an artificial per-call delay
// (0 for loopback-only latency).
func NewRegistry(delay time.Duration) *Registry {
	r := &Registry{services: make(map[string]*Service)}
	r.mux = &httpsrv.Mux[*Service]{
		Prefix:  "ws",
		MaxBody: 64 << 20,
		Delay:   delay,
		Lookup: func(name string) (*Service, error) {
			if s := r.Service(name); s != nil {
				return s, nil
			}
			return nil, fmt.Errorf("unknown service %s", name)
		},
		Ops: map[string]httpsrv.Op[*Service]{
			"query": (*Service).query,
			"update": func(s *Service, body, dst []byte) ([]byte, error) {
				if err := s.update(body); err != nil {
					return nil, err
				}
				return append(dst, "<OK></OK>"...), nil
			},
		},
	}
	return r
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
func (r *Registry) SetFaultPlan(p *fault.Plan) { r.mux.SetFaultPlan(p) }

// Start binds a loopback listener and serves until Stop. It returns the
// base URL, e.g. "http://127.0.0.1:39113".
func (r *Registry) Start() (string, error) {
	srv, err := httpsrv.Listen(r.mux)
	if err != nil {
		return "", fmt.Errorf("ws: listen: %w", err)
	}
	r.server = srv
	return srv.URL(), nil
}

// Stop shuts the HTTP server down gracefully (see httpsrv.Server.Close).
// Safe to call more than once.
func (r *Registry) Stop() error {
	if r.server == nil {
		return nil
	}
	return r.server.Close()
}

// Client calls one service over HTTP.
type Client struct{ rpc httpsrv.Client }

// NewClient creates a client for the named service at the registry's base
// URL.
func NewClient(baseURL, service string) *Client {
	return &Client{rpc: httpsrv.NewClient(baseURL, "ws", strings.ToLower(service), "ws", 30*time.Second)}
}

// QueryContext fetches a whole table as the bytes of an XML result-set
// document.
func (c *Client) QueryContext(ctx context.Context, table string) ([]byte, error) {
	return c.rpc.Post(ctx, "query", x.New("Query").SetAttr("table", table).AppendXML(nil))
}

// Query is QueryContext under context.Background.
func (c *Client) Query(table string) ([]byte, error) {
	return c.QueryContext(context.Background(), table)
}

// QueryRelationContext fetches a whole table materialized as a relation.
func (c *Client) QueryRelationContext(ctx context.Context, table string) (*rel.Relation, error) {
	answer, err := c.QueryContext(ctx, table)
	if err != nil {
		return nil, err
	}
	_, r, err := x.DecodeResultSet(answer)
	return r, err
}

// QueryRelation is QueryRelationContext under context.Background.
func (c *Client) QueryRelation(table string) (*rel.Relation, error) {
	return c.QueryRelationContext(context.Background(), table)
}

// UpdateContext posts a serialized document (ResultSet bulk upsert or
// entity message) to the service's update operation.
func (c *Client) UpdateContext(ctx context.Context, msg []byte) error {
	_, err := c.rpc.Post(ctx, "update", msg)
	return err
}

// Update is UpdateContext under context.Background.
func (c *Client) Update(msg []byte) error {
	return c.UpdateContext(context.Background(), msg)
}

// UpdateRelationContext bulk-upserts a relation into the named table.
func (c *Client) UpdateRelationContext(ctx context.Context, table string, r *rel.Relation) error {
	return c.UpdateContext(ctx, x.AppendResultSet(nil, table, r))
}

// UpdateRelation is UpdateRelationContext under context.Background.
func (c *Client) UpdateRelation(table string, r *rel.Relation) error {
	return c.UpdateRelationContext(context.Background(), table, r)
}

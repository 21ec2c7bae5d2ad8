// Package dbproto exposes a relational server over HTTP — the remote
// database protocol that lets the benchmark reproduce the paper's
// three-machine environment setup faithfully: the external systems (ES)
// live behind a network boundary, so every database round trip of the
// integration system is a genuine request/response exchange and the
// communication-cost category Cc measures real wire time.
//
// Wire format (all POST, XML bodies):
//
//	/db/<instance>/query    <Query table="T" where="SQL predicate"/>   -> ResultSet
//	/db/<instance>/insert   ResultSet (name = table)                   -> <Affected n=""/>
//	/db/<instance>/upsert   ResultSet (name = table)                   -> <Affected n=""/>
//	/db/<instance>/delete   <Delete table="T" where="..."/>            -> <Affected n=""/>
//	/db/<instance>/update   <Update table="T" where="...">
//	                          <Set col="C" type="BIGINT">42</Set>...    -> <Affected n=""/>
//	/db/<instance>/call     <Call proc="P"><Arg type="...">v</Arg>...   -> ResultSet
//	/db/<instance>/querysince <QuerySince table="T" since="12"/>        -> Delta
//	                          (Delta = from/to/reset attrs + inserts/
//	                           updates/deletes ResultSets)
//	/db/<instance>/snapshot <Snapshot/>           -> <Snapshot enc="base64">blob</Snapshot>
//	/db/<instance>/restore  <Restore enc="base64">blob</Restore>        -> <Affected n=""/>
//	                        (blob = relational snapshot codec, used by
//	                         crash-recovery checkpoints)
//
// Predicates travel as their SQL text (relational.ParsePredicate); typed
// scalars as text with a type attribute (relational.ParseValue).
package dbproto

import (
	"bytes"
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/httpsrv"
	rel "repro/internal/relational"
	x "repro/internal/xmlmsg"
)

// Timeouts bounds how long the endpoint waits on a single connection;
// they protect the server from hung or slow-drip peers.
type Timeouts struct {
	Read  time.Duration // full-request read deadline
	Write time.Duration // response write deadline
	Idle  time.Duration // keep-alive idle deadline
}

// DefaultTimeouts returns the endpoint's standard peer-protection
// deadlines.
func DefaultTimeouts() Timeouts {
	return Timeouts{Read: 15 * time.Second, Write: 30 * time.Second, Idle: 60 * time.Second}
}

// withDefaults fills unset fields from DefaultTimeouts.
func (t Timeouts) withDefaults() Timeouts {
	d := DefaultTimeouts()
	if t.Read <= 0 {
		t.Read = d.Read
	}
	if t.Write <= 0 {
		t.Write = d.Write
	}
	if t.Idle <= 0 {
		t.Idle = d.Idle
	}
	return t
}

// Remote is a running database protocol endpoint.
type Remote struct {
	server   *rel.Server
	http     *httpsrv.Server
	baseURL  string
	timeouts Timeouts

	mu   sync.RWMutex
	plan *fault.Plan
}

// Serve binds a loopback listener for the relational server with the
// default peer-protection timeouts and starts answering protocol
// requests.
func Serve(server *rel.Server) (*Remote, error) {
	return ServeWith(server, DefaultTimeouts())
}

// ServeWith is Serve with explicit connection timeouts (zero fields fall
// back to the defaults).
func ServeWith(server *rel.Server, to Timeouts) (*Remote, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("dbproto: listen: %w", err)
	}
	to = to.withDefaults()
	r := &Remote{server: server, baseURL: "http://" + ln.Addr().String(), timeouts: to}
	mux := http.NewServeMux()
	mux.HandleFunc("/db/", r.dispatch)
	r.http = httpsrv.Serve(ln, mux, httpsrv.Timeouts{Read: to.Read, Write: to.Write, Idle: to.Idle})
	return r, nil
}

// Timeouts returns the endpoint's effective connection deadlines.
func (r *Remote) Timeouts() Timeouts { return r.timeouts }

// SetFaultPlan installs (or, with nil, removes) the deterministic fault
// plan consulted before every dispatched request.
func (r *Remote) SetFaultPlan(p *fault.Plan) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.plan = p
}

// faultPlan returns the installed plan (possibly nil; Plan methods are
// nil-safe).
func (r *Remote) faultPlan() *fault.Plan {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.plan
}

// BaseURL returns the endpoint's base URL.
func (r *Remote) BaseURL() string { return r.baseURL }

// CloseTimeout bounds the graceful drain Close attempts before falling
// back to closing connections outright.
const CloseTimeout = 5 * time.Second

// Close shuts the endpoint down gracefully: the listener stops accepting
// immediately, connections that never sent a request are closed, in-flight
// protocol requests get up to CloseTimeout to finish (a half-written
// snapshot response would otherwise corrupt a checkpoint read), then
// stragglers are cut off. Safe to call more than once.
func (r *Remote) Close() error {
	return r.http.Shutdown(CloseTimeout)
}

// dispatch routes /db/<instance>/<op>.
func (r *Remote) dispatch(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	parts := strings.Split(strings.Trim(req.URL.Path, "/"), "/")
	if len(parts) != 3 {
		http.Error(w, "expected /db/<instance>/<operation>", http.StatusNotFound)
		return
	}
	conn, err := r.server.Connect(parts[1])
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	body, err := io.ReadAll(io.LimitReader(req.Body, 128<<20))
	if err != nil {
		http.Error(w, "read: "+err.Error(), http.StatusBadRequest)
		return
	}
	// The durability plane is exempt from injection: snapshot and restore
	// are the harness's own checkpoint traffic, not benchmark workload —
	// the in-process gateway never injects on them either — and letting
	// them consume fault-plan occurrences would shift the workload's
	// deterministic draws with the checkpoint cadence.
	if parts[2] != "snapshot" && parts[2] != "restore" {
		if !fault.InjectHTTP(w, req, r.faultPlan(), "db/"+strings.ToLower(parts[1]), parts[2], body) {
			return
		}
	}
	doc, err := x.Parse(bytes.NewReader(body))
	if err != nil {
		http.Error(w, "parse: "+err.Error(), http.StatusBadRequest)
		return
	}
	var result *x.Node
	switch parts[2] {
	case "query":
		result, err = handleQuery(conn, doc)
	case "querysince":
		result, err = handleQuerySince(conn, doc)
	case "insert":
		result, err = handleLoad(conn, doc, false)
	case "upsert":
		result, err = handleLoad(conn, doc, true)
	case "delete":
		result, err = handleDelete(conn, doc)
	case "update":
		result, err = handleUpdate(conn, doc)
	case "call":
		result, err = handleCall(conn, doc)
	case "snapshot":
		result, err = handleSnapshot(conn, doc)
	case "restore":
		result, err = handleRestore(conn, doc)
	default:
		http.Error(w, "unknown operation "+parts[2], http.StatusNotFound)
		return
	}
	if err != nil {
		// Injected store faults are transient unavailability, not protocol
		// misuse — answer 503 so clients classify and retry them.
		var te *fault.TransientError
		if errors.As(err, &te) {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/xml")
	_ = result.WriteXML(w)
}

// parseWhere parses the optional where attribute; absent means all rows.
func parseWhere(doc *x.Node) (rel.Predicate, error) {
	where := doc.Attr("where")
	if where == "" {
		return rel.True(), nil
	}
	return rel.ParsePredicate(where)
}

func handleQuery(conn *rel.Conn, doc *x.Node) (*x.Node, error) {
	if doc.Name != "Query" {
		return nil, fmt.Errorf("dbproto: query expects a Query document")
	}
	pred, err := parseWhere(doc)
	if err != nil {
		return nil, err
	}
	relation, err := conn.Query(doc.Attr("table"), pred)
	if err != nil {
		return nil, err
	}
	return x.FromRelation(doc.Attr("table"), relation), nil
}

func handleQuerySince(conn *rel.Conn, doc *x.Node) (*x.Node, error) {
	if doc.Name != "QuerySince" {
		return nil, fmt.Errorf("dbproto: querysince expects a QuerySince document")
	}
	since, err := strconv.ParseUint(doc.Attr("since"), 10, 64)
	if err != nil {
		return nil, fmt.Errorf("dbproto: querysince: bad since attribute: %w", err)
	}
	d, err := conn.QuerySince(doc.Attr("table"), since)
	if err != nil {
		return nil, err
	}
	return encodeDelta(d), nil
}

// encodeDelta renders a net change set as a Delta document carrying one
// result set per image class. Values travel in the exact textual form
// String/ParseValue round-trip, so deltas stay bit-identical across the
// wire.
func encodeDelta(d *rel.Delta) *x.Node {
	doc := x.New("Delta").
		SetAttr("table", d.Table).
		SetAttr("from", strconv.FormatUint(d.From, 10)).
		SetAttr("to", strconv.FormatUint(d.To, 10))
	if d.Reset {
		doc.SetAttr("reset", "true")
	}
	doc.Add(x.FromRelation("inserts", d.Inserts))
	doc.Add(x.FromRelation("updates", d.Updates))
	doc.Add(x.FromRelation("deletes", d.Deletes))
	return doc
}

// decodeDelta parses a Delta document back into a rel.Delta.
func decodeDelta(doc *x.Node) (*rel.Delta, error) {
	if doc.Name != "Delta" {
		return nil, fmt.Errorf("dbproto: unexpected response %s", doc.Name)
	}
	from, err := strconv.ParseUint(doc.Attr("from"), 10, 64)
	if err != nil {
		return nil, fmt.Errorf("dbproto: delta from: %w", err)
	}
	to, err := strconv.ParseUint(doc.Attr("to"), 10, 64)
	if err != nil {
		return nil, fmt.Errorf("dbproto: delta to: %w", err)
	}
	d := &rel.Delta{
		Table: doc.Attr("table"), From: from, To: to,
		Reset: doc.Attr("reset") == "true",
	}
	for _, rs := range doc.ChildrenNamed("ResultSet") {
		r, err := x.ToRelation(rs)
		if err != nil {
			return nil, err
		}
		switch rs.Attr("name") {
		case "inserts":
			d.Inserts = r
		case "updates":
			d.Updates = r
		case "deletes":
			d.Deletes = r
		default:
			return nil, fmt.Errorf("dbproto: delta with unknown result set %q", rs.Attr("name"))
		}
	}
	if d.Inserts == nil || d.Updates == nil || d.Deletes == nil {
		return nil, fmt.Errorf("dbproto: incomplete delta document")
	}
	return d, nil
}

func handleLoad(conn *rel.Conn, doc *x.Node, upsert bool) (*x.Node, error) {
	if doc.Name != "ResultSet" {
		return nil, fmt.Errorf("dbproto: load expects a ResultSet document")
	}
	relation, err := x.ToRelation(doc)
	if err != nil {
		return nil, err
	}
	table := doc.Attr("name")
	if upsert {
		err = conn.UpsertBulk(table, relation)
	} else {
		err = conn.InsertBulk(table, relation)
	}
	if err != nil {
		return nil, err
	}
	return affected(relation.Len()), nil
}

func handleDelete(conn *rel.Conn, doc *x.Node) (*x.Node, error) {
	if doc.Name != "Delete" {
		return nil, fmt.Errorf("dbproto: delete expects a Delete document")
	}
	pred, err := parseWhere(doc)
	if err != nil {
		return nil, err
	}
	n, err := conn.Delete(doc.Attr("table"), pred)
	if err != nil {
		return nil, err
	}
	return affected(n), nil
}

func handleUpdate(conn *rel.Conn, doc *x.Node) (*x.Node, error) {
	if doc.Name != "Update" {
		return nil, fmt.Errorf("dbproto: update expects an Update document")
	}
	pred, err := parseWhere(doc)
	if err != nil {
		return nil, err
	}
	table := doc.Attr("table")
	t := conn.Database().Table(table)
	if t == nil {
		return nil, fmt.Errorf("dbproto: no table %q", table)
	}
	type assignment struct {
		ordinal int
		val     rel.Value
	}
	var assigns []assignment
	for _, set := range doc.ChildrenNamed("Set") {
		col := set.Attr("col")
		o := t.Schema().Ordinal(col)
		if o < 0 {
			return nil, fmt.Errorf("dbproto: no column %q", col)
		}
		v, err := decodeValue(set)
		if err != nil {
			return nil, err
		}
		assigns = append(assigns, assignment{o, v})
	}
	n, err := conn.Update(table, pred, func(row rel.Row) rel.Row {
		for _, a := range assigns {
			row[a.ordinal] = a.val
		}
		return row
	})
	if err != nil {
		return nil, err
	}
	return affected(n), nil
}

func handleCall(conn *rel.Conn, doc *x.Node) (*x.Node, error) {
	if doc.Name != "Call" {
		return nil, fmt.Errorf("dbproto: call expects a Call document")
	}
	var args []rel.Value
	for _, arg := range doc.ChildrenNamed("Arg") {
		v, err := decodeValue(arg)
		if err != nil {
			return nil, err
		}
		args = append(args, v)
	}
	result, err := conn.Call(doc.Attr("proc"), args...)
	if err != nil {
		return nil, err
	}
	if result == nil {
		return affected(0), nil
	}
	return x.FromRelation("result", result), nil
}

// decodeValue decodes a typed scalar element (<... type="BIGINT">42</...>).
func decodeValue(n *x.Node) (rel.Value, error) {
	if n.Attr("null") == "true" {
		return rel.Null, nil
	}
	t, err := rel.ParseTypeName(n.Attr("type"))
	if err != nil {
		return rel.Null, err
	}
	return rel.ParseValue(t, n.Text)
}

// encodeValue encodes a typed scalar element.
func encodeValue(name string, v rel.Value) *x.Node {
	el := x.NewText(name, v.String())
	if v.IsNull() {
		el.Text = ""
		el.SetAttr("null", "true")
		return el
	}
	el.SetAttr("type", v.Type().String())
	return el
}

func affected(n int) *x.Node {
	return x.New("Affected").SetAttr("n", strconv.Itoa(n))
}

// handleSnapshot serializes the whole instance with the relational
// snapshot codec; the binary blob travels base64-encoded in the element
// text, keeping the wire format XML end to end.
func handleSnapshot(conn *rel.Conn, doc *x.Node) (*x.Node, error) {
	if doc.Name != "Snapshot" {
		return nil, fmt.Errorf("dbproto: snapshot expects a Snapshot document")
	}
	blob, err := conn.Snapshot()
	if err != nil {
		return nil, err
	}
	out := x.NewText("Snapshot", base64.StdEncoding.EncodeToString(blob))
	out.SetAttr("enc", "base64")
	return out, nil
}

// handleRestore replaces the instance's contents with a snapshot blob.
func handleRestore(conn *rel.Conn, doc *x.Node) (*x.Node, error) {
	if doc.Name != "Restore" {
		return nil, fmt.Errorf("dbproto: restore expects a Restore document")
	}
	if enc := doc.Attr("enc"); enc != "base64" {
		return nil, fmt.Errorf("dbproto: restore: unsupported encoding %q", enc)
	}
	blob, err := base64.StdEncoding.DecodeString(strings.TrimSpace(doc.Text))
	if err != nil {
		return nil, fmt.Errorf("dbproto: restore: %w", err)
	}
	n, err := conn.Restore(blob)
	if err != nil {
		return nil, err
	}
	return affected(n), nil
}

// Client talks to one instance through the protocol.
type Client struct {
	baseURL  string
	instance string
	http     *http.Client
}

// NewClient creates a protocol client for one database instance.
func NewClient(baseURL, instance string) *Client {
	return &Client{baseURL: baseURL, instance: instance,
		http: &http.Client{Timeout: 60 * time.Second}}
}

// post sends a document under the context and parses the XML response.
// Non-200 responses surface as a wrapped fault.HTTPStatusError so the
// resilience layer can classify 5xx answers as transient.
func (c *Client) post(ctx context.Context, op string, doc *x.Node) (*x.Node, error) {
	var buf bytes.Buffer
	if err := doc.WriteXML(&buf); err != nil {
		return nil, err
	}
	url := fmt.Sprintf("%s/db/%s/%s", c.baseURL, c.instance, op)
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
		return nil, fmt.Errorf("dbproto: %s %s: %w", c.instance, op, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("dbproto: %s %s: %w", c.instance, op, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("dbproto: %s %s: %w", c.instance, op,
			&fault.HTTPStatusError{Status: resp.StatusCode, Body: strings.TrimSpace(string(body))})
	}
	return x.Parse(bytes.NewReader(body))
}

// QueryContext reads matching rows of a table.
func (c *Client) QueryContext(ctx context.Context, table string, pred rel.Predicate) (*rel.Relation, error) {
	q := x.New("Query").SetAttr("table", table)
	if pred != nil {
		q.SetAttr("where", pred.String())
	}
	doc, err := c.post(ctx, "query", q)
	if err != nil {
		return nil, err
	}
	return x.ToRelation(doc)
}

// Query is QueryContext under context.Background.
func (c *Client) Query(table string, pred rel.Predicate) (*rel.Relation, error) {
	return c.QueryContext(context.Background(), table, pred)
}

// QuerySinceContext reads the net changes of a table after a watermark.
// An unserveable watermark comes back as a Reset delta with a full
// snapshot, mirroring Conn.QuerySince.
func (c *Client) QuerySinceContext(ctx context.Context, table string, since uint64) (*rel.Delta, error) {
	q := x.New("QuerySince").
		SetAttr("table", table).
		SetAttr("since", strconv.FormatUint(since, 10))
	doc, err := c.post(ctx, "querysince", q)
	if err != nil {
		return nil, err
	}
	return decodeDelta(doc)
}

// QuerySince is QuerySinceContext under context.Background.
func (c *Client) QuerySince(table string, since uint64) (*rel.Delta, error) {
	return c.QuerySinceContext(context.Background(), table, since)
}

// InsertContext appends the relation to the table.
func (c *Client) InsertContext(ctx context.Context, table string, r *rel.Relation) error {
	_, err := c.post(ctx, "insert", x.FromRelation(table, r))
	return err
}

// Insert is InsertContext under context.Background.
func (c *Client) Insert(table string, r *rel.Relation) error {
	return c.InsertContext(context.Background(), table, r)
}

// UpsertContext inserts-or-replaces the relation by primary key.
func (c *Client) UpsertContext(ctx context.Context, table string, r *rel.Relation) error {
	_, err := c.post(ctx, "upsert", x.FromRelation(table, r))
	return err
}

// Upsert is UpsertContext under context.Background.
func (c *Client) Upsert(table string, r *rel.Relation) error {
	return c.UpsertContext(context.Background(), table, r)
}

// DeleteContext removes matching rows and returns the count.
func (c *Client) DeleteContext(ctx context.Context, table string, pred rel.Predicate) (int, error) {
	d := x.New("Delete").SetAttr("table", table)
	if pred != nil {
		d.SetAttr("where", pred.String())
	}
	doc, err := c.post(ctx, "delete", d)
	if err != nil {
		return 0, err
	}
	return affectedCount(doc)
}

// Delete is DeleteContext under context.Background.
func (c *Client) Delete(table string, pred rel.Predicate) (int, error) {
	return c.DeleteContext(context.Background(), table, pred)
}

// UpdateContext sets columns on matching rows and returns the count. The
// Set elements are emitted in sorted column order so the wire body of a
// given logical update is byte-stable — the fault plan keys its decisions
// on a digest of the request body.
func (c *Client) UpdateContext(ctx context.Context, table string, pred rel.Predicate, set map[string]rel.Value) (int, error) {
	u := x.New("Update").SetAttr("table", table)
	if pred != nil {
		u.SetAttr("where", pred.String())
	}
	cols := make([]string, 0, len(set))
	for col := range set {
		cols = append(cols, col)
	}
	sort.Strings(cols)
	for _, col := range cols {
		u.Add(encodeValue("Set", set[col]).SetAttr("col", col))
	}
	doc, err := c.post(ctx, "update", u)
	if err != nil {
		return 0, err
	}
	return affectedCount(doc)
}

// Update is UpdateContext under context.Background.
func (c *Client) Update(table string, pred rel.Predicate, set map[string]rel.Value) (int, error) {
	return c.UpdateContext(context.Background(), table, pred, set)
}

// CallContext invokes a stored procedure.
func (c *Client) CallContext(ctx context.Context, proc string, args ...rel.Value) (*rel.Relation, error) {
	call := x.New("Call").SetAttr("proc", proc)
	for _, a := range args {
		call.Add(encodeValue("Arg", a))
	}
	doc, err := c.post(ctx, "call", call)
	if err != nil {
		return nil, err
	}
	if doc.Name == "Affected" {
		return nil, nil
	}
	return x.ToRelation(doc)
}

// Call is CallContext under context.Background.
func (c *Client) Call(proc string, args ...rel.Value) (*rel.Relation, error) {
	return c.CallContext(context.Background(), proc, args...)
}

// SnapshotContext serializes the remote instance to a snapshot blob.
func (c *Client) SnapshotContext(ctx context.Context) ([]byte, error) {
	doc, err := c.post(ctx, "snapshot", x.New("Snapshot"))
	if err != nil {
		return nil, err
	}
	if doc.Name != "Snapshot" {
		return nil, fmt.Errorf("dbproto: unexpected response %s", doc.Name)
	}
	blob, err := base64.StdEncoding.DecodeString(strings.TrimSpace(doc.Text))
	if err != nil {
		return nil, fmt.Errorf("dbproto: snapshot: %w", err)
	}
	return blob, nil
}

// Snapshot is SnapshotContext under context.Background.
func (c *Client) Snapshot() ([]byte, error) {
	return c.SnapshotContext(context.Background())
}

// RestoreContext replaces the remote instance's contents with a snapshot
// blob and returns the restored row count.
func (c *Client) RestoreContext(ctx context.Context, blob []byte) (int, error) {
	doc := x.NewText("Restore", base64.StdEncoding.EncodeToString(blob))
	doc.SetAttr("enc", "base64")
	resp, err := c.post(ctx, "restore", doc)
	if err != nil {
		return 0, err
	}
	return affectedCount(resp)
}

// Restore is RestoreContext under context.Background.
func (c *Client) Restore(blob []byte) (int, error) {
	return c.RestoreContext(context.Background(), blob)
}

func affectedCount(doc *x.Node) (int, error) {
	if doc.Name != "Affected" {
		return 0, fmt.Errorf("dbproto: unexpected response %s", doc.Name)
	}
	return strconv.Atoi(doc.Attr("n"))
}

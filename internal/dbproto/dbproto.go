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
//	/db/<instance>/snapshot <Snapshot/>           -> <Snapshot enc="base64">blob</Snapshot>
//	/db/<instance>/restore  <Restore enc="base64">blob</Restore>        -> <Affected n=""/>
//	                        (blob = relational snapshot codec, used by
//	                         crash-recovery checkpoints)
//
// Predicates travel as their SQL text (relational.ParsePredicate); typed
// scalars as text with a type attribute (relational.ParseValue). The
// package is the XML codec of these operations; transport, routing and
// fault injection come from the loopback RPC substrate in internal/httpsrv.
// Result sets, in bodies and answers alike, are written and read by the
// xmlmsg result-set codec without a tree; the small request documents are
// parsed as trees.
package dbproto

import (
	"context"
	"encoding/base64"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/fault"
	"repro/internal/httpsrv"
	rel "repro/internal/relational"
	x "repro/internal/xmlmsg"
)

// Remote is a running database protocol endpoint.
type Remote struct {
	mux  *httpsrv.Mux[*rel.Conn]
	http *httpsrv.Server
}

// Serve binds a loopback listener for the relational server and starts
// answering protocol requests.
func Serve(server *rel.Server) (*Remote, error) {
	r := &Remote{mux: &httpsrv.Mux[*rel.Conn]{
		Prefix:  "db",
		MaxBody: 128 << 20,
		// The durability plane is exempt from injection: snapshot and
		// restore are the harness's own checkpoint traffic, not benchmark
		// workload — the in-process gateway never injects on them either —
		// and letting them consume fault-plan occurrences would shift the
		// workload's deterministic draws with the checkpoint cadence.
		Exempt: map[string]bool{"snapshot": true, "restore": true},
		Lookup: server.Connect,
		Ops: map[string]httpsrv.Op[*rel.Conn]{
			"query":    opQuery,
			"insert":   func(c *rel.Conn, body, dst []byte) ([]byte, error) { return opLoad(c, body, dst, false) },
			"upsert":   func(c *rel.Conn, body, dst []byte) ([]byte, error) { return opLoad(c, body, dst, true) },
			"delete":   opDelete,
			"update":   opUpdate,
			"call":     opCall,
			"snapshot": opSnapshot,
			"restore":  opRestore,
		},
	}}
	srv, err := httpsrv.Listen(r.mux)
	if err != nil {
		return nil, fmt.Errorf("dbproto: listen: %w", err)
	}
	r.http = srv
	return r, nil
}

// SetFaultPlan installs (or, with nil, removes) the deterministic fault
// plan consulted before every dispatched request.
func (r *Remote) SetFaultPlan(p *fault.Plan) { r.mux.SetFaultPlan(p) }

// BaseURL returns the endpoint's base URL.
func (r *Remote) BaseURL() string { return r.http.URL() }

// Close shuts the endpoint down gracefully (see httpsrv.Server.Close).
// Safe to call more than once.
func (r *Remote) Close() error { return r.http.Close() }

// parseWhere parses the optional where attribute; absent means all rows.
func parseWhere(doc *x.Node) (rel.Predicate, error) {
	where := doc.Attr("where")
	if where == "" {
		return rel.True(), nil
	}
	return rel.ParsePredicate(where)
}

func opQuery(conn *rel.Conn, body, dst []byte) ([]byte, error) {
	doc, err := httpsrv.ParseBody(body)
	if err != nil {
		return nil, err
	}
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
	return x.AppendResultSet(dst, doc.Attr("table"), relation), nil
}

func opLoad(conn *rel.Conn, body, dst []byte, upsert bool) ([]byte, error) {
	table, relation, rest, ok := x.ScanResultSet(string(body))
	if !ok || rest != "" {
		doc, err := httpsrv.ParseBody(body)
		if err != nil {
			return nil, err
		}
		if doc.Name != "ResultSet" {
			return nil, fmt.Errorf("dbproto: load expects a ResultSet document")
		}
		if relation, err = x.ToRelation(doc); err != nil {
			return nil, err
		}
		table = doc.Attr("name")
	}
	var err error
	if upsert {
		err = conn.UpsertBulk(table, relation)
	} else {
		err = conn.InsertBulk(table, relation)
	}
	if err != nil {
		return nil, err
	}
	return appendAffected(dst, relation.Len()), nil
}

func opDelete(conn *rel.Conn, body, dst []byte) ([]byte, error) {
	doc, err := httpsrv.ParseBody(body)
	if err != nil {
		return nil, err
	}
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
	return appendAffected(dst, n), nil
}

func opUpdate(conn *rel.Conn, body, dst []byte) ([]byte, error) {
	doc, err := httpsrv.ParseBody(body)
	if err != nil {
		return nil, err
	}
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
	return appendAffected(dst, n), nil
}

func opCall(conn *rel.Conn, body, dst []byte) ([]byte, error) {
	doc, err := httpsrv.ParseBody(body)
	if err != nil {
		return nil, err
	}
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
		return appendAffected(dst, 0), nil
	}
	return x.AppendResultSet(dst, "result", result), nil
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

// appendAffected appends the <Affected n=""/> answer.
func appendAffected(dst []byte, n int) []byte {
	dst = append(dst, `<Affected n="`...)
	dst = strconv.AppendInt(dst, int64(n), 10)
	return append(dst, `"></Affected>`...)
}

// opSnapshot serializes the whole instance with the relational snapshot
// codec; the binary blob travels base64-encoded in the element text,
// keeping the wire format XML end to end.
func opSnapshot(conn *rel.Conn, body, dst []byte) ([]byte, error) {
	doc, err := httpsrv.ParseBody(body)
	if err != nil {
		return nil, err
	}
	if doc.Name != "Snapshot" {
		return nil, fmt.Errorf("dbproto: snapshot expects a Snapshot document")
	}
	blob, err := conn.Snapshot()
	if err != nil {
		return nil, err
	}
	dst = append(dst, `<Snapshot enc="base64">`...)
	dst = base64.StdEncoding.AppendEncode(dst, blob)
	return append(dst, "</Snapshot>"...), nil
}

// opRestore replaces the instance's contents with a snapshot blob.
func opRestore(conn *rel.Conn, body, dst []byte) ([]byte, error) {
	doc, err := httpsrv.ParseBody(body)
	if err != nil {
		return nil, err
	}
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
	return appendAffected(dst, n), nil
}

// Client talks to one instance through the protocol.
type Client struct{ rpc httpsrv.Client }

// NewClient creates a protocol client for one database instance.
func NewClient(baseURL, instance string) *Client {
	return &Client{rpc: httpsrv.NewClient(baseURL, "db", instance, "dbproto", 60*time.Second)}
}

// QueryContext reads matching rows of a table.
func (c *Client) QueryContext(ctx context.Context, table string, pred rel.Predicate) (*rel.Relation, error) {
	q := x.New("Query").SetAttr("table", table)
	if pred != nil {
		q.SetAttr("where", pred.String())
	}
	answer, err := c.rpc.Post(ctx, "query", q.AppendXML(nil))
	if err != nil {
		return nil, err
	}
	_, r, err := x.DecodeResultSet(answer)
	return r, err
}

// Query is QueryContext under context.Background.
func (c *Client) Query(table string, pred rel.Predicate) (*rel.Relation, error) {
	return c.QueryContext(context.Background(), table, pred)
}

// InsertContext appends the relation to the table.
func (c *Client) InsertContext(ctx context.Context, table string, r *rel.Relation) error {
	_, err := c.rpc.Post(ctx, "insert", x.AppendResultSet(nil, table, r))
	return err
}

// Insert is InsertContext under context.Background.
func (c *Client) Insert(table string, r *rel.Relation) error {
	return c.InsertContext(context.Background(), table, r)
}

// UpsertContext inserts-or-replaces the relation by primary key.
func (c *Client) UpsertContext(ctx context.Context, table string, r *rel.Relation) error {
	_, err := c.rpc.Post(ctx, "upsert", x.AppendResultSet(nil, table, r))
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
	answer, err := c.rpc.Post(ctx, "delete", d.AppendXML(nil))
	if err != nil {
		return 0, err
	}
	return affectedCount(answer)
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
	answer, err := c.rpc.Post(ctx, "update", u.AppendXML(nil))
	if err != nil {
		return 0, err
	}
	return affectedCount(answer)
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
	answer, err := c.rpc.Post(ctx, "call", call.AppendXML(nil))
	if err != nil {
		return nil, err
	}
	if _, r, rest, ok := x.ScanResultSet(string(answer)); ok && rest == "" {
		return r, nil
	}
	doc, err := x.ParseBytes(answer)
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
	answer, err := c.rpc.Post(ctx, "snapshot", x.New("Snapshot").AppendXML(nil))
	if err != nil {
		return nil, err
	}
	doc, err := x.ParseBytes(answer)
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
	answer, err := c.rpc.Post(ctx, "restore", doc.AppendXML(nil))
	if err != nil {
		return 0, err
	}
	return affectedCount(answer)
}

// Restore is RestoreContext under context.Background.
func (c *Client) Restore(blob []byte) (int, error) {
	return c.RestoreContext(context.Background(), blob)
}

// affectedCount reads an <Affected n=""/> answer.
func affectedCount(answer []byte) (int, error) {
	doc, err := x.ParseBytes(answer)
	if err != nil {
		return 0, err
	}
	if doc.Name != "Affected" {
		return 0, fmt.Errorf("dbproto: unexpected response %s", doc.Name)
	}
	return strconv.Atoi(doc.Attr("n"))
}

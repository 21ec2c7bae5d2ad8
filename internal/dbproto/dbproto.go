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
// scalars as text with a type attribute (relational.ParseValue). The
// package is the XML codec of these operations; transport, routing and
// fault injection come from the loopback RPC substrate in internal/httpsrv.
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
			"query":      handleQuery,
			"querysince": handleQuerySince,
			"insert":     func(c *rel.Conn, doc *x.Node) (*x.Node, error) { return handleLoad(c, doc, false) },
			"upsert":     func(c *rel.Conn, doc *x.Node) (*x.Node, error) { return handleLoad(c, doc, true) },
			"delete":     handleDelete,
			"update":     handleUpdate,
			"call":       handleCall,
			"snapshot":   handleSnapshot,
			"restore":    handleRestore,
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
	doc, err := c.rpc.Post(ctx, "query", q)
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
	doc, err := c.rpc.Post(ctx, "querysince", q)
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
	_, err := c.rpc.Post(ctx, "insert", x.FromRelation(table, r))
	return err
}

// Insert is InsertContext under context.Background.
func (c *Client) Insert(table string, r *rel.Relation) error {
	return c.InsertContext(context.Background(), table, r)
}

// UpsertContext inserts-or-replaces the relation by primary key.
func (c *Client) UpsertContext(ctx context.Context, table string, r *rel.Relation) error {
	_, err := c.rpc.Post(ctx, "upsert", x.FromRelation(table, r))
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
	doc, err := c.rpc.Post(ctx, "delete", d)
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
	doc, err := c.rpc.Post(ctx, "update", u)
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
	doc, err := c.rpc.Post(ctx, "call", call)
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
	doc, err := c.rpc.Post(ctx, "snapshot", x.New("Snapshot"))
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
	resp, err := c.rpc.Post(ctx, "restore", doc)
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

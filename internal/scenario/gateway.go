package scenario

import (
	"context"
	"fmt"

	"repro/internal/fault"
	rel "repro/internal/relational"
	x "repro/internal/xmlmsg"
)

// Gateway implements mtm.External over the scenario topology: database
// systems are reached through server connections (paying the configured
// round-trip latency), web-service systems through real HTTP calls. The
// context carries the invoke deadline of the resilience layer; it is
// honoured on the genuine network paths (web services, remote database
// protocol) and ignored on the in-process store.
type Gateway struct {
	s *Scenario
}

// Gateway returns the external-system gateway of the topology.
func (s *Scenario) Gateway() *Gateway { return &Gateway{s: s} }

// esConn opens a connection to an in-process store instance, tagged with
// the calling process identity from the context so the fault hook keys
// its decision stream per caller.
func (g *Gateway) esConn(ctx context.Context, system string) (*rel.Conn, error) {
	conn, err := g.s.ES.Connect(system)
	if err != nil {
		return nil, err
	}
	return conn.SetCaller(fault.Caller(ctx)), nil
}

// Query implements mtm.External.
func (g *Gateway) Query(ctx context.Context, system, table string, pred rel.Predicate) (*rel.Relation, error) {
	if IsWebService(system) {
		// Web services ship whole tables; predicates apply client-side
		// (the generic result-set interface has no filter pushdown).
		r, err := g.s.WSClient(system).QueryRelationContext(ctx, table)
		if err != nil {
			return nil, err
		}
		if pred == nil {
			return r, nil
		}
		return r.Select(pred)
	}
	if g.s.remote != nil {
		return g.s.dbClient(system).QueryContext(ctx, table, pred)
	}
	conn, err := g.esConn(ctx, system)
	if err != nil {
		return nil, err
	}
	if pred == nil {
		pred = rel.True()
	}
	return conn.Query(table, pred)
}

// QuerySince implements mtm.DeltaSource: it reads the net changes of a
// table after the watermark. Web services have no change journal, so the
// degraded answer is a full fetch marked Reset with version 0 — the
// consumer rebuilds from scratch and never advances past the full path.
func (g *Gateway) QuerySince(ctx context.Context, system, table string, since uint64) (*rel.Delta, error) {
	if IsWebService(system) {
		r, err := g.s.WSClient(system).QueryRelationContext(ctx, table)
		if err != nil {
			return nil, err
		}
		return &rel.Delta{Table: table, From: since, Reset: true,
			Inserts: r, Updates: r.Empty(), Deletes: r.Empty()}, nil
	}
	if g.s.remote != nil {
		return g.s.dbClient(system).QuerySinceContext(ctx, table, since)
	}
	conn, err := g.esConn(ctx, system)
	if err != nil {
		return nil, err
	}
	return conn.QuerySince(table, since)
}

// FetchXML implements mtm.External.
func (g *Gateway) FetchXML(ctx context.Context, system, table string) ([]byte, error) {
	if IsWebService(system) {
		return g.s.WSClient(system).QueryContext(ctx, table)
	}
	if g.s.remote != nil {
		r, err := g.s.dbClient(system).QueryContext(ctx, table, nil)
		if err != nil {
			return nil, err
		}
		return x.AppendResultSet(nil, table, r), nil
	}
	// Databases can also serve XML result sets (export path).
	conn, err := g.esConn(ctx, system)
	if err != nil {
		return nil, err
	}
	r, err := conn.Scan(table)
	if err != nil {
		return nil, err
	}
	return x.AppendResultSet(nil, table, r), nil
}

// Insert implements mtm.External.
func (g *Gateway) Insert(ctx context.Context, system, table string, r *rel.Relation) error {
	if IsWebService(system) {
		return g.s.WSClient(system).UpdateRelationContext(ctx, table, r)
	}
	if g.s.remote != nil {
		return g.s.dbClient(system).InsertContext(ctx, table, r)
	}
	conn, err := g.esConn(ctx, system)
	if err != nil {
		return err
	}
	return conn.InsertBulk(table, r)
}

// Upsert implements mtm.External.
func (g *Gateway) Upsert(ctx context.Context, system, table string, r *rel.Relation) error {
	if IsWebService(system) {
		return g.s.WSClient(system).UpdateRelationContext(ctx, table, r)
	}
	if g.s.remote != nil {
		return g.s.dbClient(system).UpsertContext(ctx, table, r)
	}
	conn, err := g.esConn(ctx, system)
	if err != nil {
		return err
	}
	return conn.UpsertBulk(table, r)
}

// Delete implements mtm.External.
func (g *Gateway) Delete(ctx context.Context, system, table string, pred rel.Predicate) (int, error) {
	if IsWebService(system) {
		return 0, fmt.Errorf("scenario: web service %s does not support delete", system)
	}
	if g.s.remote != nil {
		return g.s.dbClient(system).DeleteContext(ctx, table, pred)
	}
	conn, err := g.esConn(ctx, system)
	if err != nil {
		return 0, err
	}
	if pred == nil {
		pred = rel.True()
	}
	return conn.Delete(table, pred)
}

// Update implements mtm.External.
func (g *Gateway) Update(ctx context.Context, system, table string, pred rel.Predicate, set map[string]rel.Value) (int, error) {
	if IsWebService(system) {
		return 0, fmt.Errorf("scenario: web service %s does not support update", system)
	}
	if g.s.remote != nil {
		return g.s.dbClient(system).UpdateContext(ctx, table, pred, set)
	}
	conn, err := g.esConn(ctx, system)
	if err != nil {
		return 0, err
	}
	if pred == nil {
		pred = rel.True()
	}
	// Resolve ordinals once against the table schema.
	db := conn.Database()
	t := db.Table(table)
	if t == nil {
		return 0, fmt.Errorf("scenario: no table %s.%s", system, table)
	}
	type assignment struct {
		ordinal int
		val     rel.Value
	}
	assigns := make([]assignment, 0, len(set))
	for col, val := range set {
		o := t.Schema().Ordinal(col)
		if o < 0 {
			return 0, fmt.Errorf("scenario: update %s.%s: no column %q", system, table, col)
		}
		assigns = append(assigns, assignment{o, val})
	}
	return conn.Update(table, pred, func(r rel.Row) rel.Row {
		for _, a := range assigns {
			r[a.ordinal] = a.val
		}
		return r
	})
}

// Call implements mtm.External.
func (g *Gateway) Call(ctx context.Context, system, proc string, args ...rel.Value) (*rel.Relation, error) {
	if IsWebService(system) {
		return nil, fmt.Errorf("scenario: web service %s does not support procedure calls", system)
	}
	if g.s.remote != nil {
		return g.s.dbClient(system).CallContext(ctx, proc, args...)
	}
	conn, err := g.esConn(ctx, system)
	if err != nil {
		return nil, err
	}
	return conn.Call(proc, args...)
}

// Send implements mtm.External.
func (g *Gateway) Send(ctx context.Context, system string, doc *x.Node) error {
	if !IsWebService(system) {
		return fmt.Errorf("scenario: %s does not accept entity messages", system)
	}
	return g.s.WSClient(system).UpdateContext(ctx, doc)
}

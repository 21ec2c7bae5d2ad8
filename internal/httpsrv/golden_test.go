package httpsrv_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/dbproto"
	"repro/internal/fault"
	rel "repro/internal/relational"
	"repro/internal/schema"
	"repro/internal/ws"
	x "repro/internal/xmlmsg"
)

// faultStreamGolden pins the fault stream of a fixed request sequence. The
// plan keys every decision on endpoint, op, body digest and caller, so the
// digest moves if either transport changes a request body, an endpoint
// name, the caller header, or which requests consult the plan.
const faultStreamGolden = "b31de0b74323ca3ca998113111e8bcccc86f43fe0bc4fe150c5b29d56e132a66"

// TestFaultStreamGolden drives a fixed, single-threaded sequence of every
// ws and dbproto operation under two caller tags against servers sharing
// one fault plan, and hashes each request's (op, outcome, status) plus the
// plan's canonical trace.
func TestFaultStreamGolden(t *testing.T) {
	plan := fault.NewPlan(fault.Config{Seed: 11, Rate: 0.5, LatencySpike: time.Millisecond})

	bj := rel.NewDatabase(schema.SysBeijing)
	schema.SetupBeijingDB(bj)
	svc := ws.NewService(schema.SysBeijing, bj)
	svc.HandleMessage("BJCustomer", func(*x.Node) error { return nil })
	reg := ws.NewRegistry(0)
	reg.Register(svc)
	wsURL, err := reg.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Stop()
	reg.SetFaultPlan(plan)

	srv := rel.NewServer(0)
	db := srv.CreateInstance("CDB")
	db.MustCreateTable("Orders", rel.MustSchema([]rel.Column{
		rel.Col("Ordkey", rel.TypeInt),
		rel.NullableCol("Status", rel.TypeString),
		rel.NullableCol("Total", rel.TypeFloat),
	}, "Ordkey"))
	db.RegisterProcedure("sp_add", func(_ *rel.Database, args []rel.Value) (*rel.Relation, error) {
		s := rel.MustSchema([]rel.Column{rel.Col("sum", rel.TypeInt)})
		return rel.NewRelation(s, []rel.Row{{rel.NewInt(args[0].Int() + args[1].Int())}})
	})
	remote, err := dbproto.Serve(srv)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	remote.SetFaultPlan(plan)

	wsc := ws.NewClient(wsURL, schema.SysBeijing)
	dbc := dbproto.NewClient(remote.BaseURL(), "CDB")
	customers := rel.MustRelation(schema.BeijingCustomer, []rel.Row{
		{rel.NewInt(1), rel.NewString("A"), rel.NewString("x"), rel.NewString("Beijing"), rel.NewString("1")},
		{rel.NewInt(2), rel.NewString("B"), rel.NewString("y"), rel.NewString("Beijing"), rel.NewString("2")},
	})
	orders := rel.MustRelation(rel.MustSchema([]rel.Column{
		rel.Col("Ordkey", rel.TypeInt),
		rel.NullableCol("Status", rel.TypeString),
		rel.NullableCol("Total", rel.TypeFloat),
	}, "Ordkey"), []rel.Row{
		{rel.NewInt(1), rel.NewString("OPEN"), rel.NewFloat(100)},
		{rel.NewInt(2), rel.Null, rel.Null},
	})

	type step struct {
		op   string
		call func(ctx context.Context) error
	}
	round := []step{
		{"ws query", func(ctx context.Context) error { _, err := wsc.QueryContext(ctx, "Customers"); return err }},
		{"ws update rs", func(ctx context.Context) error { return wsc.UpdateRelationContext(ctx, "Customers", customers) }},
		{"ws update msg", func(ctx context.Context) error {
			return wsc.UpdateContext(ctx, x.New("BJCustomer", x.NewText("Cust_ID", "7")).AppendXML(nil))
		}},
		{"db query", func(ctx context.Context) error {
			_, err := dbc.QueryContext(ctx, "Orders", rel.ColEq("Status", rel.NewString("OPEN")))
			return err
		}},
		{"db insert", func(ctx context.Context) error { return dbc.InsertContext(ctx, "Orders", orders) }},
		{"db upsert", func(ctx context.Context) error { return dbc.UpsertContext(ctx, "Orders", orders) }},
		{"db delete", func(ctx context.Context) error {
			_, err := dbc.DeleteContext(ctx, "Orders", rel.ColEq("Ordkey", rel.NewInt(2)))
			return err
		}},
		{"db update", func(ctx context.Context) error {
			_, err := dbc.UpdateContext(ctx, "Orders", nil,
				map[string]rel.Value{"Total": rel.NewFloat(7), "Status": rel.NewString("DONE")})
			return err
		}},
		{"db call", func(ctx context.Context) error {
			_, err := dbc.CallContext(ctx, "sp_add", rel.NewInt(40), rel.NewInt(2))
			return err
		}},
	}
	var steps []step
	var callers []string
	for r := 0; r < 2; r++ {
		for _, caller := range []string{"P01", "P02"} {
			for _, s := range round {
				steps = append(steps, s)
				callers = append(callers, caller)
			}
		}
	}
	for _, caller := range []string{"P01", "P02"} {
		steps = append(steps, step{"db snapshot+restore", func(ctx context.Context) error {
			blob, err := dbc.SnapshotContext(ctx)
			if err != nil {
				return err
			}
			_, err = dbc.RestoreContext(ctx, blob)
			return err
		}})
		callers = append(callers, caller)
	}

	h := sha256.New()
	for i, s := range steps {
		err := s.call(fault.WithCaller(context.Background(), callers[i]))
		outcome, status := "ok", 0
		if err != nil {
			outcome = "err"
			var he *fault.HTTPStatusError
			if errors.As(err, &he) {
				status = he.Status
			}
		}
		line := fmt.Sprintf("%s %s %s %d", callers[i], s.op, outcome, status)
		t.Log(line)
		fmt.Fprintln(h, line)
	}
	for _, in := range plan.Trace() {
		t.Log(in)
		fmt.Fprintln(h, in)
	}
	if plan.Injections() == 0 {
		t.Fatal("plan injected nothing; the golden would not pin the fault stream")
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != faultStreamGolden {
		t.Errorf("fault stream digest %s, want %s", got, faultStreamGolden)
	}
}

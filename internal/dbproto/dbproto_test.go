package dbproto

import (
	"testing"
	"time"

	rel "repro/internal/relational"
)

func startRemote(t *testing.T) (*Remote, *rel.Database, *Client) {
	t.Helper()
	srv := rel.NewServer(0)
	db := srv.CreateInstance("CDB")
	db.MustCreateTable("Orders", rel.MustSchema([]rel.Column{
		rel.Col("Ordkey", rel.TypeInt),
		rel.NullableCol("Status", rel.TypeString),
		rel.NullableCol("Total", rel.TypeFloat),
	}, "Ordkey"))
	remote, err := Serve(srv)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = remote.Close() })
	return remote, db, NewClient(remote.BaseURL(), "CDB")
}

func sampleRelation() *rel.Relation {
	s := rel.MustSchema([]rel.Column{
		rel.Col("Ordkey", rel.TypeInt),
		rel.NullableCol("Status", rel.TypeString),
		rel.NullableCol("Total", rel.TypeFloat),
	}, "Ordkey")
	return rel.MustRelation(s, []rel.Row{
		{rel.NewInt(1), rel.NewString("OPEN"), rel.NewFloat(100)},
		{rel.NewInt(2), rel.NewString("CLOSED"), rel.NewFloat(50)},
		{rel.NewInt(3), rel.Null, rel.Null},
	})
}

func TestInsertAndQueryRoundTrip(t *testing.T) {
	_, _, c := startRemote(t)
	if err := c.Insert("Orders", sampleRelation()); err != nil {
		t.Fatal(err)
	}
	all, err := c.Query("Orders", nil)
	if err != nil {
		t.Fatal(err)
	}
	if all.Len() != 3 {
		t.Fatalf("rows: %d", all.Len())
	}
	// NULLs survive the wire.
	found := false
	for i := 0; i < all.Len(); i++ {
		if all.Get(i, "Ordkey").Int() == 3 {
			found = true
			if !all.Row(i)[1].IsNull() || !all.Row(i)[2].IsNull() {
				t.Errorf("NULLs lost: %v", all.Row(i))
			}
		}
	}
	if !found {
		t.Fatal("row 3 missing")
	}
}

func TestQueryWithPredicateOverTheWire(t *testing.T) {
	_, _, c := startRemote(t)
	_ = c.Insert("Orders", sampleRelation())
	got, err := c.Query("Orders", rel.And(
		rel.ColEq("Status", rel.NewString("OPEN")),
		rel.Cmp("Total", rel.OpGe, rel.NewFloat(10)),
	))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 || got.Get(0, "Ordkey").Int() != 1 {
		t.Fatalf("predicate query: %v", got)
	}
}

func TestUpsertReplaces(t *testing.T) {
	_, db, c := startRemote(t)
	_ = c.Insert("Orders", sampleRelation())
	up := rel.MustRelation(sampleRelation().Schema(), []rel.Row{
		{rel.NewInt(1), rel.NewString("SHIPPED"), rel.NewFloat(1)},
	})
	if err := c.Upsert("Orders", up); err != nil {
		t.Fatal(err)
	}
	if got := db.MustTable("Orders").Lookup(rel.NewInt(1)); got[1].Str() != "SHIPPED" {
		t.Fatalf("upsert: %v", got)
	}
	// Insert of a duplicate key errors over the wire.
	if err := c.Insert("Orders", up); err == nil {
		t.Fatal("duplicate insert accepted")
	}
}

func TestDeleteAndUpdateOverTheWire(t *testing.T) {
	_, db, c := startRemote(t)
	_ = c.Insert("Orders", sampleRelation())
	n, err := c.Delete("Orders", rel.ColEq("Ordkey", rel.NewInt(3)))
	if err != nil || n != 1 {
		t.Fatalf("delete: %d %v", n, err)
	}
	n, err = c.Update("Orders", rel.ColEq("Status", rel.NewString("OPEN")),
		map[string]rel.Value{"Total": rel.NewFloat(7), "Status": rel.NewString("DONE")})
	if err != nil || n != 1 {
		t.Fatalf("update: %d %v", n, err)
	}
	row := db.MustTable("Orders").Lookup(rel.NewInt(1))
	if row[1].Str() != "DONE" || row[2].Float() != 7 {
		t.Fatalf("updated row: %v", row)
	}
	// Setting NULL over the wire.
	n, err = c.Update("Orders", rel.ColEq("Ordkey", rel.NewInt(2)),
		map[string]rel.Value{"Status": rel.Null})
	if err != nil || n != 1 {
		t.Fatalf("null update: %d %v", n, err)
	}
	if !db.MustTable("Orders").Lookup(rel.NewInt(2))[1].IsNull() {
		t.Fatal("NULL set lost")
	}
}

func TestCallOverTheWire(t *testing.T) {
	_, db, c := startRemote(t)
	db.RegisterProcedure("sp_add", func(_ *rel.Database, args []rel.Value) (*rel.Relation, error) {
		s := rel.MustSchema([]rel.Column{rel.Col("sum", rel.TypeInt)})
		return rel.NewRelation(s, []rel.Row{{rel.NewInt(args[0].Int() + args[1].Int())}})
	})
	got, err := c.Call("sp_add", rel.NewInt(40), rel.NewInt(2))
	if err != nil {
		t.Fatal(err)
	}
	if got.Get(0, "sum").Int() != 42 {
		t.Fatalf("call: %v", got)
	}
	db.RegisterProcedure("sp_void", func(*rel.Database, []rel.Value) (*rel.Relation, error) {
		return nil, nil
	})
	got, err = c.Call("sp_void")
	if err != nil || got != nil {
		t.Fatalf("void call: %v %v", got, err)
	}
	if _, err := c.Call("sp_missing"); err == nil {
		t.Fatal("missing procedure accepted")
	}
}

func TestTimestampRoundTrip(t *testing.T) {
	remote, db, _ := startRemote(t)
	s := rel.MustSchema([]rel.Column{
		rel.Col("ID", rel.TypeInt), rel.Col("At", rel.TypeTime),
	}, "ID")
	db.MustCreateTable("Events", s)
	c := NewClient(remote.BaseURL(), "CDB")
	ts := time.Date(2008, 4, 7, 12, 30, 45, 123456789, time.UTC)
	in := rel.MustRelation(s, []rel.Row{{rel.NewInt(1), rel.NewTime(ts)}})
	if err := c.Insert("Events", in); err != nil {
		t.Fatal(err)
	}
	got, err := c.Query("Events", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Get(0, "At").Time().Equal(ts) {
		t.Fatalf("timestamp: %v, want %v", got.Get(0, "At").Time(), ts)
	}
}

func TestProtocolErrors(t *testing.T) {
	remote, _, c := startRemote(t)
	if _, err := c.Query("NoTable", nil); err == nil {
		t.Error("missing table")
	}
	if _, err := NewClient(remote.BaseURL(), "Atlantis").Query("T", nil); err == nil {
		t.Error("missing instance")
	}
}

func TestQuerySinceOverTheWire(t *testing.T) {
	_, db, c := startRemote(t)
	if err := c.Insert("Orders", sampleRelation()); err != nil {
		t.Fatal(err)
	}
	w := db.MustTable("Orders").Version()

	// Mutations after the watermark: one insert, one update, one delete.
	if err := db.MustTable("Orders").Insert(rel.Row{
		rel.NewInt(4), rel.NewString("OPEN"), rel.NewFloat(0.1 + 0.2),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Update("Orders", rel.ColEq("Ordkey", rel.NewInt(1)),
		map[string]rel.Value{"Status": rel.NewString("SHIPPED")}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Delete("Orders", rel.ColEq("Ordkey", rel.NewInt(2))); err != nil {
		t.Fatal(err)
	}

	d, err := c.QuerySince("Orders", w)
	if err != nil {
		t.Fatal(err)
	}
	if d.Reset {
		t.Fatal("expected an incremental delta")
	}
	if d.From != w || d.To != db.MustTable("Orders").Version() {
		t.Fatalf("delta range [%d,%d]", d.From, d.To)
	}
	if d.Inserts.Len() != 1 || d.Inserts.Get(0, "Ordkey").Int() != 4 {
		t.Fatalf("inserts: %v", d.Inserts)
	}
	// Float bits survive the wire exactly (0.1+0.2 != 0.3 in binary).
	if got := d.Inserts.Get(0, "Total").Float(); got != 0.1+0.2 {
		t.Fatalf("float bits lost: %v", got)
	}
	if d.Updates.Len() != 1 || d.Updates.Get(0, "Status").Str() != "SHIPPED" {
		t.Fatalf("updates: %v", d.Updates)
	}
	if d.Deletes.Len() != 1 || d.Deletes.Get(0, "Ordkey").Int() != 2 {
		t.Fatalf("deletes: %v", d.Deletes)
	}

	// A truncated table refuses the stale watermark with a full reset.
	db.MustTable("Orders").Truncate()
	d2, err := c.QuerySince("Orders", d.To)
	if err != nil {
		t.Fatal(err)
	}
	if !d2.Reset || d2.Inserts.Len() != 0 {
		t.Fatalf("post-truncate delta: %+v", d2)
	}
}

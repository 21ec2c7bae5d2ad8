package scenario

import (
	"context"
	"testing"
	"time"

	"repro/internal/datagen"
	rel "repro/internal/relational"
	"repro/internal/schema"
	x "repro/internal/xmlmsg"
)

func newScenario(t *testing.T) *Scenario {
	t.Helper()
	s, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func testGen() *datagen.Generator {
	return datagen.MustNew(datagen.Config{Seed: 42, Datasize: 0.02, Dist: datagen.Uniform})
}

func TestScenarioTopology(t *testing.T) {
	s := newScenario(t)
	// Fig. 1: eleven database instances.
	if got := len(s.ES.InstanceNames()); got != 11 {
		t.Errorf("database instances: %d, want 11", got)
	}
	for _, name := range DatabaseSystems {
		if s.DB(name) == nil {
			t.Errorf("missing instance %s", name)
		}
	}
	// Three web services.
	for _, name := range WebServiceSystems {
		if s.WS.Service(name) == nil {
			t.Errorf("missing web service %s", name)
		}
		if !IsWebService(name) {
			t.Errorf("IsWebService(%s) false", name)
		}
	}
	if IsWebService(schema.SysCDB) {
		t.Error("CDB is not a web service")
	}
	if s.WSBaseURL() == "" {
		t.Error("web services not started")
	}
}

func TestReferenceDataPreloaded(t *testing.T) {
	s := newScenario(t)
	for _, name := range []string{schema.SysCDB, schema.SysDWH} {
		db := s.DB(name)
		if db.MustTable("City").Len() != len(schema.CityCatalog) {
			t.Errorf("%s city dim: %d", name, db.MustTable("City").Len())
		}
		if db.MustTable("ProductGroup").Len() != len(schema.ProductGroupCatalog) {
			t.Errorf("%s product groups: %d", name, db.MustTable("ProductGroup").Len())
		}
	}
}

func TestInitializeSourcesLoadsEverySource(t *testing.T) {
	s := newScenario(t)
	g := testGen()
	if err := s.InitializeSources(g); err != nil {
		t.Fatal(err)
	}
	if s.DB(schema.SysBerlinParis).MustTable("Customer").Len() != g.CustomerCount() {
		t.Error("Berlin_Paris customers")
	}
	if s.DB(schema.SysChicago).MustTable("Orders").Len() != g.OrderCount() {
		t.Error("Chicago orders")
	}
	if s.WS.Service(schema.SysBeijing).Database().MustTable("Customers").Len() != g.CustomerCount() {
		t.Error("Beijing customers")
	}
	// US_Eastcoast and the consolidation layers stay empty.
	if s.DB(schema.SysUSEastcoast).TotalRows() != 0 {
		t.Error("US_Eastcoast should start empty")
	}
	if s.DB(schema.SysDWH).MustTable("Orders").Len() != 0 {
		t.Error("DWH orders should start empty")
	}
	if s.TotalSourceRows() == 0 {
		t.Error("TotalSourceRows")
	}
}

func TestUninitializeResetsEverything(t *testing.T) {
	s := newScenario(t)
	g := testGen()
	if err := s.InitializeSources(g); err != nil {
		t.Fatal(err)
	}
	// Put something in the warehouse to prove it is wiped too.
	dwh := s.DB(schema.SysDWH)
	if err := dwh.MustTable("Customer").Insert(rel.Row{
		rel.NewInt(1), rel.NewString("X"), rel.NewString("a"), rel.NewString("p"),
		rel.NewString("Berlin"), rel.NewString("Germany"), rel.NewString("Europe"),
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Uninitialize(); err != nil {
		t.Fatal(err)
	}
	if s.TotalSourceRows() != 0 {
		t.Error("sources not wiped")
	}
	if dwh.MustTable("Customer").Len() != 0 {
		t.Error("warehouse not wiped")
	}
	// Reference data reloaded after the wipe.
	if dwh.MustTable("City").Len() != len(schema.CityCatalog) {
		t.Error("reference data not reloaded")
	}
	// A second period initializes cleanly (no key collisions).
	if err := s.InitializeSources(g); err != nil {
		t.Fatalf("re-init: %v", err)
	}
}

func TestGatewayDatabaseOperations(t *testing.T) {
	s := newScenario(t)
	if err := s.InitializeSources(testGen()); err != nil {
		t.Fatal(err)
	}
	gw := s.Gateway()

	r, err := gw.Query(context.Background(), schema.SysBerlinParis, "Customer", rel.ColEq("Location", rel.NewString("Berlin")))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < r.Len(); i++ {
		if r.Get(i, "Location").Str() != "Berlin" {
			t.Fatal("filter not applied")
		}
	}
	// Nil predicate scans everything.
	all, err := gw.Query(context.Background(), schema.SysBerlinParis, "Customer", nil)
	if err != nil || all.Len() < r.Len() {
		t.Fatalf("scan: %v %v", all, err)
	}

	// Insert/Delete round trip on the CDB.
	row := rel.Row{
		rel.NewInt(999), rel.NewString("T"), rel.NewString("a"), rel.NewString("p"),
		rel.NewString("Berlin"), rel.NewString("Germany"), rel.NewString("Europe"),
		rel.NewString("test"), rel.NewBool(false),
	}
	ins := rel.MustRelation(schema.CDBCustomer, []rel.Row{row})
	if err := gw.Insert(context.Background(), schema.SysCDB, "Customer", ins); err != nil {
		t.Fatal(err)
	}
	n, err := gw.Delete(context.Background(), schema.SysCDB, "Customer", rel.ColEq("Custkey", rel.NewInt(999)))
	if err != nil || n != 1 {
		t.Fatalf("delete: %d %v", n, err)
	}

	// Upsert replaces.
	if err := gw.Upsert(context.Background(), schema.SysCDB, "Customer", ins); err != nil {
		t.Fatal(err)
	}
	if err := gw.Upsert(context.Background(), schema.SysCDB, "Customer", ins); err != nil {
		t.Fatalf("upsert twice: %v", err)
	}

	// Call reaches stored procedures.
	if _, err := gw.Call(context.Background(), schema.SysCDB, "sp_runMasterDataCleansing"); err != nil {
		t.Fatal(err)
	}
}

func TestGatewayWebServiceOperations(t *testing.T) {
	s := newScenario(t)
	if err := s.InitializeSources(testGen()); err != nil {
		t.Fatal(err)
	}
	gw := s.Gateway()

	r, err := gw.Query(context.Background(), schema.SysBeijing, "Customers", nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() == 0 {
		t.Fatal("no Beijing customers")
	}
	// Client-side predicate on WS queries.
	one, err := gw.Query(context.Background(), schema.SysBeijing, "Customers",
		rel.ColEq("Cust_ID", r.Get(0, "Cust_ID")))
	if err != nil || one.Len() != 1 {
		t.Fatalf("ws filtered query: %v %v", one, err)
	}
	answer, err := gw.FetchXML(context.Background(), schema.SysSeoul, "Orders")
	if err != nil {
		t.Fatalf("fetchxml: %v", err)
	}
	if doc, err := x.ParseBytes(answer); err != nil || doc.Name != "ResultSet" {
		t.Fatalf("fetchxml: %v %v", doc, err)
	}
	// Send an entity message to Seoul (the P01 target path).
	msg := x.New("SKCustomer",
		x.NewText("CID", "2999999"),
		x.NewText("CNAME", "New"),
		x.NewText("CADDR", "Addr"),
		x.NewText("CCITY", "Seoul"),
		x.NewText("CPHONE", "1"),
	)
	if err := gw.Send(context.Background(), schema.SysSeoul, msg.AppendXML(nil)); err != nil {
		t.Fatal(err)
	}
	if got := s.WS.Service(schema.SysSeoul).Database().MustTable("Customers").Lookup(rel.NewInt(2999999)); got == nil {
		t.Fatal("P01 handler did not upsert")
	}
	// Unsupported WS operations error.
	if _, err := gw.Delete(context.Background(), schema.SysSeoul, "Customers", nil); err == nil {
		t.Error("WS delete should fail")
	}
	if _, err := gw.Call(context.Background(), schema.SysSeoul, "sp_x"); err == nil {
		t.Error("WS call should fail")
	}
	if err := gw.Send(context.Background(), schema.SysCDB, msg.AppendXML(nil)); err == nil {
		t.Error("Send to database should fail")
	}
}

func TestGatewayFetchXMLFromDatabase(t *testing.T) {
	s := newScenario(t)
	if err := s.InitializeSources(testGen()); err != nil {
		t.Fatal(err)
	}
	answer, err := s.Gateway().FetchXML(context.Background(), schema.SysTrondheim, "Customer")
	if err != nil {
		t.Fatalf("db fetchxml: %v", err)
	}
	if doc, err := x.ParseBytes(answer); err != nil || doc.Name != "ResultSet" {
		t.Fatalf("db fetchxml: %v", err)
	}
}

func TestGatewayUnknownSystem(t *testing.T) {
	s := newScenario(t)
	gw := s.Gateway()
	if _, err := gw.Query(context.Background(), "Atlantis", "T", nil); err == nil {
		t.Error("unknown system query")
	}
	if err := gw.Insert(context.Background(), "Atlantis", "T", rel.Empty(schema.CDBCustomer)); err == nil {
		t.Error("unknown system insert")
	}
}

func TestMasterDataCleansingProcedure(t *testing.T) {
	s := newScenario(t)
	cdb := s.DB(schema.SysCDB)
	rows := []rel.Row{
		{rel.NewInt(1), rel.NewString("Good"), rel.NewString("a"), rel.NewString("p"),
			rel.NewString("Berlin"), rel.NewString("Germany"), rel.NewString("Europe"),
			rel.NewString("s"), rel.NewBool(false)},
		{rel.NewInt(2), rel.NewString(""), rel.NewString("a"), rel.NewString("p"),
			rel.NewString("Berlin"), rel.NewString("Germany"), rel.NewString("Europe"),
			rel.NewString("s"), rel.NewBool(false)},
		{rel.NewInt(3), rel.NewString("BadPhone"), rel.NewString("a"), rel.NewString("INVALID"),
			rel.NewString("Berlin"), rel.NewString("Germany"), rel.NewString("Europe"),
			rel.NewString("s"), rel.NewBool(false)},
	}
	for _, r := range rows {
		if err := cdb.MustTable("Customer").Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	_ = cdb.MustTable("Product").Insert(rel.Row{
		rel.NewInt(10), rel.NewString("P"), rel.NewFloat(-5), rel.NewInt(10),
		rel.NewString("s"), rel.NewBool(false),
	})
	res, err := cdb.Call("sp_runMasterDataCleansing")
	if err != nil {
		t.Fatal(err)
	}
	if res.Get(0, "removed").Int() != 3 { // empty name + INVALID phone + negative price
		t.Errorf("removed: %v", res.Get(0, "removed"))
	}
	if cdb.MustTable("Customer").Len() != 1 {
		t.Errorf("customers left: %d", cdb.MustTable("Customer").Len())
	}
}

func TestMovementDataCleansingProcedure(t *testing.T) {
	s := newScenario(t)
	cdb := s.DB(schema.SysCDB)
	date := rel.NewTime(time.Date(2008, 4, 1, 0, 0, 0, 0, time.UTC))
	orders := [][2]interface{}{{int64(1), 10.0}, {int64(2), -5.0}}
	for _, o := range orders {
		if err := cdb.MustTable("Orders").Insert(rel.Row{
			rel.NewInt(o[0].(int64)), rel.NewInt(1), rel.NewInt(100), date,
			rel.NewString("OPEN"), rel.NewString("LOW"), rel.NewFloat(o[1].(float64)),
			rel.NewString("s"),
		}); err != nil {
			t.Fatal(err)
		}
		if err := cdb.MustTable("Orderline").Insert(rel.Row{
			rel.NewInt(o[0].(int64)), rel.NewInt(1), rel.NewInt(1000),
			rel.NewInt(1), rel.NewFloat(10), rel.NewString("s"),
		}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := cdb.Call("sp_runMovementDataCleansing")
	if err != nil {
		t.Fatal(err)
	}
	if res.Get(0, "removed").Int() != 2 { // order 2 + its line
		t.Errorf("removed: %v", res.Get(0, "removed"))
	}
	if cdb.MustTable("Orders").Len() != 1 || cdb.MustTable("Orderline").Len() != 1 {
		t.Error("cleansing left wrong rows")
	}
}

func TestRefreshOrdersMVProcedure(t *testing.T) {
	s := newScenario(t)
	dwh := s.DB(schema.SysDWH)
	insert := func(key int64, month time.Month, cust int64, total float64) {
		t.Helper()
		if err := dwh.MustTable("Orders").Insert(rel.Row{
			rel.NewInt(key), rel.NewInt(cust), rel.NewInt(100),
			rel.NewTime(time.Date(2008, month, 15, 0, 0, 0, 0, time.UTC)),
			rel.NewString("OPEN"), rel.NewString("LOW"), rel.NewFloat(total),
		}); err != nil {
			t.Fatal(err)
		}
	}
	insert(1, time.January, 7, 10)
	insert(2, time.January, 7, 20)
	insert(3, time.February, 7, 5)
	insert(4, time.January, 8, 1)
	res, err := dwh.Call("sp_refreshOrdersMV")
	if err != nil {
		t.Fatal(err)
	}
	if res.Get(0, "groups").Int() != 3 {
		t.Errorf("groups: %v", res.Get(0, "groups"))
	}
	mv := dwh.MustTable("OrdersMV")
	if mv.Len() != 3 {
		t.Fatalf("MV rows: %d", mv.Len())
	}
	row := mv.Lookup(rel.NewInt(2008), rel.NewInt(1), rel.NewInt(7))
	if row == nil || row[3].Int() != 2 || row[4].Float() != 30 {
		t.Errorf("MV row: %v", row)
	}
	// Refresh is idempotent (truncate + rebuild).
	if _, err := dwh.Call("sp_refreshOrdersMV"); err != nil {
		t.Fatal(err)
	}
	if mv.Len() != 3 {
		t.Errorf("MV rows after second refresh: %d", mv.Len())
	}
}

func TestEntityHandlerRejectsBadMessage(t *testing.T) {
	s := newScenario(t)
	bad := x.New("SKCustomer", x.NewText("CID", "not-a-number"))
	if err := s.Gateway().Send(context.Background(), schema.SysSeoul, bad.AppendXML(nil)); err == nil {
		t.Fatal("bad entity message accepted")
	}
}

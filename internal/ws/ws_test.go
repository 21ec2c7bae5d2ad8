package ws

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	rel "repro/internal/relational"
	"repro/internal/schema"
	x "repro/internal/xmlmsg"
)

// startRegistry spins up a registry with a Beijing-style service and
// returns the base URL.
func startRegistry(t *testing.T, delay time.Duration) (*Registry, *Service, string) {
	t.Helper()
	db := rel.NewDatabase(schema.SysBeijing)
	schema.SetupBeijingDB(db)
	svc := NewService(schema.SysBeijing, db)
	reg := NewRegistry(delay)
	reg.Register(svc)
	url, err := reg.Start()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = reg.Stop() })
	return reg, svc, url
}

func seedCustomers(t *testing.T, db *rel.Database, n int) {
	t.Helper()
	tab := db.MustTable("Customers")
	for i := 0; i < n; i++ {
		err := tab.Insert(rel.Row{
			rel.NewInt(int64(2_000_000 + i)), rel.NewString(fmt.Sprintf("Cust %d", i)),
			rel.NewString("Addr"), rel.NewString("Beijing"), rel.NewString("555"),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestQueryReturnsResultSet(t *testing.T) {
	_, svc, url := startRegistry(t, 0)
	seedCustomers(t, svc.Database(), 5)
	c := NewClient(url, schema.SysBeijing)
	got, err := c.QueryRelation("Customers")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 5 {
		t.Fatalf("rows: %d", got.Len())
	}
	if !got.Schema().Equal(schema.BeijingCustomer) {
		t.Fatalf("schema: %s", got.Schema())
	}
	q, u := svc.Stats()
	if q != 1 || u != 0 {
		t.Errorf("stats: %d/%d", q, u)
	}
}

func TestQueryResultValidatesAgainstGenericXSD(t *testing.T) {
	_, svc, url := startRegistry(t, 0)
	seedCustomers(t, svc.Database(), 2)
	answer, err := NewClient(url, schema.SysBeijing).Query("Customers")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := x.ParseBytes(answer)
	if err != nil {
		t.Fatal(err)
	}
	if errs := x.ResultSetSchema.Validate(doc); len(errs) != 0 {
		t.Fatalf("WS result set invalid: %v", errs)
	}
}

func TestUpdateBulkUpsert(t *testing.T) {
	_, svc, url := startRegistry(t, 0)
	c := NewClient(url, schema.SysBeijing)
	r := rel.MustRelation(schema.BeijingCustomer, []rel.Row{
		{rel.NewInt(1), rel.NewString("A"), rel.NewString("x"), rel.NewString("Beijing"), rel.NewString("1")},
		{rel.NewInt(2), rel.NewString("B"), rel.NewString("y"), rel.NewString("Beijing"), rel.NewString("2")},
	})
	if err := c.UpdateRelation("Customers", r); err != nil {
		t.Fatal(err)
	}
	if svc.Database().MustTable("Customers").Len() != 2 {
		t.Fatal("bulk upsert failed")
	}
	// Upsert semantics: same keys replace.
	r2 := rel.MustRelation(schema.BeijingCustomer, []rel.Row{
		{rel.NewInt(1), rel.NewString("A2"), rel.NewString("x"), rel.NewString("Beijing"), rel.NewString("1")},
	})
	if err := c.UpdateRelation("Customers", r2); err != nil {
		t.Fatal(err)
	}
	if svc.Database().MustTable("Customers").Len() != 2 {
		t.Fatal("upsert inserted a duplicate")
	}
	if got := svc.Database().MustTable("Customers").Lookup(rel.NewInt(1)); got[1].Str() != "A2" {
		t.Fatalf("upsert did not replace: %v", got)
	}
}

func TestEntityMessageHandler(t *testing.T) {
	_, svc, url := startRegistry(t, 0)
	var received []*x.Node
	var mu sync.Mutex
	svc.HandleMessage("BJCustomer", func(doc *x.Node) error {
		mu.Lock()
		defer mu.Unlock()
		received = append(received, doc)
		return nil
	})
	msg := x.New("BJCustomer", x.NewText("Cust_ID", "7"))
	if err := NewClient(url, schema.SysBeijing).Update(msg.AppendXML(nil)); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(received) != 1 || received[0].PathText("Cust_ID") != "7" {
		t.Fatalf("handler: %v", received)
	}
}

func TestHandlerErrorSurfacesAsHTTPError(t *testing.T) {
	_, svc, url := startRegistry(t, 0)
	svc.HandleMessage("Boom", func(*x.Node) error { return fmt.Errorf("kaboom") })
	err := NewClient(url, schema.SysBeijing).Update(x.New("Boom").AppendXML(nil))
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("handler error: %v", err)
	}
}

func TestErrors(t *testing.T) {
	_, _, url := startRegistry(t, 0)
	c := NewClient(url, schema.SysBeijing)
	if _, err := c.Query("NoSuchTable"); err == nil {
		t.Error("query missing table")
	}
	if err := c.Update(x.New("UnknownMessage").AppendXML(nil)); err == nil {
		t.Error("unregistered message")
	}
	if _, err := NewClient(url, "atlantis").Query("Customers"); err == nil {
		t.Error("unknown service")
	}
	bad := rel.MustRelation(rel.MustSchema([]rel.Column{rel.Col("X", rel.TypeInt)}), nil)
	if err := c.UpdateRelation("NoSuchTable", bad); err == nil {
		t.Error("update missing table")
	}
}

func TestMultipleServicesOneRegistry(t *testing.T) {
	reg := NewRegistry(0)
	for _, name := range []string{schema.SysBeijing, schema.SysSeoul} {
		db := rel.NewDatabase(name)
		if name == schema.SysBeijing {
			schema.SetupBeijingDB(db)
		} else {
			schema.SetupSeoulDB(db)
		}
		reg.Register(NewService(name, db))
	}
	url, err := reg.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Stop()
	if _, err := NewClient(url, schema.SysBeijing).QueryRelation("Customers"); err != nil {
		t.Errorf("beijing: %v", err)
	}
	se, err := NewClient(url, schema.SysSeoul).QueryRelation("Customers")
	if err != nil {
		t.Errorf("seoul: %v", err)
	}
	if !se.Schema().Equal(schema.SeoulCustomer) {
		t.Error("seoul schema")
	}
}

func TestArtificialDelayCharged(t *testing.T) {
	_, _, url := startRegistry(t, 3*time.Millisecond)
	c := NewClient(url, schema.SysBeijing)
	start := time.Now()
	_, _ = c.QueryRelation("Customers")
	if time.Since(start) < 3*time.Millisecond {
		t.Error("delay not charged")
	}
}

func TestCaseInsensitiveServiceNames(t *testing.T) {
	_, svc, url := startRegistry(t, 0)
	seedCustomers(t, svc.Database(), 1)
	if _, err := NewClient(url, "beijing").QueryRelation("Customers"); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentClients(t *testing.T) {
	_, svc, url := startRegistry(t, 0)
	seedCustomers(t, svc.Database(), 10)
	var wg sync.WaitGroup
	errs := make(chan error, 20)
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := NewClient(url, schema.SysBeijing)
			r, err := c.QueryRelation("Customers")
			if err != nil {
				errs <- err
				return
			}
			if r.Len() != 10 {
				errs <- fmt.Errorf("got %d rows", r.Len())
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestRegistryStopUnblocksPort(t *testing.T) {
	reg, _, _ := startRegistry(t, 0)
	if err := reg.Stop(); err != nil {
		t.Fatal(err)
	}
	// Stop is idempotent via server.Close error being benign.
	_ = reg.Stop()
}

func TestStopDoesNotWaitOnUnusedConnection(t *testing.T) {
	// A client pool may dial a connection and never send on it; the
	// drain must not treat it as a request in flight.
	reg, _, url := startRegistry(t, 0)
	conn, err := net.Dial("tcp", strings.TrimPrefix(url, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	time.Sleep(50 * time.Millisecond) // let the server accept it
	start := time.Now()
	if err := reg.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("Stop took %v with an unused connection open", took)
	}
}

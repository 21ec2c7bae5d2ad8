// Package scenario wires up the complete DIPBench ETL topology of Fig. 1:
// eleven relational database instances on the external-system server, the
// three Asian web services on an application server (HTTP registry), the
// stored procedures of the consolidation layer, and the per-period
// (un)initialization lifecycle of the benchmark execution.
//
// Layers:
//  1. sources — Berlin_Paris, Trondheim (Europe schema), Chicago,
//     Baltimore, Madison (TPC-H), the web services Beijing, Seoul,
//     Hongkong, and the message-emitting applications Vienna, MDM_Europe
//     and San_Diego (realized by the workload Client);
//  2. consolidated database Sales_Cleaning (staging area) plus the local
//     consolidated database US_Eastcoast;
//  3. data warehouse DWH;
//  4. data marts DM_Europe, DM_United_States, DM_Asia.
package scenario

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/datagen"
	"repro/internal/dbproto"
	"repro/internal/fault"
	rel "repro/internal/relational"
	"repro/internal/schema"
	"repro/internal/ws"
)

// Options configures the topology.
type Options struct {
	// DBLatency is the simulated round-trip latency per database call.
	DBLatency time.Duration
	// WSDelay is the artificial extra delay per web-service call (on top
	// of the real loopback HTTP round trip).
	WSDelay time.Duration
	// RemoteDB places the database server behind a real HTTP boundary
	// (internal/dbproto), reproducing the paper's separate
	// external-system machine: every database call of the integration
	// system becomes a genuine network round trip.
	RemoteDB bool
}

// Scenario is the instantiated topology.
type Scenario struct {
	// ES is the external-system database server.
	ES *rel.Server
	// WS is the application server hosting the Asian web services.
	WS *ws.Registry

	wsURL     string
	remote    *dbproto.Remote // non-nil when Options.RemoteDB
	faultPlan *fault.Plan     // non-nil after InstallFaultPlan
}

// DatabaseSystems lists the systems realized as database instances, in
// layer order.
var DatabaseSystems = []string{
	schema.SysBerlinParis, schema.SysTrondheim,
	schema.SysChicago, schema.SysBaltimore, schema.SysMadison,
	schema.SysUSEastcoast,
	schema.SysCDB,
	schema.SysDWH,
	schema.SysDMEur, schema.SysDMUS, schema.SysDMAsia,
}

// WebServiceSystems lists the systems realized as web services.
var WebServiceSystems = []string{schema.SysBeijing, schema.SysSeoul, schema.SysHongkong}

// SourceSystems lists the systems re-initialized with generated data at
// the start of every benchmark period.
var SourceSystems = []string{
	schema.SysBerlinParis, schema.SysTrondheim,
	schema.SysChicago, schema.SysBaltimore, schema.SysMadison,
	schema.SysBeijing, schema.SysSeoul, schema.SysHongkong,
}

// New builds and starts the topology.
func New(opts Options) (*Scenario, error) {
	s := &Scenario{
		ES: rel.NewServer(opts.DBLatency),
		WS: ws.NewRegistry(opts.WSDelay),
	}
	// Layer 1: European and American database sources.
	schema.SetupEuropeDB(s.ES.CreateInstance(schema.SysBerlinParis))
	schema.SetupEuropeDB(s.ES.CreateInstance(schema.SysTrondheim))
	schema.SetupTPCHDB(s.ES.CreateInstance(schema.SysChicago))
	schema.SetupTPCHDB(s.ES.CreateInstance(schema.SysBaltimore))
	schema.SetupTPCHDB(s.ES.CreateInstance(schema.SysMadison))
	// Layer 2: local and global consolidated databases.
	schema.SetupTPCHDB(s.ES.CreateInstance(schema.SysUSEastcoast))
	cdb := s.ES.CreateInstance(schema.SysCDB)
	schema.SetupCDB(cdb)
	registerCDBProcedures(cdb)
	// Layer 3: warehouse.
	dwh := s.ES.CreateInstance(schema.SysDWH)
	schema.SetupDWH(dwh)
	registerMVProcedure(dwh)
	// Layer 4: data marts.
	for _, v := range schema.Marts {
		db := s.ES.CreateInstance(v.Name)
		schema.SetupDataMart(db, v)
		registerMVProcedure(db)
	}
	// Application server: Asian web services backed by their own local
	// databases.
	for _, name := range WebServiceSystems {
		db := rel.NewDatabase(name)
		switch name {
		case schema.SysBeijing:
			schema.SetupBeijingDB(db)
		case schema.SysSeoul:
			schema.SetupSeoulDB(db)
		case schema.SysHongkong:
			schema.SetupHongkongDB(db)
		}
		svc := ws.NewService(name, db)
		registerEntityHandlers(svc)
		s.WS.Register(svc)
	}
	url, err := s.WS.Start()
	if err != nil {
		return nil, fmt.Errorf("scenario: start web services: %w", err)
	}
	s.wsURL = url
	if opts.RemoteDB {
		remote, err := dbproto.Serve(s.ES)
		if err != nil {
			_ = s.WS.Stop()
			return nil, fmt.Errorf("scenario: start database protocol: %w", err)
		}
		s.remote = remote
	}
	if err := s.loadReferenceData(); err != nil {
		return nil, err
	}
	return s, nil
}

// MustNew is New that panics on error.
func MustNew(opts Options) *Scenario {
	s, err := New(opts)
	if err != nil {
		panic(err)
	}
	return s
}

// Close shuts the web-service server and the database protocol endpoint
// down.
func (s *Scenario) Close() error {
	if s.remote != nil {
		_ = s.remote.Close()
	}
	return s.WS.Stop()
}

// RemoteDB reports whether the database server sits behind the HTTP
// protocol boundary.
func (s *Scenario) RemoteDB() bool { return s.remote != nil }

// InstallFaultPlan injects the deterministic fault plan into every
// external-system boundary of the topology: the web services, and either
// the remote database protocol endpoint (RemoteDB) or the in-process
// store via a call hook. A nil plan removes all injection.
func (s *Scenario) InstallFaultPlan(p *fault.Plan) {
	s.faultPlan = p
	s.WS.SetFaultPlan(p)
	if s.remote != nil {
		s.remote.SetFaultPlan(p)
		return
	}
	if p == nil {
		s.ES.SetCallHook(nil)
		return
	}
	s.ES.SetCallHook(func(caller, instance, op, table string) error {
		endpoint := "es/" + strings.ToLower(instance)
		d := p.DecideStore(endpoint, fault.Digest(op, table, caller))
		switch d.Kind {
		case fault.KindStoreError:
			return &fault.TransientError{Endpoint: endpoint, Msg: "injected store fault"}
		case fault.KindLatency:
			time.Sleep(d.Delay)
		}
		return nil
	})
}

// FaultPlan returns the installed fault plan (nil when fault injection is
// off).
func (s *Scenario) FaultPlan() *fault.Plan { return s.faultPlan }

// dbClient returns a protocol client for the instance (RemoteDB only).
func (s *Scenario) dbClient(instance string) *dbproto.Client {
	return dbproto.NewClient(s.remote.BaseURL(), instance)
}

// WSBaseURL returns the application server's base URL.
func (s *Scenario) WSBaseURL() string { return s.wsURL }

// DB returns the named database instance (nil for web-service systems).
func (s *Scenario) DB(system string) *rel.Database {
	return s.ES.Instance(system)
}

// WSClient returns a client for the named web service.
func (s *Scenario) WSClient(system string) *ws.Client {
	return ws.NewClient(s.wsURL, system)
}

// IsWebService reports whether the system is fronted by a web service.
func IsWebService(system string) bool {
	for _, n := range WebServiceSystems {
		if n == system {
			return true
		}
	}
	return false
}

// registerEntityHandlers installs the master-data message handlers of the
// P01 exchange: Seoul accepts SKCustomer messages, Beijing BJCustomer.
func registerEntityHandlers(svc *ws.Service) {
	switch svc.Name() {
	case schema.SysSeoul:
		svc.HandleMessage("SKCustomer", func(doc *xNode) error {
			return upsertCustomerFromMsg(svc, doc, seoulMsgCols)
		})
	case schema.SysBeijing:
		svc.HandleMessage("BJCustomer", func(doc *xNode) error {
			return upsertCustomerFromMsg(svc, doc, beijingMsgCols)
		})
	}
}

// initWorkers bounds the worker pool used for parallel source
// (un)initialization. The stores are independent instances, so the bound
// only caps memory pressure, not correctness.
const initWorkers = 4

// runBounded runs fn(0..n-1) on a bounded worker pool and returns the
// first error encountered.
func runBounded(n, workers int, fn func(int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// Uninitialize truncates all external systems — the first step of every
// benchmark period (Fig. 7) — and reloads the dimension reference data of
// the consolidation layers. Instances are truncated in parallel; they are
// independent stores.
func (s *Scenario) Uninitialize() error {
	systems := len(DatabaseSystems)
	if err := runBounded(systems+len(WebServiceSystems), initWorkers, func(i int) error {
		if i < systems {
			s.ES.Instance(DatabaseSystems[i]).TruncateAll()
		} else {
			s.WS.Service(WebServiceSystems[i-systems]).Database().TruncateAll()
		}
		return nil
	}); err != nil {
		return err
	}
	return s.loadReferenceData()
}

// loadReferenceData loads the fixed location and product hierarchies into
// the CDB, the warehouse and the marts' normalized dimensions.
func (s *Scenario) loadReferenceData() error {
	for _, name := range []string{schema.SysCDB, schema.SysDWH} {
		db := s.ES.Instance(name)
		if err := schema.LoadLocationDims(db); err != nil {
			return fmt.Errorf("scenario: reference data for %s: %w", name, err)
		}
		if err := schema.LoadProductDims(db); err != nil {
			return fmt.Errorf("scenario: reference data for %s: %w", name, err)
		}
	}
	return nil
}

// SourceData is the complete set of per-period datasets for the source
// systems, generated ahead of loading. It is a pure value: producing one
// touches no store, so the driver can compute period k+1's SourceData while
// period k's streams are still running.
type SourceData struct {
	Europe map[string]*datagen.EuropeDataset
	TPCH   map[string]*datagen.TPCHDataset
	Asia   map[string]*datagen.AsiaDataset
}

// GenerateSourceData produces the datasets of every source system for the
// generator's period. Sources generate in parallel; each dataset is a pure
// function of (seed, period, source), so the result is independent of
// worker scheduling.
func GenerateSourceData(g *datagen.Generator) (*SourceData, error) {
	data := &SourceData{
		Europe: make(map[string]*datagen.EuropeDataset, 2),
		TPCH:   make(map[string]*datagen.TPCHDataset, 3),
		Asia:   make(map[string]*datagen.AsiaDataset, 3),
	}
	var mu sync.Mutex
	err := runBounded(len(SourceSystems), initWorkers, func(i int) error {
		name := SourceSystems[i]
		switch {
		case name == schema.SysBerlinParis || name == schema.SysTrondheim:
			ds, err := g.Europe(name)
			if err != nil {
				return err
			}
			mu.Lock()
			data.Europe[name] = ds
			mu.Unlock()
		case IsWebService(name):
			ds, err := g.Asia(name)
			if err != nil {
				return err
			}
			mu.Lock()
			data.Asia[name] = ds
			mu.Unlock()
		default:
			ds, err := g.TPCH(name)
			if err != nil {
				return err
			}
			mu.Lock()
			data.TPCH[name] = ds
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return data, nil
}

// LoadSources loads pre-generated datasets into the source stores, one
// worker per source (bounded). The stores are independent instances and
// each table's rows keep their relation order, so the loaded state is
// byte-identical to a sequential load.
func (s *Scenario) LoadSources(data *SourceData) error {
	return runBounded(len(SourceSystems), initWorkers, func(i int) error {
		name := SourceSystems[i]
		var tables map[string]*rel.Relation
		var db *rel.Database
		switch {
		case name == schema.SysBerlinParis || name == schema.SysTrondheim:
			ds := data.Europe[name]
			if ds == nil {
				return fmt.Errorf("scenario: no generated data for %s", name)
			}
			db = s.ES.Instance(name)
			tables = map[string]*rel.Relation{
				"City": ds.City, "Company": ds.Company, "Customer": ds.Customer,
				"Orders": ds.Orders, "Orderline": ds.Orderline,
				"Product": ds.Product, "ProductGroup": ds.ProductGroup,
			}
		case IsWebService(name):
			ds := data.Asia[name]
			if ds == nil {
				return fmt.Errorf("scenario: no generated data for %s", name)
			}
			db = s.WS.Service(name).Database()
			tables = map[string]*rel.Relation{
				"Customers": ds.Customers, "Products": ds.Products,
				"Orders": ds.Orders, "OrderItems": ds.OrderItems,
			}
		default:
			ds := data.TPCH[name]
			if ds == nil {
				return fmt.Errorf("scenario: no generated data for %s", name)
			}
			db = s.ES.Instance(name)
			tables = map[string]*rel.Relation{
				"Customer": ds.Customer, "Orders": ds.Orders,
				"Lineitem": ds.Lineitem, "Part": ds.Part,
			}
		}
		for table, r := range tables {
			if err := db.MustTable(table).InsertAll(r); err != nil {
				return fmt.Errorf("scenario: init %s.%s: %w", name, table, err)
			}
		}
		return nil
	})
}

// InitializeSources loads the generator's per-period datasets into all
// source systems — the second step of every benchmark period. It is
// GenerateSourceData followed by LoadSources; callers that can generate
// ahead of time (the pipelined driver) invoke the two halves themselves.
func (s *Scenario) InitializeSources(g *datagen.Generator) error {
	data, err := GenerateSourceData(g)
	if err != nil {
		return err
	}
	return s.LoadSources(data)
}

// TotalSourceRows counts the rows currently loaded in all source systems;
// a sanity statistic for the Initializer tool.
func (s *Scenario) TotalSourceRows() int {
	n := 0
	for _, name := range []string{schema.SysBerlinParis, schema.SysTrondheim,
		schema.SysChicago, schema.SysBaltimore, schema.SysMadison} {
		n += s.ES.Instance(name).TotalRows()
	}
	for _, name := range WebServiceSystems {
		n += s.WS.Service(name).Database().TotalRows()
	}
	return n
}

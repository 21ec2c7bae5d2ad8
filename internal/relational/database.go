package relational

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/sched"
)

func lower(s string) string { return strings.ToLower(s) }

// Procedure is a stored procedure: a named server-side routine invoked by
// integration processes (e.g. sp_runMasterDataCleansing in process P12).
// Args are positional; the optional result relation is returned to the
// caller.
type Procedure func(db *Database, args []Value) (*Relation, error)

// Database is one database instance: a named catalog of tables and stored
// procedures. The DIPBench scenario uses eleven instances (Berlin, Paris,
// Trondheim, Chicago, Baltimore, Madison, US_Eastcoast, Sales_Cleaning,
// DWH and the three data marts are spread over these plus the warehouse
// layer instances).
type Database struct {
	name string

	mu     sync.RWMutex
	tables map[string]*Table
	procs  map[string]Procedure
	par    int
	col    bool
	sched  *sched.Handle
}

// NewDatabase creates an empty database instance.
func NewDatabase(name string) *Database {
	return &Database{
		name:   name,
		tables: make(map[string]*Table),
		procs:  make(map[string]Procedure),
	}
}

// Name returns the instance name.
func (db *Database) Name() string { return db.name }

// SetParallelism sets the parallel degree stored procedures on this
// instance pass to the vectorized kernels (e.g. the columnar OrdersMV
// refresh); <= 1 keeps them sequential. The row kernels are always
// sequential.
func (db *Database) SetParallelism(par int) {
	db.mu.Lock()
	db.par = par
	db.mu.Unlock()
}

// Parallelism returns the instance's parallel degree for stored
// procedures.
func (db *Database) Parallelism() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.par
}

// SetColumnar lets stored procedures on this instance use the vectorized
// columnar kernels (output stays bit-identical to the row kernels).
func (db *Database) SetColumnar(on bool) {
	db.mu.Lock()
	db.col = on
	db.mu.Unlock()
}

// Columnar reports whether stored procedures should prefer the vectorized
// kernels.
func (db *Database) Columnar() bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.col
}

// SetScheduler attributes the parallel kernel work of this instance's
// stored procedures to the given scheduler handle (the owning tenant),
// for fair-share arbitration on the process-wide pool. Nil means the
// default handle.
func (db *Database) SetScheduler(h *sched.Handle) {
	db.mu.Lock()
	db.sched = h
	db.mu.Unlock()
}

// Scheduler returns the handle set by SetScheduler (nil for the default).
func (db *Database) Scheduler() *sched.Handle {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.sched
}

// CreateTable adds a table to the catalog.
func (db *Database) CreateTable(name string, schema *Schema) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, exists := db.tables[lower(name)]; exists {
		return nil, fmt.Errorf("relational: table %s.%s already exists", db.name, name)
	}
	t := NewTable(name, schema)
	db.tables[lower(name)] = t
	return t, nil
}

// MustCreateTable is CreateTable that panics on error; for schema setup.
func (db *Database) MustCreateTable(name string, schema *Schema) *Table {
	t, err := db.CreateTable(name, schema)
	if err != nil {
		panic(err)
	}
	return t
}

// DropTable removes a table from the catalog.
func (db *Database) DropTable(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, exists := db.tables[lower(name)]; !exists {
		return fmt.Errorf("relational: no table %s.%s", db.name, name)
	}
	delete(db.tables, lower(name))
	return nil
}

// Table returns the named table or nil.
func (db *Database) Table(name string) *Table {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tables[lower(name)]
}

// MustTable returns the named table or panics.
func (db *Database) MustTable(name string) *Table {
	t := db.Table(name)
	if t == nil {
		panic(fmt.Sprintf("relational: no table %s.%s", db.name, name))
	}
	return t
}

// TableNames lists the catalog's table names, sorted.
func (db *Database) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.tables))
	for _, t := range db.tables {
		names = append(names, t.Name())
	}
	sort.Strings(names)
	return names
}

// RegisterProcedure installs a stored procedure under the given name.
func (db *Database) RegisterProcedure(name string, p Procedure) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.procs[lower(name)] = p
}

// Call invokes a stored procedure.
func (db *Database) Call(name string, args ...Value) (*Relation, error) {
	db.mu.RLock()
	p := db.procs[lower(name)]
	db.mu.RUnlock()
	if p == nil {
		return nil, fmt.Errorf("relational: no procedure %s.%s", db.name, name)
	}
	return p(db, args)
}

// SetJournalLimit bounds the change journal of every table in the
// catalog (see Table.SetJournalLimit).
func (db *Database) SetJournalLimit(n int) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, t := range db.tables {
		t.SetJournalLimit(n)
	}
}

// TruncateAll truncates every table; the per-period "uninitialize all
// external systems" step of the benchmark execution.
func (db *Database) TruncateAll() {
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, t := range db.tables {
		t.Truncate()
	}
}

// TotalRows returns the sum of live rows over all tables.
func (db *Database) TotalRows() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	n := 0
	for _, t := range db.tables {
		n += t.Len()
	}
	return n
}

// Server hosts multiple database instances and models the "external system"
// machine (ES) of the benchmark environment. A configurable round-trip
// latency is charged on every remote call so that communication cost Cc
// stays a distinct, non-zero cost category even though everything runs
// in-process.
type Server struct {
	mu        sync.RWMutex
	instances map[string]*Database
	latency   time.Duration
	calls     uint64
	hook      CallHook
}

// CallHook observes every remote call before it executes and may fail it
// (the fault layer injects transient store errors this way). caller is
// the identity of the process instance behind the call ("" outside an
// instance), op the logical operation name ("query", "insert", ...),
// table the target table or procedure.
type CallHook func(caller, instance, op, table string) error

// NewServer creates a server with the given simulated per-call latency.
func NewServer(latency time.Duration) *Server {
	return &Server{instances: make(map[string]*Database), latency: latency}
}

// CreateInstance adds a database instance.
func (s *Server) CreateInstance(name string) *Database {
	s.mu.Lock()
	defer s.mu.Unlock()
	db := NewDatabase(name)
	s.instances[lower(name)] = db
	return db
}

// Instance returns the named instance or nil.
func (s *Server) Instance(name string) *Database {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.instances[lower(name)]
}

// InstanceNames lists the hosted instances, sorted.
func (s *Server) InstanceNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.instances))
	for _, db := range s.instances {
		names = append(names, db.Name())
	}
	sort.Strings(names)
	return names
}

// Latency returns the configured per-call latency.
func (s *Server) Latency() time.Duration {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.latency
}

// SetLatency changes the simulated per-call latency.
func (s *Server) SetLatency(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.latency = d
}

// Calls returns the number of remote calls served.
func (s *Server) Calls() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.calls
}

// SetCallHook installs (or, with nil, removes) the per-call observer.
func (s *Server) SetCallHook(h CallHook) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hook = h
}

// chargeLatency sleeps for the configured latency and counts the call.
func (s *Server) chargeLatency() {
	s.mu.Lock()
	s.calls++
	d := s.latency
	s.mu.Unlock()
	if d > 0 {
		time.Sleep(d)
	}
}

// roundTrip charges the latency of one remote call and runs the call
// hook, returning its verdict.
func (c *Conn) roundTrip(op, table string) error {
	c.server.chargeLatency()
	c.server.mu.RLock()
	h := c.server.hook
	c.server.mu.RUnlock()
	if h == nil {
		return nil
	}
	return h(c.caller, c.db.name, op, table)
}

// Conn is a client connection to one database instance on a server. Every
// operation through a Conn pays the server's latency once, mimicking a
// network round trip.
type Conn struct {
	server *Server
	db     *Database
	caller string
}

// SetCaller tags the connection with the identity of the process instance
// it serves; the call hook receives the tag with every round trip. It
// returns the Conn for chaining at the call site.
func (c *Conn) SetCaller(caller string) *Conn {
	c.caller = caller
	return c
}

// Connect opens a connection to the named instance.
func (s *Server) Connect(instance string) (*Conn, error) {
	db := s.Instance(instance)
	if db == nil {
		return nil, fmt.Errorf("relational: no instance %q", instance)
	}
	return &Conn{server: s, db: db}, nil
}

// MustConnect is Connect that panics on error.
func (s *Server) MustConnect(instance string) *Conn {
	c, err := s.Connect(instance)
	if err != nil {
		panic(err)
	}
	return c
}

// Database exposes the underlying instance for local (non-billed) setup.
func (c *Conn) Database() *Database { return c.db }

// Query runs a predicate scan over a table, one round trip. The result
// is a copy-on-write view: full-table queries serve the table's cached
// scan snapshot, so clients must not be able to corrupt it in place.
func (c *Conn) Query(table string, pred Predicate) (*Relation, error) {
	if err := c.roundTrip("query", table); err != nil {
		return nil, err
	}
	t := c.db.Table(table)
	if t == nil {
		return nil, fmt.Errorf("relational: no table %s.%s", c.db.name, table)
	}
	r, err := t.SelectWhere(pred)
	if err != nil {
		return nil, err
	}
	return r.View(), nil
}

// Scan fetches the whole table, one round trip.
func (c *Conn) Scan(table string) (*Relation, error) {
	return c.Query(table, True())
}

// QuerySince fetches the net changes after the watermark, one round
// trip. When the table cannot serve the delta (journal evicted, table
// truncated, foreign watermark) the result is a Reset delta carrying a
// full snapshot — never a silently empty one.
func (c *Conn) QuerySince(table string, since uint64) (*Delta, error) {
	if err := c.roundTrip("querysince", table); err != nil {
		return nil, err
	}
	t := c.db.Table(table)
	if t == nil {
		return nil, fmt.Errorf("relational: no table %s.%s", c.db.name, table)
	}
	return t.QuerySince(since)
}

// Insert inserts one row, one round trip.
func (c *Conn) Insert(table string, row Row) error {
	if err := c.roundTrip("insert", table); err != nil {
		return err
	}
	t := c.db.Table(table)
	if t == nil {
		return fmt.Errorf("relational: no table %s.%s", c.db.name, table)
	}
	return t.Insert(row)
}

// InsertBulk inserts a whole relation in one round trip (bulk load path).
func (c *Conn) InsertBulk(table string, r *Relation) error {
	if err := c.roundTrip("insert", table); err != nil {
		return err
	}
	t := c.db.Table(table)
	if t == nil {
		return fmt.Errorf("relational: no table %s.%s", c.db.name, table)
	}
	return t.InsertAll(r)
}

// UpsertBulk upserts a whole relation in one round trip.
func (c *Conn) UpsertBulk(table string, r *Relation) error {
	if err := c.roundTrip("upsert", table); err != nil {
		return err
	}
	t := c.db.Table(table)
	if t == nil {
		return fmt.Errorf("relational: no table %s.%s", c.db.name, table)
	}
	if !t.Schema().Equal(r.Schema()) {
		return fmt.Errorf("relational: upsert into %s: schema mismatch", table)
	}
	for i := 0; i < r.Len(); i++ {
		if err := t.Upsert(r.Row(i)); err != nil {
			return err
		}
	}
	return nil
}

// Delete removes matching rows, one round trip.
func (c *Conn) Delete(table string, pred Predicate) (int, error) {
	if err := c.roundTrip("delete", table); err != nil {
		return 0, err
	}
	t := c.db.Table(table)
	if t == nil {
		return 0, fmt.Errorf("relational: no table %s.%s", c.db.name, table)
	}
	return t.Delete(pred)
}

// Update rewrites matching rows, one round trip.
func (c *Conn) Update(table string, pred Predicate, fn func(Row) Row) (int, error) {
	if err := c.roundTrip("update", table); err != nil {
		return 0, err
	}
	t := c.db.Table(table)
	if t == nil {
		return 0, fmt.Errorf("relational: no table %s.%s", c.db.name, table)
	}
	return t.Update(pred, fn)
}

// Call invokes a stored procedure, one round trip.
func (c *Conn) Call(proc string, args ...Value) (*Relation, error) {
	if err := c.roundTrip("call", proc); err != nil {
		return nil, err
	}
	return c.db.Call(proc, args...)
}

package mtm

import (
	"context"
	"fmt"
	"sync"
	"time"

	rel "repro/internal/relational"
	"repro/internal/sched"
	x "repro/internal/xmlmsg"
)

// Cost is one of the three cost categories of the DIPBench cost model.
type Cost uint8

// Cost categories.
const (
	// CostComm (Cc) is time spent waiting for external systems: network
	// delay and external processing.
	CostComm Cost = iota
	// CostMgmt (Cm) is internal management time not correlated to a
	// concrete process instance execution: plan creation, compilation,
	// internal reorganization.
	CostMgmt
	// CostProc (Cp) is integration processing time: all control-flow- and
	// data-flow-oriented processing steps.
	CostProc
)

// String names the category as in the paper.
func (c Cost) String() string {
	switch c {
	case CostComm:
		return "Cc"
	case CostMgmt:
		return "Cm"
	case CostProc:
		return "Cp"
	default:
		return "?"
	}
}

// CostRecorder receives the measured cost intervals of one process
// instance; the Monitor implements it. Implementations must be safe for
// concurrent use (FORK branches record concurrently).
type CostRecorder interface {
	Record(cat Cost, d time.Duration)
}

// nopRecorder discards costs; used when no monitor is attached.
type nopRecorder struct{}

func (nopRecorder) Record(Cost, time.Duration) {}

// External is the gateway through which INVOKE operators reach the
// external systems (database instances, web services). The integration
// engine provides the implementation; every call is a communication-cost
// round trip. The context carries the instance's cancellation and the
// resilience layer's per-invoke deadline; implementations should honour
// it on genuine network boundaries.
type External interface {
	// Query reads rows of a table matching the predicate.
	Query(ctx context.Context, system, table string, pred rel.Predicate) (*rel.Relation, error)
	// FetchXML reads a whole table as the bytes of an XML result-set
	// document (the web-service extraction path of P09).
	FetchXML(ctx context.Context, system, table string) ([]byte, error)
	// Insert appends the dataset to a table.
	Insert(ctx context.Context, system, table string, r *rel.Relation) error
	// Upsert inserts-or-replaces the dataset by primary key.
	Upsert(ctx context.Context, system, table string, r *rel.Relation) error
	// Delete removes matching rows and returns the count.
	Delete(ctx context.Context, system, table string, pred rel.Predicate) (int, error)
	// Update sets the given columns on matching rows and returns the
	// count (the P12 "flag master data as integrated" step).
	Update(ctx context.Context, system, table string, pred rel.Predicate, set map[string]rel.Value) (int, error)
	// Call invokes a stored procedure.
	Call(ctx context.Context, system, proc string, args ...rel.Value) (*rel.Relation, error)
	// Send delivers a serialized entity XML message to a system
	// (web-service update operation, P01).
	Send(ctx context.Context, system string, msg []byte) error
}

// Context is the execution state of one process instance: the variable
// bindings msg1..msgN, the external gateway, the cost recorder and the
// triggering input message (event type E1). It is safe for concurrent use
// by FORK branches.
type Context struct {
	// Ext reaches the external systems; required for INVOKE.
	Ext External
	// Input is the message that triggered the instance (nil for E2).
	Input *Message

	rec       CostRecorder
	par       int
	columnar  bool
	layoutObs func(op string, l rel.Layout)
	sched     *sched.Handle
	goctx     context.Context
	mu        sync.Mutex
	vars      map[string]*Message
}

// NewContext builds a context. rec may be nil to discard costs.
func NewContext(ext External, input *Message, rec CostRecorder) *Context {
	if rec == nil {
		rec = nopRecorder{}
	}
	return &Context{Ext: ext, Input: input, rec: rec, vars: make(map[string]*Message)}
}

// SetContext attaches the instance's cancellation/deadline context,
// which INVOKE propagates to the external gateway. Set once before Run —
// it is not synchronized.
func (c *Context) SetContext(ctx context.Context) { c.goctx = ctx }

// Context returns the attached context (Background if none was set).
func (c *Context) Context() context.Context {
	if c.goctx == nil {
		return context.Background()
	}
	return c.goctx
}

// SetParallelism sets the intra-operator parallel degree the dataset
// operators request from the vectorized kernels and union-distinct (the
// row kernels are always sequential); <= 1 keeps every operator
// sequential. Set once before Run — it is not synchronized.
func (c *Context) SetParallelism(par int) { c.par = par }

// Parallelism returns the intra-operator parallel degree.
func (c *Context) Parallelism() int { return c.par }

// SetColumnar lets the dataset operators route eligible morsels through
// the vectorized columnar kernels (FilterVec, HashJoinVec, ...) instead of
// the row kernels. Output is bit-identical either way; this only trades
// execution strategy. Set once before Run — it is not synchronized.
func (c *Context) SetColumnar(on bool) { c.columnar = on }

// Columnar reports whether the vectorized kernels are enabled.
func (c *Context) Columnar() bool { return c.columnar }

// SetScheduler attributes this instance's parallel kernel work to the
// given scheduler handle (the owning tenant/shard) for fair-share
// arbitration on the process-wide pool; Data attaches it to every
// operator input. Nil means the default handle. Set once before Run —
// it is not synchronized.
func (c *Context) SetScheduler(h *sched.Handle) { c.sched = h }

// Scheduler returns the handle set by SetScheduler (nil for the default).
func (c *Context) Scheduler() *sched.Handle { return c.sched }

// SetLayoutObserver attaches a callback invoked with the layout (ROW or
// COLUMNAR) each dataset operator actually executed on — the EXPLAIN-style
// companion of the access-path observer. fn must be safe for concurrent
// use (FORK branches report concurrently). Set once before Run — it is
// not synchronized.
func (c *Context) SetLayoutObserver(fn func(op string, l rel.Layout)) { c.layoutObs = fn }

// recordLayout reports an operator's executed layout, if an observer is
// attached.
func (c *Context) recordLayout(op string, l rel.Layout) {
	if c.layoutObs != nil {
		c.layoutObs(op, l)
	}
}

// Get returns the variable binding, or nil.
func (c *Context) Get(name string) *Message {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.vars[name]
}

// MustGet returns the binding or an error for unbound variables.
func (c *Context) MustGet(name string) (*Message, error) {
	if m := c.Get(name); m != nil {
		return m, nil
	}
	return nil, fmt.Errorf("mtm: variable %q is not bound", name)
}

// Set binds a variable.
func (c *Context) Set(name string, m *Message) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.vars[name] = m
}

// Doc returns the XML payload of a variable, parsing a serialized one
// (see Message.RequireDoc).
func (c *Context) Doc(name string) (*x.Node, error) {
	m, err := c.MustGet(name)
	if err != nil {
		return nil, err
	}
	return m.RequireDoc(name)
}

// XML returns the serialized XML payload of a variable. A variable bound
// to a tree is serialized once: the binding is replaced by a message that
// carries both forms, so later readers get the same bytes.
func (c *Context) XML(name string) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.vars[name]
	switch {
	case m == nil:
		return nil, fmt.Errorf("mtm: variable %q is not bound", name)
	case len(m.XML) > 0:
		return m.XML, nil
	case m.Doc == nil:
		return nil, fmt.Errorf("mtm: variable %q does not hold an XML document", name)
	}
	b := m.Doc.AppendXML(nil)
	c.vars[name] = &Message{Doc: m.Doc, XML: b, Data: m.Data}
	return b, nil
}

// Data returns the relational payload of a variable.
func (c *Context) Data(name string) (*rel.Relation, error) {
	m, err := c.MustGet(name)
	if err != nil {
		return nil, err
	}
	r, err := m.RequireData(name)
	if err != nil {
		return nil, err
	}
	// Attribute the relation (and, through kernel output propagation,
	// everything derived from it) to the instance's scheduler handle.
	return r.WithPool(c.sched), nil
}

// record forwards a cost interval to the recorder.
func (c *Context) record(cat Cost, d time.Duration) { c.rec.Record(cat, d) }

// Package engine implements the integration systems under test. The
// benchmark's system under test executes the 15 MTM process types; four
// named configurations are provided over one engine core:
//
//   - NewFederated models the paper's reference implementation on a
//     commercial federated DBMS ("System A", Fig. 9): E1 messages are
//     queued in a relational queue table whose insert trigger runs the
//     integration process, every instance re-creates its execution plan
//     (no plan cache — the paper observes that the XML functionalities
//     "are apparently not included in the optimizer"), and intermediate
//     datasets are materialized like local temp tables.
//
//   - NewPipeline is an optimized engine: direct dispatch, a process
//     plan cache (management cost paid once), and streaming intermediates
//     without materialization.
//
//   - NewEAI (future work §VII of the paper) adds store-and-forward
//     message handling and a bounded worker pool.
//
//   - NewETL (future work §VII) micro-batches E1 messages.
//
// All run the identical process definitions against the identical
// external systems, so measured differences are engine differences — the
// comparison DIPBench is designed to enable. Every Options field can also
// be toggled independently for ablation studies.
package engine

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/monitor"
	"repro/internal/mtm"
	"repro/internal/processes"
	rel "repro/internal/relational"
	"repro/internal/sched"
)

// Options selects the engine's execution strategy; the ablation benchmarks
// toggle these independently.
type Options struct {
	// PlanCache caches compiled process plans; without it, every instance
	// pays the plan-creation management cost Cm.
	PlanCache bool
	// Materialize copies every intermediate dataset (temp-table style
	// materialization points, Fig. 9 b).
	Materialize bool
	// QueueTrigger routes E1 messages through a queue table whose insert
	// trigger runs the process (Fig. 9 a); otherwise messages dispatch
	// directly.
	QueueTrigger bool
	// MaxWorkers bounds the number of concurrently executing process
	// instances (an EAI server's worker thread pool); 0 means unbounded.
	// Callers block until a worker is free — the queueing delay is real
	// and shows up in the instance's costs.
	MaxWorkers int
	// BatchSize > 1 enables ETL-tool-style micro-batching of E1 messages:
	// messages of one process type are collected and processed as a batch
	// once BatchSize accumulate or BatchTimeout expires. Incompatible
	// with QueueTrigger.
	BatchSize int
	// BatchTimeout flushes a partial batch; defaults to 2ms.
	BatchTimeout time.Duration
	// Parallelism enables morsel-driven intra-operator parallelism
	// (degree = Parallelism workers per operator) in the vectorized
	// kernels and union-distinct; the row kernels are always sequential.
	// 0 or 1 keeps every operator on the sequential path — the federated
	// "System A" engine must stay sequential so its measured profile
	// matches the paper's reference implementation.
	Parallelism int
	// Resilience, when non-nil, wraps the external gateway in the fault
	// package's resilience layer: capped exponential backoff with
	// deterministic jitter, per-invoke deadlines, and a per-endpoint
	// circuit breaker. Zero policy fields fall back to fault
	// defaults.
	Resilience *fault.Policy
	// Columnar routes eligible dataset operators through the vectorized
	// columnar kernels (typed column slices + validity bitmaps) instead of
	// the row-at-a-time kernels. Results are bit-identical either way —
	// operators fall back to the row path whenever a batch is too small or
	// its types have no typed representation. Off for the federated
	// reference engine (its per-row temp-table architecture is the point of
	// comparison), on for the optimized presets.
	Columnar bool
	// Shards > 0 partitions the scenario by business region: each shard
	// runs its region's group A/B processes, consolidation extraction and
	// mart refresh on an independent child engine (own worker pool and
	// plan cache), while the warehouse is fed through a deterministic
	// cross-shard merge barrier that folds the region batches in the
	// fixed schema.Regions order. The final state is byte-identical for
	// every shard count (see shard.go). At most one shard per region; 0
	// keeps the single-engine execution path.
	Shards int
	// Scheduler attributes this engine's parallel kernel work to a
	// fair-share handle on the process-wide work-stealing scheduler
	// (internal/sched) — one handle per tenant in service mode. Shard
	// children inherit the parent's handle (the options copy in shard.go
	// carries it), so a sharded tenant still competes as one client. Nil
	// uses the process-wide default handle.
	Scheduler *sched.Handle
}

// Engine executes process instances and records their costs.
type Engine struct {
	name string
	opts Options
	defs *processes.Definitions
	ext  mtm.External
	base mtm.External // the unwrapped gateway (resilience wraps it)
	mon  *monitor.Monitor

	internal *rel.Database // engine-internal storage (queue tables)
	queueSeq atomic.Int64
	pending  sync.Map      // queue TID -> pendingExec
	workers  chan struct{} // worker-pool semaphore (nil when unbounded)

	resilient *fault.Resilient // non-nil when Options.Resilience is set

	layoutMu sync.Mutex
	layouts  map[string]LayoutCount // per-operator layout statistics

	mu       sync.RWMutex
	plans    map[string]*plan
	batchers map[string]*batcher
	closed   bool

	dlqMu      sync.Mutex
	dlq        []DeadLetter
	dlqDropped uint64
	dlqSink    func(DeadLetter) // durability hook: observes every parked letter

	planBuilds atomic.Uint64 // statistics: number of plan compilations
	instances  atomic.Uint64

	shards  *shardController // non-nil after SetShards
	shardID int              // 1-based for shard children, 0 otherwise
}

// pendingExec carries the monitor record and cancellation context of a
// queued E1 message across the SQL layer to the insert trigger.
type pendingExec struct {
	rec *monitor.InstanceRecorder
	ctx context.Context
}

// DeadLetter is one E1 message that exhausted its dispatch retries; the
// driver parks it here for post-run inspection instead of losing it.
type DeadLetter struct {
	Process string
	Period  int
	Message string // serialized XML of the triggering message
	Err     error  // the final dispatch error
}

// New creates an engine with explicit options.
func New(name string, opts Options, defs *processes.Definitions, ext mtm.External, mon *monitor.Monitor) (*Engine, error) {
	if defs == nil {
		return nil, fmt.Errorf("engine: nil process definitions")
	}
	if ext == nil {
		return nil, fmt.Errorf("engine: nil external gateway")
	}
	if mon == nil {
		mon = monitor.New(1)
	}
	e := &Engine{
		name:     name,
		opts:     opts,
		defs:     defs,
		ext:      ext,
		base:     ext,
		mon:      mon,
		internal: rel.NewDatabase("engine_internal"),
		plans:    make(map[string]*plan),
	}
	if opts.MaxWorkers < 0 {
		return nil, fmt.Errorf("engine: MaxWorkers must be non-negative, got %d", opts.MaxWorkers)
	}
	if opts.MaxWorkers > 0 {
		e.workers = make(chan struct{}, opts.MaxWorkers)
	}
	if opts.BatchSize < 0 {
		return nil, fmt.Errorf("engine: BatchSize must be non-negative, got %d", opts.BatchSize)
	}
	if opts.Parallelism < 0 {
		return nil, fmt.Errorf("engine: Parallelism must be non-negative, got %d", opts.Parallelism)
	}
	if opts.BatchSize > 1 && opts.QueueTrigger {
		return nil, fmt.Errorf("engine: BatchSize and QueueTrigger are mutually exclusive")
	}
	if opts.BatchSize > 1 {
		e.batchers = make(map[string]*batcher)
	}
	if opts.QueueTrigger {
		if err := e.setupQueues(); err != nil {
			return nil, err
		}
	}
	if opts.Resilience != nil {
		e.SetResilience(opts.Resilience, mon.Resilience())
	}
	if opts.Shards != 0 {
		if opts.Shards < 0 {
			return nil, fmt.Errorf("engine: Shards must be non-negative, got %d", opts.Shards)
		}
		n := opts.Shards
		e.opts.Shards = 0
		if err := e.SetShards(n); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// SetResilience wraps the external gateway in the resilience layer. rec
// may be nil to discard retry/trip counters. Call before the first
// Execute; the wrap is not synchronized with in-flight instances.
// Re-calling replaces the previous policy: the wrapper is always built
// over the unwrapped base gateway, never over an earlier wrapper, so
// repeated calls cannot stack retry layers.
func (e *Engine) SetResilience(p *fault.Policy, rec fault.Recorder) {
	if p == nil {
		return
	}
	pol := *p
	e.resilient = fault.NewResilient(e.base, pol, rec)
	e.ext = e.resilient
	eff := e.resilient.Policy()
	e.opts.Resilience = &eff
	if e.shards != nil {
		// The shards share the parent's gateway — swap in the new wrapper
		// so their external calls retry and trip through the same layer.
		for _, c := range e.shards.children {
			c.ext = e.resilient
			c.resilient = e.resilient
			c.opts.Resilience = &eff
		}
	}
}

// Resilient returns the resilience wrapper (nil when resilience is off).
func (e *Engine) Resilient() *fault.Resilient { return e.resilient }

// SetColumnar overrides the Options.Columnar preset — the `-columnar`
// flag's hook. Call before the first Execute; the switch is not
// synchronized with in-flight instances.
func (e *Engine) SetColumnar(on bool) {
	e.opts.Columnar = on
	if e.shards != nil {
		for _, c := range e.shards.children {
			c.SetColumnar(on)
		}
	}
}

// SetScheduler overrides the Options.Scheduler handle, propagating it to
// existing shard children so the whole tenant keeps one fair-share
// identity. Call before Execute traffic starts.
func (e *Engine) SetScheduler(h *sched.Handle) {
	e.opts.Scheduler = h
	if e.shards != nil {
		for _, c := range e.shards.children {
			c.SetScheduler(h)
		}
	}
}

// LayoutCount tallies how often an operator executed on each layout.
type LayoutCount struct {
	Row      uint64
	Columnar uint64
}

// LayoutStats returns the per-operator layout counts collected so far
// (operator kind -> counts). Empty unless Columnar is on — the row-only
// engines never report.
func (e *Engine) LayoutStats() map[string]LayoutCount {
	e.layoutMu.Lock()
	out := make(map[string]LayoutCount, len(e.layouts))
	for k, v := range e.layouts {
		out[k] = v
	}
	e.layoutMu.Unlock()
	if e.shards != nil {
		for _, c := range e.shards.children {
			for k, v := range c.LayoutStats() {
				m := out[k]
				m.Row += v.Row
				m.Columnar += v.Columnar
				out[k] = m
			}
		}
	}
	return out
}

// recordLayout is the context observer counting executed layouts.
func (e *Engine) recordLayout(op string, l rel.Layout) {
	e.layoutMu.Lock()
	if e.layouts == nil {
		e.layouts = make(map[string]LayoutCount)
	}
	c := e.layouts[op]
	if l == rel.LayoutColumnar {
		c.Columnar++
	} else {
		c.Row++
	}
	e.layouts[op] = c
	e.layoutMu.Unlock()
}

// AddDeadLetter parks an E1 message that exhausted its dispatch retries.
// The queue is capped at the policy's DLQLimit (default 1024); beyond it
// entries are counted but dropped.
func (e *Engine) AddDeadLetter(process string, period int, msg []byte, err error) {
	limit := 1024
	if e.opts.Resilience != nil && e.opts.Resilience.DLQLimit > 0 {
		limit = e.opts.Resilience.DLQLimit
	}
	text := string(msg)
	e.dlqMu.Lock()
	if len(e.dlq) >= limit {
		e.dlqDropped++
		e.dlqMu.Unlock()
		return
	}
	dl := DeadLetter{Process: process, Period: period, Message: text, Err: err}
	e.dlq = append(e.dlq, dl)
	sink := e.dlqSink
	e.dlqMu.Unlock()
	if sink != nil {
		sink(dl)
	}
}

// SetDLQSink installs (or, with nil, removes) a hook observing every
// parked dead letter — the WAL's durability tap.
func (e *Engine) SetDLQSink(fn func(DeadLetter)) {
	e.dlqMu.Lock()
	defer e.dlqMu.Unlock()
	e.dlqSink = fn
}

// DeadLetters returns a copy of the dead-letter queue and the count of
// entries dropped over the cap.
func (e *Engine) DeadLetters() ([]DeadLetter, uint64) {
	e.dlqMu.Lock()
	defer e.dlqMu.Unlock()
	out := make([]DeadLetter, len(e.dlq))
	copy(out, e.dlq)
	return out, e.dlqDropped
}

// DLQDepth returns the number of parked dead letters.
func (e *Engine) DLQDepth() int {
	e.dlqMu.Lock()
	defer e.dlqMu.Unlock()
	return len(e.dlq)
}

// errEngineClosed reports submissions after Close.
var errEngineClosed = fmt.Errorf("engine: closed")

// Close drains the micro-batchers; further E1 submissions fail. It is
// only needed for batching engines but safe on all.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	batchers := make([]*batcher, 0, len(e.batchers))
	for _, b := range e.batchers {
		batchers = append(batchers, b)
	}
	e.mu.Unlock()
	for _, b := range batchers {
		b.close()
	}
	if e.shards != nil {
		for _, c := range e.shards.children {
			_ = c.Close()
		}
	}
	return nil
}

// batchTimeout returns the effective partial-batch flush timeout.
func (e *Engine) batchTimeout() time.Duration {
	if e.opts.BatchTimeout > 0 {
		return e.opts.BatchTimeout
	}
	return 2 * time.Millisecond
}

// batcherFor returns (creating on demand) the process's batcher. Every E1
// submit of a batching engine passes through here, so the steady state — the
// batcher already exists — takes only a read lock; concurrent streams then
// proceed without serializing on e.mu.
func (e *Engine) batcherFor(p *mtm.Process) *batcher {
	e.mu.RLock()
	b, ok := e.batchers[p.ID]
	e.mu.RUnlock()
	if ok {
		return b
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if b, ok := e.batchers[p.ID]; ok { // lost the creation race
		return b
	}
	b = newBatcher(e, p)
	e.batchers[p.ID] = b
	return b
}

// NewFederated creates the "System A" reference engine (Fig. 9).
func NewFederated(defs *processes.Definitions, ext mtm.External, mon *monitor.Monitor) (*Engine, error) {
	return New("federated (System A)", Options{
		PlanCache: false, Materialize: true, QueueTrigger: true,
	}, defs, ext, mon)
}

// DefaultParallelism is the intra-operator parallel degree the optimized
// engine presets use: one worker per available core.
func DefaultParallelism() int { return runtime.GOMAXPROCS(0) }

// NewPipeline creates the optimized pipelined engine.
func NewPipeline(defs *processes.Definitions, ext mtm.External, mon *monitor.Monitor) (*Engine, error) {
	return New("pipeline", Options{
		PlanCache: true, Materialize: false, QueueTrigger: false,
		Parallelism: DefaultParallelism(), Columnar: true,
	}, defs, ext, mon)
}

// DefaultEAIWorkers is the worker-pool size of the EAI-style engine.
const DefaultEAIWorkers = 4

// NewEAI creates an EAI-server-style engine — the paper's future-work
// comparison target ("we currently realize experiments with EAI servers
// and ETL tools"): store-and-forward message handling (queue + re-parse,
// like the federated E1 path), plan caching, streaming intermediates, and
// a bounded worker pool that serializes excess concurrency.
func NewEAI(defs *processes.Definitions, ext mtm.External, mon *monitor.Monitor) (*Engine, error) {
	return New("eai", Options{
		PlanCache: true, QueueTrigger: true, MaxWorkers: DefaultEAIWorkers,
		Parallelism: DefaultParallelism(), Columnar: true,
	}, defs, ext, mon)
}

// DefaultETLBatch is the micro-batch size of the ETL-style engine.
const DefaultETLBatch = 8

// NewETL creates an ETL-tool-style engine — the paper's other future-work
// comparison target: plan caching, streaming intermediates, and
// micro-batched E1 message processing (per-message latency traded for
// amortized batch execution).
func NewETL(defs *processes.Definitions, ext mtm.External, mon *monitor.Monitor) (*Engine, error) {
	return New("etl", Options{
		PlanCache: true, BatchSize: DefaultETLBatch,
		Parallelism: DefaultParallelism(), Columnar: true,
	}, defs, ext, mon)
}

// Name returns the engine's display name.
func (e *Engine) Name() string { return e.name }

// Options returns the engine's execution options.
func (e *Engine) Options() Options { return e.opts }

// Monitor returns the attached monitor.
func (e *Engine) Monitor() *monitor.Monitor { return e.mon }

// Stats returns cumulative engine statistics (including all shards).
func (e *Engine) Stats() (instances, planBuilds uint64) {
	instances, planBuilds = e.instances.Load(), e.planBuilds.Load()
	if e.shards != nil {
		for _, c := range e.shards.children {
			i, p := c.Stats()
			instances += i
			planBuilds += p
		}
	}
	return instances, planBuilds
}

// queueSchema is the Fig. 9 message queue table layout:
// TID BIGINT PRIMARY KEY, MSG CLOB.
var queueSchema = rel.MustSchema([]rel.Column{
	rel.Col("TID", rel.TypeInt),
	rel.Col("MSG", rel.TypeString),
}, "TID")

// setupQueues creates one queue table per E1 process type and installs
// the insert triggers that run the integration processes.
func (e *Engine) setupQueues() error {
	for _, p := range e.defs.All() {
		if p.Event != mtm.E1 {
			continue
		}
		p := p
		tbl, err := e.internal.CreateTable(p.ID+"_Queue", queueSchema)
		if err != nil {
			return err
		}
		tbl.AddTrigger(rel.OnInsert, func(_ *rel.Table, _, new rel.Row) error {
			var rec *monitor.InstanceRecorder
			ctx := context.Background()
			if v, ok := e.pending.Load(new[0].Int()); ok {
				pe := v.(pendingExec)
				rec, ctx = pe.rec, pe.ctx
			}
			// The trigger evaluates the logical "inserted" row: the queued
			// text — read back out of the SQL layer, genuine per-message
			// overhead of this architecture — becomes the process's
			// serialized input message.
			return e.runInstance(ctx, p, mtm.RawXMLMessage([]byte(new[1].Str())), rec)
		})
	}
	return nil
}

// Execute runs one instance of the process type synchronously, recording
// its costs under the given benchmark period. input is the serialized E1
// message (nil for E2 processes); the engine reads it during the call
// only, so the caller may reuse the buffer once Execute returns.
func (e *Engine) Execute(processID string, input []byte, period int) error {
	return e.ExecuteContext(context.Background(), processID, input, period)
}

// ExecuteContext is Execute under a caller-supplied context; cancelling
// it aborts the instance's external calls (the resilience layer layers
// its per-invoke deadline on top).
func (e *Engine) ExecuteContext(ctx context.Context, processID string, input []byte, period int) error {
	if sc := e.shards; sc != nil {
		if handled, err := sc.route(ctx, processID, input, period); handled {
			return err
		}
	}
	p := e.defs.ByID(processID)
	if p == nil {
		return fmt.Errorf("engine: unknown process %q", processID)
	}
	if err := e.acquireWorker(ctx); err != nil {
		return err
	}
	defer e.releaseWorker()
	if p.Event == mtm.E1 {
		if len(input) == 0 {
			return fmt.Errorf("engine: process %s requires an input message", processID)
		}
		if e.opts.QueueTrigger {
			return e.executeViaQueue(ctx, p, input, period)
		}
		if e.opts.BatchSize > 1 {
			return e.batcherFor(p).submit(input, period)
		}
		return e.runInstanceRetried(ctx, p, mtm.RawXMLMessage(input), period)
	}
	if len(input) > 0 {
		return fmt.Errorf("engine: process %s is time-scheduled and takes no message", processID)
	}
	// Time-scheduled instances get the same re-issue budget as
	// message-triggered ones: without it a transient streak that outlasts
	// the call-level retries marks the whole period as failed.
	return e.runInstanceRetried(ctx, p, nil, period)
}

// acquireWorker takes a worker-pool slot, honouring the caller's context:
// a cancelled instance must not block forever on a saturated pool (the
// cross-shard merge barrier waits on these acquisitions, so an unbounded
// wait here would wedge the whole barrier).
func (e *Engine) acquireWorker(ctx context.Context) error {
	if e.workers == nil {
		return nil
	}
	select {
	case e.workers <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// releaseWorker returns a slot taken by acquireWorker (no-op unbounded).
func (e *Engine) releaseWorker() {
	if e.workers != nil {
		<-e.workers
	}
}

// sqlBufPool recycles the scratch buffers executeViaQueue serializes into;
// the E1 path runs once per message, so per-message allocations add up.
var sqlBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

// executeViaQueue realizes the Fig. 9 a) path: INSERT the serialized
// message into the process's queue table through the SQL layer, and let
// the insert trigger run the process. The INSERT statement is assembled on
// a pooled buffer.
func (e *Engine) executeViaQueue(ctx context.Context, p *mtm.Process, input []byte, period int) error {
	rec := e.mon.StartInstanceShard(p.ID, period, e.shardID)
	e.instances.Add(1)
	serStart := time.Now()
	tid := e.queueSeq.Add(1)
	bp := sqlBufPool.Get().(*[]byte)
	buf := append((*bp)[:0], "INSERT INTO "...)
	buf = append(buf, p.ID...)
	buf = append(buf, "_Queue VALUES ("...)
	buf = strconv.AppendInt(buf, tid, 10)
	buf = append(buf, ", '"...)
	buf = appendSQLQuoted(buf, input)
	buf = append(buf, "')"...)
	sql := string(buf)
	*bp = buf[:0]
	sqlBufPool.Put(bp)
	rec.Record(mtm.CostProc, time.Since(serStart))
	e.pending.Store(tid, pendingExec{rec: rec, ctx: ctx})
	defer e.pending.Delete(tid)
	_, err := e.internal.Exec(sql)
	rec.Finish(err)
	return err
}

// appendSQLQuoted appends the message onto dst with SQL string-literal
// quoting (” for '). Serialized XML escapes apostrophes as &#39;, so the
// doubling pass is almost always a straight copy.
func appendSQLQuoted(dst, payload []byte) []byte {
	for {
		i := bytes.IndexByte(payload, '\'')
		if i < 0 {
			return append(dst, payload...)
		}
		dst = append(dst, payload[:i]...)
		dst = append(dst, '\'', '\'')
		payload = payload[i+1:]
	}
}

// runInstanceRecorded wraps runInstance with a fresh monitor record.
func (e *Engine) runInstanceRecorded(ctx context.Context, p *mtm.Process, input *mtm.Message, period int) error {
	rec := e.mon.StartInstanceShard(p.ID, period, e.shardID)
	e.instances.Add(1)
	err := e.runInstance(ctx, p, input, rec)
	rec.Finish(err)
	return err
}

// runInstanceRetried is runInstanceRecorded with the dispatch-level
// retry budget applied INSIDE the instance: an external call that stays
// transiently faulty through all its attempts is re-issued
// (fault.WithReissues), so the execution ledger counts exactly one entry
// per dispatched instance with its final outcome. Only the failed call
// runs again — re-running the whole instance would re-apply its earlier
// plain inserts (P13's warehouse loads, P14's mart loads, the CDB loads
// of group B) and fail them with "duplicate key".
func (e *Engine) runInstanceRetried(ctx context.Context, p *mtm.Process, input *mtm.Message, period int) error {
	if pol := e.opts.Resilience; pol != nil {
		ctx = fault.WithReissues(ctx, pol.DispatchRetries)
	}
	return e.runInstanceRecorded(ctx, p, input, period)
}

// runInstance compiles (or fetches) the plan and executes the operators.
// rec may be nil (costs discarded).
func (e *Engine) runInstance(goctx context.Context, p *mtm.Process, input *mtm.Message, rec *monitor.InstanceRecorder) error {
	var costRec mtm.CostRecorder
	if rec != nil {
		costRec = rec
	}
	// Plan creation: internal management cost Cm.
	mgmtStart := time.Now()
	pl := e.plan(p)
	if rec != nil {
		rec.Record(mtm.CostMgmt, time.Since(mgmtStart))
	}
	ctx := mtm.NewContext(e.ext, input, costRec)
	// Tag the instance's external calls with its process identity so the
	// fault boundaries key decision streams per caller.
	ctx.SetContext(fault.WithCaller(goctx, p.ID))
	ctx.SetParallelism(e.opts.Parallelism)
	if e.opts.Scheduler != nil {
		ctx.SetScheduler(e.opts.Scheduler)
	}
	if e.opts.Columnar {
		ctx.SetColumnar(true)
		ctx.SetLayoutObserver(e.recordLayout)
	}
	return mtm.Run(pl.process, ctx)
}

// QueueDepth reports the rows currently held in the E1 queue tables —
// with synchronous triggers this equals the number of processed messages
// retained for audit.
func (e *Engine) QueueDepth() int {
	depth := 0
	if e.opts.QueueTrigger {
		depth = e.internal.TotalRows()
	}
	if e.shards != nil {
		for _, c := range e.shards.children {
			depth += c.QueueDepth()
		}
	}
	return depth
}

// ResetQueues marks a period boundary: pending micro-batches are drained —
// a partial batch submitted in period k must execute and be recorded under
// period k, not under k+1 — and the engine-internal queue tables are
// truncated.
func (e *Engine) ResetQueues() {
	e.mu.RLock()
	batchers := make([]*batcher, 0, len(e.batchers))
	for _, b := range e.batchers {
		batchers = append(batchers, b)
	}
	e.mu.RUnlock()
	for _, b := range batchers {
		b.drain()
	}
	if e.opts.QueueTrigger {
		e.internal.TruncateAll()
	}
	if e.shards != nil {
		for _, c := range e.shards.children {
			c.ResetQueues()
		}
	}
}

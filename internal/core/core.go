// Package core is the public facade of the DIPBench reproduction: it wires
// the scenario topology, the process definitions, an integration engine,
// the monitor and the workload client into a single Benchmark value with a
// one-call Run.
//
// A minimal complete run:
//
//	b, err := core.New(core.Config{
//		Datasize:  0.05,
//		TimeScale: 1.0,
//		Periods:   10,
//		Engine:    core.EngineFederated,
//	})
//	if err != nil { ... }
//	defer b.Close()
//	result, err := b.Run()
//	fmt.Print(result.Report)
package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/datagen"
	"repro/internal/driver"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/monitor"
	"repro/internal/processes"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/schedule"
)

// Engine identifiers accepted by Config.Engine.
const (
	// EngineFederated is the Fig. 9 "System A" reference implementation.
	EngineFederated = "federated"
	// EnginePipeline is the optimized pipelined engine.
	EnginePipeline = "pipeline"
	// EngineEAI is the EAI-server-style engine (store-and-forward with a
	// bounded worker pool) — one of the paper's future-work comparison
	// targets.
	EngineEAI = "eai"
	// EngineETL is the ETL-tool-style engine (micro-batched message
	// processing) — the paper's other future-work comparison target.
	EngineETL = "etl"
)

// Config parameterizes a benchmark.
type Config struct {
	// Datasize is the continuous scale factor d (> 0).
	Datasize float64
	// TimeScale is the continuous scale factor t: 1 tu = 1/t ms.
	// Defaults to 1.
	TimeScale float64
	// Distribution is the discrete scale factor f: "uniform" (default)
	// or "skewed".
	Distribution string
	// Periods is the number of benchmark periods (1..100); the full
	// benchmark runs 100. Defaults to 1.
	Periods int
	// Seed is the global generation seed.
	Seed uint64
	// Engine selects the system under test: "federated" (default) or
	// "pipeline".
	Engine string
	// EngineOptions overrides the per-engine execution strategy when
	// non-nil (ablation studies).
	EngineOptions *engine.Options
	// DBLatency is the simulated per-call latency of the external
	// database server.
	DBLatency time.Duration
	// WSDelay is the artificial extra delay per web-service call.
	WSDelay time.Duration
	// RemoteDB places the database server behind a real HTTP protocol
	// boundary, reproducing the paper's separate external-system machine
	// (every database call becomes a genuine network round trip).
	RemoteDB bool
	// FastClock skips idle waiting between scheduled events (functional
	// runs); the default real-time clock honours the schedule deadlines.
	FastClock bool
	// Verify runs the post-phase functional verification.
	Verify bool
	// Trace records every dispatched event for schedule auditing
	// (retrieve it with Benchmark.Trace).
	Trace bool
	// OnPeriod, when non-nil, receives per-period progress callbacks.
	OnPeriod func(k int, s driver.PeriodStats)
	// DrainCheck, when non-nil, is consulted at every committed stream
	// barrier: returning true stops the run there with driver.ErrDrained.
	// Combined with WALDir this is the graceful-drain primitive — the
	// barrier's checkpoint is already durable, so a later Resume continues
	// the run exactly-once from the drain point.
	DrainCheck func() bool

	// FaultRate > 0 enables deterministic fault injection at every
	// external-system boundary: each external call draws from the
	// seed-derived fault plan with this probability.
	FaultRate float64
	// FaultSeed drives the fault plan (defaults to Seed when 0).
	FaultSeed uint64
	// FaultLatency is the nominal injected latency spike (fault package
	// default when 0).
	FaultLatency time.Duration
	// Resilience overrides the engine's resilience policy. When nil and
	// FaultRate > 0, the default policy is installed — a faulty run
	// without a consuming-side recovery layer would only measure losses.
	Resilience *fault.Policy
	// ChaosVerify, after a successful faulty run, executes a fault-free
	// twin of the same configuration and asserts the integrated data is
	// byte-identical — transient faults absorbed by retries must be
	// invisible in the warehouse and marts.
	ChaosVerify bool

	// Columnar overrides the engine preset's execution-layout default:
	// "on" forces the vectorized columnar kernels for eligible dataset
	// operators, "off" forces the row kernels, "" keeps the preset (off
	// for federated, on for the optimized engines). Results are
	// bit-identical either way.
	Columnar string
	// Shards > 0 partitions the engine into region shards (at most one
	// per business region, so 1..3): each shard runs its region's sources,
	// consolidation extraction and mart refresh on an independent engine
	// instance; the warehouse is fed through a deterministic cross-shard
	// merge barrier in fixed region order. 0 keeps the single-engine path.
	Shards int
	// ShardVerify, after a successful sharded run, executes an unsharded
	// twin of the same configuration and asserts the integrated data is
	// byte-identical — the shard count must be invisible in the warehouse,
	// views and marts. Requires Shards > 0.
	ShardVerify bool
	// MVCheckEvery > 0 recomputes every OrdersMV from scratch every N-th
	// period — a typed fold of Orders into (count, sum) per (Year, Month,
	// Custkey), independent of the refresh procedure — and aborts on any
	// divergence from the stored view: counts must be equal and sums
	// bit-equal. Verify implies MVCheckEvery=1 when unset.
	MVCheckEvery int

	// WALDir enables crash-consistent checkpointing: the write-ahead log
	// and periodic state snapshots live in this directory. Empty disables
	// the durability layer.
	WALDir string
	// CheckpointEvery controls snapshot frequency when WALDir is set:
	// 1 (default) snapshots at every stream barrier, N>1 only at the
	// period-end barrier of every Nth period. The WAL records every
	// barrier either way.
	CheckpointEvery int
	// Resume restores the run from the latest valid checkpoint in WALDir
	// instead of cold-starting: snapshot restore, WAL-suffix replay,
	// idempotent re-execution of the interrupted streams.
	Resume bool
	// CrashAt injects a deterministic crash at "period:stream:occurrence"
	// (e.g. "1:A:3" = after the 3rd completed stream-A event of period 1;
	// occurrence 0 = at the stream's closing barrier, before its
	// checkpoint commits). The run stops with fault.ErrCrash and drops
	// the unflushed WAL tail, simulating a process kill.
	CrashAt string

	// Scheduler attributes the run's parallel kernel work to this
	// fair-share handle on the process-wide work-stealing scheduler —
	// service mode passes each tenant's governor-admitted handle here.
	// Nil with SchedShare 0 uses the process-wide default handle.
	Scheduler *sched.Handle
	// SchedShare > 0 (only when Scheduler is nil) registers a private
	// handle with this fair-share weight on the default scheduler for the
	// run's lifetime — the `-sched-share` flag of solo dipbench runs.
	SchedShare float64
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.TimeScale == 0 {
		c.TimeScale = 1
	}
	if c.Distribution == "" {
		c.Distribution = "uniform"
	}
	if c.Periods == 0 {
		c.Periods = 1
	}
	if c.Engine == "" {
		c.Engine = EngineFederated
	}
	return c
}

// Benchmark is a ready-to-run DIPBench instance.
type Benchmark struct {
	cfg     Config
	scn     *scenario.Scenario
	eng     *engine.Engine
	mon     *monitor.Monitor
	client  *driver.Client
	trace   *driver.Trace
	plan    *fault.Plan         // non-nil when FaultRate > 0
	rc      *recoveryController // non-nil when WALDir is set
	crasher *fault.Crasher      // non-nil when CrashAt is set

	sched     *sched.Handle // the run's fair-share handle (nil = default)
	ownsSched bool          // Close must release a SchedShare-made handle

	closeOnce sync.Once
	closeErr  error
}

// built counts New calls, so tests can pin how many benchmarks a run with
// twin verification builds.
var built atomic.Int64

// New builds the full benchmark stack from a configuration.
func New(cfg Config) (*Benchmark, error) {
	built.Add(1)
	cfg = cfg.withDefaults()
	dist, ok := datagen.ParseDistribution(cfg.Distribution)
	if !ok {
		return nil, fmt.Errorf("core: unknown distribution %q", cfg.Distribution)
	}
	sf := schedule.ScaleFactors{Datasize: cfg.Datasize, Time: cfg.TimeScale, Dist: dist}
	if err := sf.Validate(); err != nil {
		return nil, err
	}
	scn, err := scenario.New(scenario.Options{
		DBLatency: cfg.DBLatency, WSDelay: cfg.WSDelay, RemoteDB: cfg.RemoteDB,
	})
	if err != nil {
		return nil, err
	}
	defs, err := processes.New()
	if err != nil {
		_ = scn.Close()
		return nil, err
	}
	mon := monitor.New(cfg.TimeScale)
	var eng *engine.Engine
	switch {
	case cfg.EngineOptions != nil:
		eng, err = engine.New(cfg.Engine, *cfg.EngineOptions, defs, scn.Gateway(), mon)
	case cfg.Engine == EngineFederated:
		eng, err = engine.NewFederated(defs, scn.Gateway(), mon)
	case cfg.Engine == EnginePipeline:
		eng, err = engine.NewPipeline(defs, scn.Gateway(), mon)
	case cfg.Engine == EngineEAI:
		eng, err = engine.NewEAI(defs, scn.Gateway(), mon)
	case cfg.Engine == EngineETL:
		eng, err = engine.NewETL(defs, scn.Gateway(), mon)
	default:
		err = fmt.Errorf("core: unknown engine %q", cfg.Engine)
	}
	if err != nil {
		_ = scn.Close()
		return nil, err
	}
	var schedHandle *sched.Handle
	ownsSched := false
	// fail releases the partially built stack on the remaining error
	// paths — the engine exists from here on, so dropping it without Close
	// would leak its batchers.
	fail := func(err error) (*Benchmark, error) {
		if ownsSched {
			schedHandle.Close()
		}
		_ = eng.Close()
		_ = scn.Close()
		return nil, err
	}
	switch cfg.Columnar {
	case "":
	case "on":
		eng.SetColumnar(true)
	case "off":
		eng.SetColumnar(false)
	default:
		return fail(fmt.Errorf("core: Columnar must be \"\", \"on\" or \"off\", got %q", cfg.Columnar))
	}
	// Fair-share attribution: a tenant handle from the service governor,
	// or a private handle registered for this run's lifetime, or (both
	// unset) the process-wide default handle. The engine hands it to every
	// instance context; shard children inherit it through the options copy.
	schedHandle = cfg.Scheduler
	if schedHandle == nil && cfg.SchedShare > 0 {
		schedHandle = sched.Default().Register("", cfg.SchedShare)
		ownsSched = true
	}
	if schedHandle != nil {
		eng.SetScheduler(schedHandle)
	}
	var plan *fault.Plan
	if cfg.FaultRate > 0 {
		seed := cfg.FaultSeed
		if seed == 0 {
			seed = cfg.Seed
		}
		plan = fault.NewPlan(fault.Config{
			Seed: seed, Rate: cfg.FaultRate, LatencySpike: cfg.FaultLatency,
		})
		if cfg.Resilience == nil {
			cfg.Resilience = fault.DefaultPolicy()
		}
	}
	if cfg.Resilience != nil && eng.Resilient() == nil {
		eng.SetResilience(cfg.Resilience, mon.Resilience())
	}
	// Sharding partitions the fully configured engine (columnar and
	// resilience settings propagate into the shard children at
	// creation) and must precede the durability layer so a resume restores
	// into the sharded shape.
	if cfg.Shards < 0 {
		return fail(fmt.Errorf("core: Shards must be >= 0, got %d", cfg.Shards))
	}
	if cfg.Shards > 0 && eng.ShardCount() == 0 {
		if err := eng.SetShards(cfg.Shards); err != nil {
			return fail(err)
		}
	}
	if cfg.ShardVerify && cfg.Shards == 0 {
		return fail(fmt.Errorf("core: ShardVerify requires Shards > 0"))
	}
	// The durability layer comes up after the engine is fully configured
	// (a resume restores into the final shape) but before fault injection
	// is armed: a snapshot restore must never draw injected faults.
	var (
		rc  *recoveryController
		res *driver.Resume
	)
	if cfg.WALDir != "" {
		rc, res, err = newRecoveryController(cfg, scn, eng, mon, plan)
		if err != nil {
			return fail(err)
		}
	} else if cfg.Resume {
		return fail(fmt.Errorf("core: Resume requires WALDir"))
	}
	if plan != nil {
		scn.InstallFaultPlan(plan)
	}
	var crasher *fault.Crasher
	if cfg.CrashAt != "" {
		cp, err := fault.ParseCrashPoint(cfg.CrashAt)
		if err != nil {
			if rc != nil {
				_ = rc.close()
			}
			return fail(err)
		}
		crasher = fault.NewCrasher(cp)
	}
	var clock driver.Clock
	if cfg.FastClock {
		clock = driver.FastClock{}
	}
	var trace *driver.Trace
	if cfg.Trace {
		trace = driver.NewTrace()
	}
	mvEvery := cfg.MVCheckEvery
	if mvEvery == 0 && cfg.Verify {
		mvEvery = 1
	}
	dcfg := driver.Config{
		Scale:        sf,
		Periods:      cfg.Periods,
		Seed:         cfg.Seed,
		Clock:        clock,
		Verify:       cfg.Verify,
		Trace:        trace,
		OnPeriod:     cfg.OnPeriod,
		DrainCheck:   cfg.DrainCheck,
		MVCheckEvery: mvEvery,
		Resume:       res,
		Crasher:      crasher,
	}
	if rc != nil {
		dcfg.Log = rc
	}
	client, err := driver.NewClient(dcfg, scn, eng)
	if err != nil {
		if rc != nil {
			_ = rc.close()
		}
		return fail(err)
	}
	return &Benchmark{
		cfg: cfg, scn: scn, eng: eng, mon: mon, client: client,
		trace: trace, plan: plan, rc: rc, crasher: crasher,
		sched: schedHandle, ownsSched: ownsSched,
	}, nil
}

// Trace returns the event trace (nil unless Config.Trace was set).
func (b *Benchmark) Trace() *driver.Trace { return b.trace }

// FaultPlan returns the deterministic fault plan (nil unless FaultRate
// was set).
func (b *Benchmark) FaultPlan() *fault.Plan { return b.plan }

// Config returns the effective (defaulted) configuration.
func (b *Benchmark) Config() Config { return b.cfg }

// Scenario exposes the topology (for examples and inspection).
func (b *Benchmark) Scenario() *scenario.Scenario { return b.scn }

// Engine exposes the system under test.
func (b *Benchmark) Engine() *engine.Engine { return b.eng }

// Monitor exposes the cost monitor.
func (b *Benchmark) Monitor() *monitor.Monitor { return b.mon }

// Result bundles the outcome of a benchmark run.
type Result struct {
	// Stats summarizes the executed events.
	Stats *driver.RunStats
	// Report is the analyzed NAVG+ performance report.
	Report *monitor.Report
	// Chaos is the fault-transparency verification against the fault-free
	// twin run (nil unless Config.ChaosVerify).
	Chaos *driver.VerificationResult
	// Shard is the shard-transparency verification against the unsharded
	// twin run (nil unless Config.ShardVerify).
	Shard *driver.VerificationResult
}

// Run executes the benchmark (work phase, plus post-phase verification
// when configured) and analyzes the measurements.
func (b *Benchmark) Run() (*Result, error) {
	return b.RunContext(context.Background())
}

// RunContext is Run with cancellation: a cancelled context stops the run
// promptly; the partial measurements collected so far remain available on
// the Monitor.
func (b *Benchmark) RunContext(ctx context.Context) (*Result, error) {
	stats, err := b.client.RunContext(ctx)
	if err != nil {
		if errors.Is(err, fault.ErrCrash) {
			// The injected crash kills the process: the buffered WAL tail
			// is dropped exactly as a real kill would drop it.
			b.rc.abandon()
		}
		if errors.Is(err, driver.ErrDrained) {
			// A drained run stopped at a committed barrier: the partial
			// measurements are valid, the checkpoint is durable, and the
			// twin verifications are deferred to the resumed run.
			b.recordSchedStats()
			return &Result{Stats: stats, Report: b.mon.Analyze()}, err
		}
		return nil, err
	}
	b.recordSchedStats()
	res := &Result{Stats: stats, Report: b.mon.Analyze()}
	if b.cfg.ChaosVerify {
		res.Chaos, err = b.runTwin(ctx, "chaos", "identical to fault-free run", func(*Config) {})
	}
	if err == nil && b.cfg.ShardVerify {
		res.Shard, err = b.runTwin(ctx, "shard", "identical to unsharded run",
			func(c *Config) { c.Shards = 0 })
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// runTwin executes a twin of this benchmark's configuration — same seed,
// scale, engine, periods, layout and shards, changed
// only by mutate — and compares the integrated data of both runs. The
// twin runs on the fast clock with no fault injection, tracing,
// durability, progress callbacks or verification of its own, so it never
// starts a twin itself. label names the twin in the result's checks and in
// errors; okInfo describes a passing comparison.
func (b *Benchmark) runTwin(ctx context.Context, label, okInfo string, mutate func(*Config)) (*driver.VerificationResult, error) {
	cfg := b.cfg
	cfg.FaultRate, cfg.FaultSeed, cfg.Resilience = 0, 0, nil
	cfg.ChaosVerify, cfg.ShardVerify = false, false
	cfg.FastClock, cfg.Verify, cfg.MVCheckEvery, cfg.Trace = true, false, 0, false
	cfg.OnPeriod, cfg.DrainCheck = nil, nil
	cfg.WALDir, cfg.CheckpointEvery, cfg.Resume, cfg.CrashAt = "", 0, false, ""
	mutate(&cfg)
	twin, err := New(cfg)
	if err == nil {
		defer twin.Close()
		_, err = twin.RunContext(ctx)
	}
	if err != nil {
		return nil, fmt.Errorf("core: %s twin run: %w", label, err)
	}
	return driver.VerifyTwin(label, okInfo, b.scn, twin.scn), nil
}

// recordSchedStats publishes the run's fair-share scheduler accounting
// to the monitor just before analysis. The numbers are observability
// only — they are cumulative per handle (the default handle spans the
// whole process) and never enter the execution-ledger digest, so state
// digests stay scheduler-invariant.
func (b *Benchmark) recordSchedStats() {
	h := b.sched
	if h == nil {
		h = sched.DefaultHandle()
	}
	hs := h.Stats()
	ss := h.Scheduler().Stats()
	b.mon.SetSched(monitor.SchedStats{
		Handle:      hs.Name,
		Weight:      hs.Weight,
		Sets:        hs.Submitted,
		Inline:      hs.Inline,
		CallerTasks: hs.CallerTasks,
		WorkerTasks: hs.WorkerTasks,
		Stolen:      hs.Stolen,
		MaxWorkers:  ss.MaxWorkers,
		Workers:     ss.Workers,
		QueueDepth:  ss.QueueDepth,
		Dispatches:  ss.Dispatches,
		Steals:      ss.Steals,
		Spawned:     ss.Spawned,
	})
}

// Scheduler returns the run's fair-share handle (nil when the run uses
// the process-wide default handle).
func (b *Benchmark) Scheduler() *sched.Handle { return b.sched }

// StateDigest returns a hex SHA-256 over the benchmark's externally
// observable final state: the integrated data of the warehouse, views
// and marts plus the monitor's execution ledger. Two runs of the same
// configuration — one uninterrupted, one crashed and resumed — must
// produce identical digests; this is the recovery equivalence check the
// CI smoke job asserts.
func (b *Benchmark) StateDigest() string {
	h := sha256.New()
	h.Write([]byte(driver.SnapshotIntegrated(b.scn)))
	h.Write([]byte("\n#ledger\n"))
	h.Write([]byte(b.mon.LedgerDigest()))
	return hex.EncodeToString(h.Sum(nil))
}

// Close releases the benchmark's resources in dependency order: first
// the engine (its batchers flush through the gateway), then the
// durability layer's WAL (the final barrier records must be synced
// before the stores go away), then the topology's servers. Close is
// idempotent — the service layer closes tenants both on completion and
// again on daemon shutdown.
func (b *Benchmark) Close() error {
	b.closeOnce.Do(func() {
		_ = b.eng.Close()
		_ = b.rc.close()
		b.closeErr = b.scn.Close()
		if b.ownsSched {
			b.sched.Close()
		}
	})
	return b.closeErr
}

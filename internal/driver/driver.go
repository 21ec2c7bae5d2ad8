package driver

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/scenario"
	"repro/internal/schedule"
)

// Config parameterizes a benchmark run.
type Config struct {
	// Scale holds the three scale factors d, t, f.
	Scale schedule.ScaleFactors
	// Periods is the number of benchmark periods (the full benchmark runs
	// schedule.Periods = 100).
	Periods int
	// Seed is the global data-generation seed.
	Seed uint64
	// Clock paces event dispatch; nil means RealClock.
	Clock Clock
	// Verify runs the post-phase functional verification after the last
	// period.
	Verify bool
	// Trace, when non-nil, records every dispatched event for schedule
	// auditing.
	Trace *Trace
	// OnPeriod, when non-nil, is called after every completed period with
	// the period index and its statistics — progress reporting for long
	// runs.
	OnPeriod func(k int, s PeriodStats)
	// MVCheckEvery > 0 verifies every N-th period (after its streams
	// complete) that each stored OrdersMV equals a from-scratch recompute
	// of the view. The recompute is a typed fold of Orders into (count,
	// sum) per group, compared exactly (bit-equal sums) against every
	// stored row; it shares no code with the refresh procedure it guards.
	// A mismatch aborts the run.
	MVCheckEvery int
	// Log, when non-nil, observes dispatches, acknowledgements and
	// barriers for crash recovery (the WAL tap). The first log error
	// aborts the run.
	Log RecoveryLog
	// Resume, when non-nil, starts the run at a checkpoint barrier
	// instead of period 0 (state must already be restored).
	Resume *Resume
	// Crasher, when non-nil, kills the run deterministically at its
	// armed (period, stream, occurrence) point with fault.ErrCrash.
	Crasher *fault.Crasher
	// DrainCheck, when non-nil, is consulted after every committed stream
	// barrier: returning true stops the run there with ErrDrained. Because
	// the check only fires at barriers, the in-flight stream group always
	// completes and its recovery checkpoint commits first — a drained run
	// resumes exactly-once from the barrier it stopped at (the graceful-
	// shutdown half of the crash-recovery contract).
	DrainCheck func() bool
}

// ErrDrained reports a run stopped cooperatively at a stream barrier by
// Config.DrainCheck. The external systems, engine state and WAL are
// consistent as of that barrier; a Resume continues the run exactly-once.
var ErrDrained = errors.New("driver: run drained at stream barrier")

// PeriodStats summarizes one completed period.
type PeriodStats struct {
	Events   int
	Failures int
	// FailuresByProcess attributes the failures to process types (only
	// types with failures appear).
	FailuresByProcess map[string]int
	// MVCheck is the wall time of the period's OrdersMV check (see
	// Config.MVCheckEvery); 0 when the check did not run this period.
	MVCheck time.Duration
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Scale.Validate(); err != nil {
		return err
	}
	if c.Periods < 1 || c.Periods > schedule.Periods {
		return fmt.Errorf("driver: periods must be in [1,%d], got %d", schedule.Periods, c.Periods)
	}
	return nil
}

// Client executes the benchmark against an integration system.
type Client struct {
	cfg Config
	s   *scenario.Scenario
	eng *engine.Engine
}

// NewClient builds a client.
func NewClient(cfg Config, s *scenario.Scenario, eng *engine.Engine) (*Client, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if s == nil || eng == nil {
		return nil, fmt.Errorf("driver: scenario and engine are required")
	}
	if cfg.Clock == nil {
		cfg.Clock = RealClock{}
	}
	return &Client{cfg: cfg, s: s, eng: eng}, nil
}

// RunStats summarizes one benchmark run.
type RunStats struct {
	Periods  int
	Events   int
	Failures int
	// FailuresByProcess attributes the failures to process types across
	// all periods (only types with failures appear; nil when none).
	FailuresByProcess map[string]int
	Elapsed           time.Duration
	// Verification holds the post-phase result (nil when disabled).
	Verification *VerificationResult
}

// Run executes the work phase: cfg.Periods benchmark periods, then (when
// configured) the post-phase verification against the last period's data.
func (c *Client) Run() (*RunStats, error) {
	return c.RunContext(context.Background())
}

// RunContext is Run with cancellation: when the context is cancelled, the
// in-flight period stops dispatching (queued events are abandoned, running
// instances finish), the partial statistics are returned together with the
// context's error, and no verification runs.
//
// Periods are pipelined: while period k's streams execute, period k+1's
// datasets and schedule are already being computed in the background
// (double-buffered through a channel of depth one). Only the pure
// generation overlaps — loading into the external systems still happens
// strictly inside period k+1, after period k finished and the stores were
// truncated — so the externally visible per-period state is identical to a
// sequential run.
func (c *Client) RunContext(ctx context.Context) (*RunStats, error) {
	start := time.Now()
	stats := &RunStats{}

	// Resume baseline: the checkpoint's cumulative statistics seed the
	// run totals, and the first period may restart mid-period at the
	// exact stream barrier the checkpoint captured.
	k0 := 0
	var rp resumePoint
	if r := c.cfg.Resume; r != nil {
		stats.Events = r.Events
		stats.Failures = r.Failures
		stats.FailuresByProcess = mergeFailures(r.FailuresByProcess, nil)
		stats.Periods = r.PeriodsDone
		// The dedup map outlives the resume period: with sparse
		// checkpoints the WAL suffix can hold acknowledgements from whole
		// periods after the snapshot, and every one of them is re-executed.
		if r.Barrier >= BarrierPeriodEnd {
			k0 = r.Period + 1 // the period completed; resume at the next
			rp = resumePoint{dedup: r.Dedup}
		} else {
			k0 = r.Period
			rp = resumePoint{active: true, barrier: r.Barrier, dedup: r.Dedup}
		}
	}
	if k0 >= c.cfg.Periods {
		// The checkpoint already covers the whole run; nothing to
		// re-execute. Verification still needs the last period's
		// generator state.
		stats.Elapsed = time.Since(start)
		if c.cfg.Verify {
			prep := c.prepare(ctx, c.cfg.Periods-1)
			if prep.err != nil {
				return stats, prep.err
			}
			stats.Verification = Verify(c.s, prep.gen, c.cfg.Scale)
		}
		return stats, nil
	}

	var lastGen *datagen.Generator
	prepCh := make(chan prepared, 1)
	go func() { prepCh <- c.prepare(ctx, k0) }()
	for k := k0; k < c.cfg.Periods; k++ {
		prep := <-prepCh
		if k+1 < c.cfg.Periods {
			go func(next int) { prepCh <- c.prepare(ctx, next) }(k + 1)
		}
		if err := ctx.Err(); err != nil {
			stats.Elapsed = time.Since(start)
			return stats, err
		}
		if prep.err != nil {
			stats.Elapsed = time.Since(start)
			return stats, fmt.Errorf("driver: period %d: %w", k, prep.err)
		}
		onBarrier := func(b int, ps PeriodStats) error {
			if c.cfg.Log == nil {
				return nil
			}
			bp := BarrierPoint{
				Period:            k,
				Barrier:           b,
				Events:            stats.Events + ps.Events,
				Failures:          stats.Failures + ps.Failures,
				FailuresByProcess: mergeFailures(stats.FailuresByProcess, ps.FailuresByProcess),
				PeriodsDone:       stats.Periods,
			}
			if b == BarrierPeriodEnd {
				bp.PeriodsDone++
			}
			return c.cfg.Log.Barrier(bp)
		}
		ps, err := c.runPeriod(ctx, k, prep, rp, onBarrier)
		// Only the first resumed period starts mid-way; the dedup map
		// keeps matching pre-crash acknowledgements in later periods.
		rp = resumePoint{dedup: rp.dedup}
		stats.Events += ps.Events
		stats.Failures += ps.Failures
		for id, n := range ps.FailuresByProcess {
			if stats.FailuresByProcess == nil {
				stats.FailuresByProcess = make(map[string]int)
			}
			stats.FailuresByProcess[id] += n
		}
		if err != nil {
			stats.Elapsed = time.Since(start)
			if errors.Is(err, fault.ErrCrash) || errors.Is(err, ErrDrained) {
				// Injected crash or cooperative drain: surface the sentinel
				// untouched so the caller can tell the stop apart from a
				// failure (abandon the WAL / mark the run checkpointed).
				return stats, err
			}
			if ctx.Err() != nil {
				return stats, ctx.Err()
			}
			return stats, fmt.Errorf("driver: period %d: %w", k, err)
		}
		stats.Periods++
		lastGen = prep.gen
		if n := c.cfg.MVCheckEvery; n > 0 && (k+1)%n == 0 {
			t0 := time.Now()
			err := checkMV(c.s, k)
			ps.MVCheck = time.Since(t0)
			if err != nil {
				stats.Elapsed = time.Since(start)
				return stats, err
			}
		}
		if c.cfg.OnPeriod != nil {
			c.cfg.OnPeriod(k, ps)
		}
		if k+1 < c.cfg.Periods && c.cfg.DrainCheck != nil && c.cfg.DrainCheck() {
			// Between-periods drain: the period-end barrier committed and
			// the period is counted; the resumed run starts at period k+1.
			stats.Elapsed = time.Since(start)
			return stats, ErrDrained
		}
	}
	stats.Elapsed = time.Since(start)
	if c.cfg.Verify && lastGen != nil {
		v := Verify(c.s, lastGen, c.cfg.Scale)
		stats.Verification = v
	}
	return stats, nil
}

// prepared is the precomputed, side-effect-free initialization state of
// one period: the generator, its datasets, and the event schedule.
type prepared struct {
	gen  *datagen.Generator
	data *scenario.SourceData
	plan *schedule.Plan
	err  error
}

// prepare computes a period's prepared state. It is pure (no store is
// touched), so it can run concurrently with the previous period's streams.
// It honours the run context: a cancelled run must not keep a background
// generation goroutine busy computing a period nobody will execute.
func (c *Client) prepare(ctx context.Context, k int) prepared {
	if err := ctx.Err(); err != nil {
		return prepared{err: err}
	}
	gen, err := datagen.New(datagen.Config{
		Seed:     c.cfg.Seed,
		Datasize: c.cfg.Scale.Datasize,
		Dist:     c.cfg.Scale.Dist,
		Period:   k,
	})
	if err != nil {
		return prepared{err: err}
	}
	if err := ctx.Err(); err != nil {
		return prepared{gen: gen, err: err}
	}
	data, err := scenario.GenerateSourceData(gen)
	if err != nil {
		return prepared{gen: gen, err: err}
	}
	plan, err := schedule.PeriodPlan(k, c.cfg.Scale)
	if err != nil {
		return prepared{gen: gen, err: err}
	}
	return prepared{gen: gen, data: data, plan: plan}
}

// latch tracks the completion of all instances of one process type within
// a period.
type latch struct {
	mu      sync.Mutex
	pending int
	done    chan struct{}
}

func newLatch(expected int) *latch {
	l := &latch{pending: expected, done: make(chan struct{})}
	if expected == 0 {
		close(l.done)
	}
	return l
}

func (l *latch) complete() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.pending--
	if l.pending == 0 {
		close(l.done)
	}
}

// runPeriod executes one benchmark period k: uninitialize, load the
// pre-generated source datasets, then dispatch the four streams with a
// recovery barrier after each serialized group. A resumePoint skips the
// initialization and the stream groups the checkpoint already covers.
func (c *Client) runPeriod(ctx context.Context, k int, prep prepared, rp resumePoint, onBarrier func(b int, ps PeriodStats) error) (PeriodStats, error) {
	var ps PeriodStats
	startBarrier := BarrierInit
	if rp.active {
		// The checkpoint restored the external systems and engine to
		// exactly this barrier; re-initializing would wipe that state.
		startBarrier = rp.barrier
	} else {
		if err := c.s.Uninitialize(); err != nil {
			return ps, err
		}
		c.eng.ResetQueues()
		if err := c.s.LoadSources(prep.data); err != nil {
			return ps, err
		}
		if err := c.logPeriodBegin(k); err != nil {
			return ps, err
		}
		if err := onBarrier(BarrierInit, ps); err != nil {
			return ps, err
		}
	}
	gen, plan := prep.gen, prep.plan

	// Stream groups in schedule order, each closed by its barrier.
	groups := []struct {
		barrier int
		streams []schedule.Stream
	}{
		{BarrierAB, []schedule.Stream{schedule.StreamA, schedule.StreamB}},
		{BarrierC, []schedule.Stream{schedule.StreamC}},
		{BarrierPeriodEnd, []schedule.Stream{schedule.StreamD}},
	}

	// Latches cover only the streams this (possibly resumed) period will
	// actually dispatch; the nil-latch check in the dependency wait skips
	// deps on processes whose stream group the checkpoint already covers.
	latches := make(map[string]*latch)
	counts := plan.CountByProcess()
	for _, g := range groups {
		if g.barrier <= startBarrier {
			continue
		}
		for _, s := range g.streams {
			for _, in := range plan.ByStream(s) {
				if latches[in.Process] == nil {
					latches[in.Process] = newLatch(counts[in.Process])
				}
			}
		}
	}

	// cctx lets an injected crash wind the in-flight dispatches down
	// quickly without cancelling the caller's context.
	cctx, cancelPeriod := context.WithCancel(ctx)
	defer cancelPeriod()
	var crashed atomic.Bool

	pol := c.eng.Options().Resilience
	// On the direct E1 path the engine re-issues transiently failed calls
	// inside one monitor record (runInstanceRetried); the dispatch loop
	// below must not retry again on top of that — it only re-dispatches
	// for the queue and batch paths, which return at submit time.
	engineRetries := !c.eng.Options().QueueTrigger && c.eng.Options().BatchSize <= 1
	var mu sync.Mutex
	failures := 0
	executed := 0
	failuresBy := make(map[string]int)
	var logMu sync.Mutex
	var logErr error
	noteLogErr := func(err error) {
		if err == nil {
			return
		}
		logMu.Lock()
		if logErr == nil {
			logErr = err
		}
		logMu.Unlock()
		cancelPeriod()
	}
	dispatch := func(in schedule.Instance, epoch time.Time, wg *sync.WaitGroup) {
		defer wg.Done()
		defer latches[in.Process].complete()
		if err := c.cfg.Clock.WaitUntil(cctx, epoch, c.cfg.Scale.TU(in.OffsetTU)); err != nil {
			return // cancelled before the deadline: abandon the event
		}
		for _, dep := range in.AfterAll {
			if l := latches[dep]; l != nil {
				select {
				case <-l.done:
				case <-cctx.Done():
					return
				}
			}
		}
		dispatched := time.Since(epoch)
		digest := EventDigest(in.Process, k, in.Seq)
		if proc, hit := rp.dedup[digest]; hit && proc == in.Process {
			// This event was acknowledged after the checkpoint but
			// before the crash; its effects were rolled back with the
			// snapshot, so the deterministic re-execution below is the
			// exactly-once path, and the hit is the evidence.
			c.eng.Monitor().Recovery().CountDedup(in.Process)
		}
		if c.cfg.Log != nil {
			noteLogErr(c.cfg.Log.Dispatched(k, in.Stream, in.Process, in.Seq, digest))
		}
		buf := msgBufs.Get().(*[]byte)
		msg, ok, genErr := c.messageFor(gen, (*buf)[:0], in.Process, in.Seq)
		if genErr == nil && !ok && isE1(in.Process) {
			genErr = fmt.Errorf("no message generator for %s", in.Process)
		}
		var err error
		if genErr != nil {
			err = genErr // generator fault: an instance failure, not a dispatch
		} else {
			err = c.eng.ExecuteContext(cctx, in.Process, msg, k)
			// E1 dispatch resilience: re-dispatch a transiently failed
			// message, then dead-letter it instead of losing it silently.
			if err != nil && msg != nil && pol != nil {
				for a := 0; !engineRetries && a < pol.DispatchRetries && err != nil && fault.IsTransient(err) && cctx.Err() == nil; a++ {
					err = c.eng.ExecuteContext(cctx, in.Process, msg, k)
				}
				if err != nil {
					c.eng.AddDeadLetter(in.Process, k, msg, err)
					c.eng.Monitor().Resilience().CountDLQ(in.Process)
				}
			}
		}
		if cap(msg) > cap(*buf) {
			*buf = msg[:0]
		}
		msgBufs.Put(buf)
		mu.Lock()
		executed++
		if err != nil {
			failures++
			failuresBy[in.Process]++
		}
		mu.Unlock()
		if c.cfg.Log != nil {
			noteLogErr(c.cfg.Log.Acked(k, in.Stream, in.Process, in.Seq, digest, err != nil))
		}
		if c.cfg.Crasher.OnEvent(k, int(in.Stream)) {
			// The armed occurrence completed: simulate the kill. The
			// cancel winds the group's remaining dispatches down.
			crashed.Store(true)
			cancelPeriod()
		}
		if c.cfg.Trace != nil {
			c.cfg.Trace.add(TraceEvent{
				Period: k, Process: in.Process, Seq: in.Seq,
				ScheduledTU: in.OffsetTU, Dispatched: dispatched,
				Completed: time.Since(epoch), Failed: err != nil,
			})
		}
	}

	psNow := func() PeriodStats {
		mu.Lock()
		defer mu.Unlock()
		out := PeriodStats{Events: executed, Failures: failures}
		if len(failuresBy) > 0 {
			out.FailuresByProcess = mergeFailures(failuresBy, nil)
		}
		return out
	}

	runGroup := func(barrier int, streams ...schedule.Stream) error {
		for _, s := range streams {
			if err := c.logStreamBegin(k, s); err != nil {
				return err
			}
		}
		epoch := time.Now()
		var wg sync.WaitGroup
		for _, s := range streams {
			for _, in := range plan.ByStream(s) {
				wg.Add(1)
				go dispatch(in, epoch, &wg)
			}
		}
		wg.Wait()
		logMu.Lock()
		err := logErr
		logMu.Unlock()
		if err != nil {
			return err
		}
		if crashed.Load() {
			return fault.ErrCrash
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		for _, s := range streams {
			if err := c.logStreamEnd(k, s); err != nil {
				return err
			}
			if c.cfg.Crasher.AtBarrier(k, int(s)) {
				// Barrier-armed crash: the stream's effects are complete
				// and logged, but the checkpoint below never commits.
				return fault.ErrCrash
			}
		}
		return onBarrier(barrier, psNow())
	}

	// Fig. 7: streams A and B concurrent, then C, then D.
	for _, g := range groups {
		if g.barrier <= startBarrier {
			continue
		}
		if err := runGroup(g.barrier, g.streams...); err != nil {
			ps = psNow()
			return ps, err
		}
		if c.cfg.DrainCheck != nil && c.cfg.DrainCheck() && g.barrier != BarrierPeriodEnd {
			// Graceful drain: the barrier above committed (checkpoint and
			// all), so stopping here loses nothing. The period-end barrier
			// defers to the between-periods check in RunContext so a fully
			// completed period is counted before the drain surfaces.
			ps = psNow()
			return ps, ErrDrained
		}
	}

	ps = psNow()
	if err := ctx.Err(); err != nil {
		return ps, err
	}
	return ps, nil
}

// logPeriodBegin / logStreamBegin / logStreamEnd guard the optional log.
func (c *Client) logPeriodBegin(k int) error {
	if c.cfg.Log == nil {
		return nil
	}
	return c.cfg.Log.PeriodBegin(k)
}

func (c *Client) logStreamBegin(k int, s schedule.Stream) error {
	if c.cfg.Log == nil {
		return nil
	}
	return c.cfg.Log.StreamBegin(k, s)
}

func (c *Client) logStreamEnd(k int, s schedule.Stream) error {
	if c.cfg.Log == nil {
		return nil
	}
	return c.cfg.Log.StreamEnd(k, s)
}

// isE1 reports whether the process type is message-initiated.
func isE1(id string) bool {
	switch id {
	case "P01", "P02", "P04", "P08", "P10":
		return true
	default:
		return false
	}
}

// msgBufs recycles the buffers E1 messages are generated into: the engine
// reads a message only while ExecuteContext runs, and the dead-letter
// queue keeps a copy.
var msgBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 2048)
	return &b
}}

// messageFor appends the serialized E1 input message of an instance to
// dst. ok reports whether the process type has a message generator at
// all; err reports a generator fault, which the dispatcher records as an
// instance failure instead of handing the engine an empty message.
func (c *Client) messageFor(gen *datagen.Generator, dst []byte, process string, seq int) (msg []byte, ok bool, err error) {
	switch process {
	case "P01":
		return gen.AppendBeijingCustomerMsg(dst, seq), true, nil
	case "P02":
		return gen.AppendMDMCustomer(dst, seq), true, nil
	case "P04":
		return gen.AppendViennaOrder(dst, seq), true, nil
	case "P08":
		return gen.AppendHongkongOrder(dst, seq), true, nil
	case "P10":
		// The second return flags an intentionally injected schema
		// violation (P10's validation diverts those instances); it is not a
		// generator fault. A missing document is.
		msg, _ := gen.AppendSanDiegoOrder(dst, seq)
		if len(msg) == 0 {
			return nil, true, fmt.Errorf("driver: San Diego generator produced no message for seq %d", seq)
		}
		return msg, true, nil
	default:
		return nil, false, nil
	}
}

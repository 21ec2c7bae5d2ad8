// Package sched is the process-wide morsel scheduler: one bounded pool of
// worker goroutines shared by every engine and tenant in the process,
// replacing the per-engine worker gates that made N tenants oversubscribe
// a small host by N x GOMAXPROCS.
//
// Execution model (work stealing):
//
//   - A client registers a Handle (one per tenant or benchmark) and
//     submits morsel task sets through Handle.Run. The submitting
//     goroutine ALWAYS participates in its own set, so a submission never
//     blocks waiting for pool capacity — with zero free workers the
//     caller simply runs every morsel itself, exactly like the previous
//     private-pool fast path.
//   - Each submission enqueues one seed token on the handle's injector
//     queue. Workers pick injector tokens through the governor's
//     fair-share policy (stride scheduling over the handle weights, with
//     priority aging so a long-waiting handle cannot starve; see
//     pickLocked). The dispatching worker self-replicates the remaining
//     requested parallelism into its own deque, where idle workers steal
//     it — per-worker deques plus a global injector, the classic
//     work-stealing shape.
//   - Within a set, workers and the caller claim morsels from a shared
//     atomic counter, so uneven morsels balance dynamically. Results are
//     merged by the CALLER in morsel index order (the kernels in
//     internal/relational own that merge), so output is bit-identical to
//     sequential execution no matter which worker ran which morsel.
//
// Workers are spawned lazily up to MaxWorkers (default GOMAXPROCS) and
// exit after a short idle timeout, so an idle process holds no pool
// goroutines at all.
package sched

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// idleTimeout is how long a worker stays parked without work before it
// exits; respawning is cheap next to any real morsel batch, and exiting
// keeps idle processes (and goroutine-leak tests) clean.
const idleTimeout = 200 * time.Millisecond

// strideUnit is the virtual-time charge of one dispatch at weight 1.
const strideUnit = 1.0

// agingRate is the pass credit a ready handle accrues per second of
// waiting. It bounds starvation: however far behind a handle's stride
// position is, waiting long enough always makes it the next pick.
const agingRate = 0.5

// Scheduler is one shared worker pool plus the injector queues of its
// registered handles. Most processes use the process-wide Default(); tests
// and A/B benchmarks build private ones with New.
type Scheduler struct {
	now func() time.Time // injectable for deterministic aging tests

	mu       sync.Mutex
	max      int       // worker bound
	all      []*worker // live workers
	parked   []*worker // idle workers, LIFO
	ready    []*Handle // handles with queued injector tokens
	vtime    float64   // pass of the most recently dispatched handle
	stealIdx int       // round-robin steal victim cursor
	nameSeq  uint64

	dispatches uint64 // injector tokens handed to workers
	steals     uint64 // deque tokens taken from another worker
	spawned    uint64 // workers started over the scheduler's lifetime
}

// Stats is a point-in-time scheduler snapshot.
type Stats struct {
	MaxWorkers int    // configured worker bound
	Workers    int    // live worker goroutines
	Parked     int    // of those, currently idle
	QueueDepth int    // tokens waiting in injectors and deques
	Dispatches uint64 // injector tokens dispatched (fair-share decisions)
	Steals     uint64 // tokens stolen from other workers' deques
	Spawned    uint64 // workers spawned over the lifetime
}

// New creates a scheduler bounded to maxWorkers pool workers (callers
// always participate on top of that). maxWorkers <= 0 defaults to
// GOMAXPROCS; values below 1 are clamped to 1.
func New(maxWorkers int) *Scheduler {
	if maxWorkers <= 0 {
		maxWorkers = runtime.GOMAXPROCS(0)
	}
	if maxWorkers < 1 {
		maxWorkers = 1
	}
	return &Scheduler{max: maxWorkers, now: time.Now}
}

var (
	defaultOnce   sync.Once
	defaultSched  *Scheduler
	defaultHandle *Handle
)

// Default returns the process-wide scheduler every engine shares unless
// explicitly given another one.
func Default() *Scheduler {
	defaultOnce.Do(func() {
		defaultSched = New(0)
		defaultHandle = defaultSched.Register("default", 1)
	})
	return defaultSched
}

// DefaultHandle returns the process-wide fallback handle (weight 1) used
// by kernels whose relation was never attributed to a tenant.
func DefaultHandle() *Handle {
	Default()
	return defaultHandle
}

// SetMaxWorkers resizes the worker bound. Growing takes effect lazily (a
// worker spawns with the next queued token); shrinking retires surplus
// workers as they come back for work. Values below 1 clamp to 1.
func (s *Scheduler) SetMaxWorkers(n int) {
	if n < 1 {
		n = 1
	}
	s.mu.Lock()
	s.max = n
	// Wake every parked worker so surplus ones notice the shrink and exit
	// instead of lingering until their idle timeout.
	for len(s.parked) > 0 {
		w := s.parked[len(s.parked)-1]
		s.parked = s.parked[:len(s.parked)-1]
		w.wake <- struct{}{}
	}
	s.mu.Unlock()
}

// MaxWorkers returns the current worker bound.
func (s *Scheduler) MaxWorkers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.max
}

// Stats returns a snapshot of the scheduler counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	depth := 0
	for _, h := range s.ready {
		depth += len(h.queue)
	}
	for _, w := range s.all {
		depth += len(w.deque)
	}
	return Stats{
		MaxWorkers: s.max,
		Workers:    len(s.all),
		Parked:     len(s.parked),
		QueueDepth: depth,
		Dispatches: s.dispatches,
		Steals:     s.steals,
		Spawned:    s.spawned,
	}
}

// Register creates a handle with the given fair-share weight (clamped to
// > 0; 0 or negative defaults to 1). An empty name is auto-generated. The
// handle joins the stride schedule at the current virtual time, so a
// newcomer competes fairly instead of replaying the service it missed.
func (s *Scheduler) Register(name string, weight float64) *Handle {
	if weight <= 0 {
		weight = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if name == "" {
		s.nameSeq++
		name = fmt.Sprintf("handle-%d", s.nameSeq)
	}
	return &Handle{s: s, name: name, weight: weight, pass: s.vtime}
}

// Handle is one client's registration: its fair-share weight, its
// injector queue and its accounting. Safe for concurrent Run calls.
type Handle struct {
	s      *Scheduler
	name   string
	weight float64

	// Guarded by s.mu.
	queue      []*token
	pass       float64 // stride-scheduling virtual time consumed
	readyAt    time.Time
	ready      bool
	closed     bool
	dispatched uint64 // injector tokens dispatched for this handle

	submitted   atomic.Uint64 // parallel task sets submitted
	inline      atomic.Uint64 // runs short-circuited onto the caller
	callerTasks atomic.Uint64 // morsel tasks executed by submitting goroutines
	workerTasks atomic.Uint64 // morsel tasks executed by pool workers
	stolen      atomic.Uint64 // tokens of this handle moved by steals
}

// HandleStats is one handle's accounting snapshot.
type HandleStats struct {
	Name        string
	Weight      float64
	Submitted   uint64 // parallel task sets submitted
	Inline      uint64 // runs short-circuited inline (tiny inputs)
	Dispatches  uint64 // injector tokens dispatched (fair-share services)
	Stolen      uint64 // deque tokens moved by work stealing
	CallerTasks uint64 // morsels run by the submitting goroutine
	WorkerTasks uint64 // morsels run by pool workers
}

// Name returns the handle's registered name.
func (h *Handle) Name() string { return h.name }

// Weight returns the handle's fair-share weight.
func (h *Handle) Weight() float64 { return h.weight }

// Scheduler returns the scheduler this handle is registered with.
func (h *Handle) Scheduler() *Scheduler { return h.s }

// Stats returns the handle's accounting snapshot.
func (h *Handle) Stats() HandleStats {
	h.s.mu.Lock()
	dispatched := h.dispatched
	h.s.mu.Unlock()
	return HandleStats{
		Name:        h.name,
		Weight:      h.weight,
		Submitted:   h.submitted.Load(),
		Inline:      h.inline.Load(),
		Dispatches:  dispatched,
		Stolen:      h.stolen.Load(),
		CallerTasks: h.callerTasks.Load(),
		WorkerTasks: h.workerTasks.Load(),
	}
}

// Close deregisters the handle: queued tokens are dropped (they are only
// invitations — any in-flight Run still completes on its caller) and
// further submissions run inline. Safe to call more than once.
func (h *Handle) Close() {
	h.s.mu.Lock()
	h.closed = true
	h.queue = nil
	if h.ready {
		h.ready = false
		for i, r := range h.s.ready {
			if r == h {
				h.s.ready = append(h.s.ready[:i], h.s.ready[i+1:]...)
				break
			}
		}
	}
	h.s.mu.Unlock()
}

// token is one invitation for a worker to join a task set's morsel loop.
// The seed token carries the submission's remaining parallelism in
// clones; the dispatching worker replicates it into its own deque.
type token struct {
	set    *taskSet
	h      *Handle
	clones int
}

// taskSet is one Run submission: tasks claimed from a shared counter,
// completion tracked by an exact pending count so the caller's return
// guarantees no morsel is still (or will ever be) executing.
type taskSet struct {
	fn      func(int)
	tasks   int64
	next    atomic.Int64
	pending atomic.Int64
	pan     atomic.Pointer[any]
	done    chan struct{}
	h       *Handle
}

func (ts *taskSet) finish(n int64) {
	if ts.pending.Add(-n) == 0 {
		close(ts.done)
	}
}

// work claims and executes tasks until the counter is exhausted. After a
// panic anywhere in the set, remaining claims are drained WITHOUT
// executing — the pending count still reaches zero, the caller's wait
// completes, and the first panic value is re-raised on the caller.
func (ts *taskSet) work(onWorker bool) {
	var inFlight int64
	defer func() {
		if p := recover(); p != nil {
			ts.pan.CompareAndSwap(nil, &p)
			n := inFlight // the claim whose fn panicked
			for {
				if ts.next.Add(1)-1 >= ts.tasks {
					break
				}
				n++
			}
			if n > 0 {
				ts.finish(n)
			}
		}
	}()
	for {
		t := ts.next.Add(1) - 1
		if t >= ts.tasks {
			return
		}
		if ts.pan.Load() == nil {
			inFlight = 1
			ts.fn(int(t))
			inFlight = 0
			if onWorker {
				ts.h.workerTasks.Add(1)
			} else {
				ts.h.callerTasks.Add(1)
			}
		}
		ts.finish(1)
	}
}

// Run executes tasks 0..tasks-1 with up to par participants: the calling
// goroutine plus at most par-1 pool workers. Tiny submissions (par <= 1
// or fewer than two tasks) run inline on the caller — no goroutine, no
// queue traffic. Panics in any participant re-raise on the caller after
// the set fully settles; Run never returns while a task is executing.
func (h *Handle) Run(par, tasks int, fn func(task int)) {
	if tasks <= 0 {
		return
	}
	if par > tasks {
		par = tasks
	}
	if par <= 1 || tasks < 2 || h.isClosed() {
		h.inline.Add(1)
		for t := 0; t < tasks; t++ {
			fn(t)
		}
		return
	}
	h.submitted.Add(1)
	ts := &taskSet{fn: fn, tasks: int64(tasks), done: make(chan struct{}), h: h}
	ts.pending.Store(int64(tasks))
	// One seed token; the dispatching worker self-replicates par-2 more.
	h.s.enqueue(h, &token{set: ts, h: h, clones: par - 2})
	ts.work(false)
	<-ts.done
	if p := ts.pan.Load(); p != nil {
		panic(*p)
	}
}

func (h *Handle) isClosed() bool {
	h.s.mu.Lock()
	defer h.s.mu.Unlock()
	return h.closed
}

// enqueue pushes a token on the handle's injector and wakes or spawns
// workers to serve it.
func (s *Scheduler) enqueue(h *Handle, tok *token) {
	s.mu.Lock()
	h.queue = append(h.queue, tok)
	if !h.ready {
		h.ready = true
		h.readyAt = s.now()
		// Stride join rule: enter at the current virtual time. A handle
		// that idled must not carry a stale low pass into the schedule and
		// monopolize the workers to "catch up".
		if h.pass < s.vtime {
			h.pass = s.vtime
		}
		s.ready = append(s.ready, h)
	}
	s.signalLocked(1 + tok.clones)
	s.mu.Unlock()
}

// signalLocked wakes parked workers — or spawns new ones below the bound
// — to serve up to n queued tokens.
func (s *Scheduler) signalLocked(n int) {
	for ; n > 0; n-- {
		switch {
		case len(s.parked) > 0:
			w := s.parked[len(s.parked)-1]
			s.parked = s.parked[:len(s.parked)-1]
			w.wake <- struct{}{}
		case len(s.all) < s.max:
			w := &worker{s: s, wake: make(chan struct{}, 1)}
			s.all = append(s.all, w)
			s.spawned++
			go w.loop()
		default:
			return
		}
	}
}

// pickLocked chooses the next handle to service: minimum effective pass,
// where the effective pass is the stride position minus an aging credit
// for time spent waiting. Pure stride scheduling converges each handle's
// dispatch share to weight/totalWeight; the aging term additionally
// guarantees a waiting handle is served within bounded time regardless of
// how far ahead its stride position is.
func (s *Scheduler) pickLocked() *Handle {
	if len(s.ready) == 0 {
		return nil
	}
	now := s.now()
	best := s.ready[0]
	bestEff := best.pass - agingRate*now.Sub(best.readyAt).Seconds()
	for _, h := range s.ready[1:] {
		if eff := h.pass - agingRate*now.Sub(h.readyAt).Seconds(); eff < bestEff {
			best, bestEff = h, eff
		}
	}
	return best
}

// dispatchLocked pops the next injector token per the fair-share policy
// and charges the handle's stride. Returns nil when no injector has work.
func (s *Scheduler) dispatchLocked() *token {
	h := s.pickLocked()
	if h == nil {
		return nil
	}
	tok := h.queue[0]
	h.queue[0] = nil
	h.queue = h.queue[1:]
	if len(h.queue) == 0 {
		h.ready = false
		for i, r := range s.ready {
			if r == h {
				s.ready = append(s.ready[:i], s.ready[i+1:]...)
				break
			}
		}
	}
	s.vtime = h.pass
	h.pass += strideUnit / h.weight
	h.readyAt = s.now()
	h.dispatched++
	s.dispatches++
	return tok
}

// worker is one pool goroutine: a deque of replicated tokens plus a wake
// channel for parking.
type worker struct {
	s     *Scheduler
	deque []*token
	wake  chan struct{}
}

func (w *worker) loop() {
	s := w.s
	timer := time.NewTimer(idleTimeout)
	defer timer.Stop()
	for {
		tok, live := s.take(w)
		if !live {
			return // retired by a SetMaxWorkers shrink
		}
		if tok == nil {
			if !w.park(timer) {
				return // idle timeout
			}
			continue
		}
		w.run(tok)
	}
}

// take finds the worker's next token under the scheduler lock: own deque
// first (LIFO — freshest replication, best locality), then the injectors
// through the governor pick, then a steal from another worker's deque
// (FIFO — the oldest, largest-remaining work).
func (s *Scheduler) take(w *worker) (*token, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.all) > s.max {
		s.removeLocked(w)
		return nil, false
	}
	if n := len(w.deque); n > 0 {
		tok := w.deque[n-1]
		w.deque[n-1] = nil
		w.deque = w.deque[:n-1]
		return tok, true
	}
	if tok := s.dispatchLocked(); tok != nil {
		return tok, true
	}
	for i := 0; i < len(s.all); i++ {
		v := s.all[(s.stealIdx+i)%len(s.all)]
		if v == w || len(v.deque) == 0 {
			continue
		}
		s.stealIdx = (s.stealIdx + i + 1) % len(s.all)
		tok := v.deque[0]
		v.deque[0] = nil
		v.deque = v.deque[1:]
		s.steals++
		tok.h.stolen.Add(1)
		return tok, true
	}
	return nil, true
}

// run replicates the token's remaining parallelism into the worker's own
// deque (where idle workers steal it) and joins the set's morsel loop.
func (w *worker) run(tok *token) {
	s := w.s
	if tok.clones > 0 {
		s.mu.Lock()
		for i := 0; i < tok.clones; i++ {
			w.deque = append(w.deque, &token{set: tok.set, h: tok.h})
		}
		s.signalLocked(tok.clones)
		s.mu.Unlock()
		tok.clones = 0
	}
	tok.set.work(true)
}

// park blocks until woken or the idle timeout expires; false means the
// worker removed itself and must exit. The work re-check under the same
// lock as the parked-list insert closes the lost-wakeup window between a
// failed take and the park.
func (w *worker) park(timer *time.Timer) bool {
	s := w.s
	s.mu.Lock()
	if s.haveWorkLocked(w) || len(s.all) > s.max {
		s.mu.Unlock()
		return true // re-run take; it also handles the retirement case
	}
	s.parked = append(s.parked, w)
	s.mu.Unlock()
	if !timer.Stop() {
		select {
		case <-timer.C:
		default:
		}
	}
	timer.Reset(idleTimeout)
	select {
	case <-w.wake:
		return true
	case <-timer.C:
		s.mu.Lock()
		for i, p := range s.parked {
			if p == w {
				s.parked = append(s.parked[:i], s.parked[i+1:]...)
				s.removeLocked(w)
				s.mu.Unlock()
				return false
			}
		}
		s.mu.Unlock()
		// A waker popped us concurrently: its wake is in flight. Consume
		// it and keep serving.
		<-w.wake
		return true
	}
}

// haveWorkLocked reports whether any injector or deque holds a token.
func (s *Scheduler) haveWorkLocked(self *worker) bool {
	if len(s.ready) > 0 {
		return true
	}
	for _, v := range s.all {
		if v != self && len(v.deque) > 0 {
			return true
		}
	}
	return false
}

// removeLocked deletes the worker from the live set.
func (s *Scheduler) removeLocked(w *worker) {
	for i, v := range s.all {
		if v == w {
			s.all = append(s.all[:i], s.all[i+1:]...)
			return
		}
	}
}

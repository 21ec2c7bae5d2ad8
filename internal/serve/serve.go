// Package serve is the benchmark's control plane: an HTTP daemon hosting
// many concurrent DIPBench scenario instances ("tenants"). Each tenant
// runs the full stack — scenario databases, web services, engine,
// monitor, WAL — privately, so runs are isolated by construction: the
// digest of a tenant's final state equals its solo-run digest even when
// the neighbours inject faults or crash.
//
// API (JSON bodies):
//
//	POST /runs              RunSpec        -> 202 {id} | 429 (shed) | 503 (draining)
//	GET  /runs                             -> [TenantMetrics]
//	GET  /runs/{id}                        -> TenantMetrics
//	GET  /runs/{id}/report                 -> NAVG+ report (text)
//	POST /runs/{id}/cancel                 -> 200
//	GET  /healthz                          -> 200 (process alive)
//	GET  /readyz                           -> 200 | 503 (draining)
//	GET  /metrics                          -> Metrics
//
// Admission control: at most MaxTenants runs execute concurrently and at
// most MaxQueue wait behind them; beyond that, submissions are shed with
// 429 and a Retry-After hint — backpressure instead of collapse.
//
// Execution is governed, not pooled: admission reserves a fair-share
// weight on the process-wide work-stealing scheduler (internal/sched)
// instead of parking a goroutine per slot, and every tenant's kernel
// work runs on the one shared worker pool — N tenants no longer
// oversubscribe the host by N x GOMAXPROCS. A tenant's RunSpec.Share
// (default Options.DefaultShare) sets both its governor reservation and
// its scheduling weight; the governor capacity is
// MaxTenants x DefaultShare, so default-share tenants keep the familiar
// MaxTenants concurrency while heavier tenants trade concurrency for
// share.
//
// Graceful drain: Drain (wired to SIGTERM by cmd/dipbenchd) stops
// admission, lets every in-flight run reach its next committed stream
// barrier — where the PR5 recovery controller has just made a checkpoint
// durable — and stops it there. A restarted daemon re-admits every
// unfinished tenant; checkpointed ones resume exactly-once.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/fault"
	"repro/internal/sched"
)

// Options configures the daemon.
type Options struct {
	// DataDir roots the tenant directories (tenant state, WAL,
	// checkpoints). Required.
	DataDir string
	// MaxTenants bounds the concurrently executing runs (default 4).
	MaxTenants int
	// MaxQueue bounds the admitted-but-waiting runs (default MaxTenants);
	// submissions beyond MaxTenants+MaxQueue are shed with 429.
	MaxQueue int
	// Watchdog bounds one tenant's wall-clock run time (0 = unbounded); an
	// expired tenant is failed and its slot freed.
	Watchdog time.Duration
	// CheckpointEvery is the default checkpoint cadence for tenants that
	// do not set their own.
	CheckpointEvery int
	// RetryAfter is the hint returned with shed submissions (default 5s).
	RetryAfter time.Duration
	// DefaultShare is the fair-share weight of tenants whose RunSpec does
	// not set one (default 1). The governor capacity is
	// MaxTenants * DefaultShare.
	DefaultShare float64

	// Kill arms the deterministic daemon-kill chaos plan: after its Nth
	// observed completed tenant period OnKill fires once —
	// cmd/dipbenchd exits 137 there, reproducing kill -9 at a
	// reproducible point for the hard-kill restart CI step.
	Kill   *fault.DaemonKill
	OnKill func()
}

func (o Options) withDefaults() Options {
	if o.MaxTenants <= 0 {
		o.MaxTenants = 4
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = o.MaxTenants
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = 5 * time.Second
	}
	if o.DefaultShare <= 0 {
		o.DefaultShare = 1
	}
	return o
}

// Server hosts the tenants and the control-plane API.
type Server struct {
	opts Options
	mux  *http.ServeMux

	queue    chan *tenant
	stop     chan struct{}
	stopOnce sync.Once
	draining atomic.Bool
	killed   atomic.Bool
	shed     atomic.Uint64
	workerWG sync.WaitGroup // dispatcher + tenant runs finish before Drain returns
	gov      *sched.Governor

	mu      sync.Mutex
	tenants map[string]*tenant
	order   []string // admission order, for stable listings
	nextID  int
}

// NewServer creates the daemon state, re-admits unfinished tenants found
// in DataDir (daemon restart) and starts the worker pool.
func NewServer(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	if opts.DataDir == "" {
		return nil, errors.New("serve: Options.DataDir is required")
	}
	if err := os.MkdirAll(filepath.Join(opts.DataDir, "tenants"), 0o755); err != nil {
		return nil, err
	}
	s := &Server{
		opts:    opts,
		stop:    make(chan struct{}),
		tenants: make(map[string]*tenant),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /runs", s.handleSubmit)
	s.mux.HandleFunc("GET /runs", s.handleList)
	s.mux.HandleFunc("GET /runs/{id}", s.handleGet)
	s.mux.HandleFunc("GET /runs/{id}/report", s.handleReport)
	s.mux.HandleFunc("POST /runs/{id}/cancel", s.handleCancel)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte("ok\n"))
	})
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	pending, err := s.recoverTenants()
	if err != nil {
		return nil, err
	}
	// The queue must hold every re-admitted tenant plus a fresh admission
	// window — recovery enqueues before the dispatcher starts draining.
	s.queue = make(chan *tenant, opts.MaxQueue+opts.MaxTenants+len(pending))
	for _, t := range pending {
		s.queue <- t
	}
	// Concurrency is governed by fair-share capacity on the process-wide
	// scheduler, not by a goroutine per slot: one dispatcher admits queued
	// tenants as weight frees up and spawns a goroutine per RUNNING
	// tenant only.
	s.gov = sched.NewGovernor(sched.Default(), float64(opts.MaxTenants)*opts.DefaultShare)
	s.workerWG.Add(1)
	go s.dispatch()
	return s, nil
}

// Handler returns the control-plane HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// drainCheck is the tenant-side drain hook: consulted by the driver at
// every committed stream barrier.
func (s *Server) drainCheck() bool { return s.draining.Load() }

// Drain stops admission and waits — bounded by ctx — for every in-flight
// run to stop at its next committed barrier checkpoint. Safe to call
// more than once.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.stopOnce.Do(func() { close(s.stop) })
	done := make(chan struct{})
	go func() {
		s.workerWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Kill hard-stops the daemon in-process — the test double of kill -9
// for the hard-kill restart test (CI kills a real process via the
// fault daemon-kill plan). Nothing is persisted: the tenant files keep
// whatever state was last written, and a daemon restarted on the same
// DataDir re-admits every unfinished tenant, resuming the checkpointed
// ones. (Unlike a real kill the Go runtime keeps running, so deferred
// Closes still flush buffers — that only makes MORE of the WAL durable
// than a real kill would, which recovery tolerates by construction.)
func (s *Server) Kill() {
	s.killed.Store(true)
	s.draining.Store(true)
	s.stopOnce.Do(func() { close(s.stop) })
	s.mu.Lock()
	for _, t := range s.tenants {
		if t.cancel != nil {
			t.cancel()
		}
	}
	s.mu.Unlock()
	s.workerWG.Wait()
}

// dispatch admits queued tenants by governor capacity: each tenant's
// fair-share weight must fit under MaxTenants * DefaultShare before its
// run starts, which bounds concurrent runs without dedicating a parked
// goroutine to every slot. The 429 + Retry-After shed decision stays in
// handleSubmit, unchanged.
func (s *Server) dispatch() {
	defer s.workerWG.Done()
	for {
		select {
		case <-s.stop:
			return
		case t := <-s.queue:
			if s.draining.Load() {
				// Drain won the race: leave the tenant queued on disk so
				// the restarted daemon re-admits it.
				continue
			}
			h, err := s.gov.Admit(t.id, t.share(s.opts.DefaultShare), s.stop)
			if err != nil {
				// Drain closed the stop channel mid-wait: the tenant stays
				// queued on disk for the restarted daemon.
				continue
			}
			if s.draining.Load() {
				s.gov.Release(h)
				continue
			}
			s.workerWG.Add(1)
			go func(t *tenant, h *sched.Handle) {
				defer s.workerWG.Done()
				defer s.gov.Release(h)
				s.runTenant(t, h)
			}(t, h)
		}
	}
}

// recoverTenants rescans DataDir after a daemon restart: terminal
// tenants are loaded for inspection, unfinished ones returned for
// re-admission.
//
// Re-admission order is deterministic and favors resumption:
// checkpointed tenants (holding a committed manifest) come before
// cold-start ones, earliest checkpoint barrier first — the tenants
// farthest behind get capacity first — with name as the tiebreak.
func (s *Server) recoverTenants() ([]*tenant, error) {
	root := filepath.Join(s.opts.DataDir, "tenants")
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, err
	}
	var pending []*tenant
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(root, e.Name())
		data, err := os.ReadFile(filepath.Join(dir, "tenant.json"))
		if err != nil {
			continue // half-created tenant: nothing durable to recover
		}
		var rec tenantRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			continue
		}
		t := &tenant{id: rec.ID, spec: rec.Spec, dir: dir, state: rec.State}
		if rdata, err := os.ReadFile(filepath.Join(dir, "result.json")); err == nil {
			var res resultRecord
			if json.Unmarshal(rdata, &res) == nil {
				t.state = res.State
				t.digest = res.Digest
				t.report = res.Report
				t.err = res.Error
				t.periodsDone = res.PeriodsDone
				t.events = res.Events
				t.failures = res.Failures
				t.retries = res.Retries
				t.trips = res.Trips
				t.deadLetters = res.DeadLetters
			}
		}
		switch t.state {
		case StateDone, StateFailed, StateCanceled:
			// terminal: listing only
		default:
			// queued, running, draining or checkpointed at the time the
			// previous daemon stopped: run it (again). A committed
			// checkpoint makes it a resume; otherwise it cold-starts.
			t.state = StateQueued
			pending = append(pending, t)
		}
		s.tenants[t.id] = t
		s.order = append(s.order, t.id)
	}
	sortPending(pending)
	return pending, nil
}

// sortPending orders re-admissions: checkpointed before cold-start,
// earliest (period, barrier) first, then name. ReadDir order already
// sorts by name, but resumable tenants must not starve behind a
// directory full of alphabetically earlier cold-starts.
func sortPending(pending []*tenant) {
	type key struct {
		ckpt            bool
		period, barrier int
	}
	keys := make(map[*tenant]key, len(pending))
	for _, t := range pending {
		k := key{}
		if man, err := checkpoint.ReadManifest(filepath.Join(t.dir, "wal")); err == nil {
			k = key{ckpt: true, period: man.Period, barrier: man.Barrier}
		}
		keys[t] = k
	}
	sort.SliceStable(pending, func(i, j int) bool {
		a, b := keys[pending[i]], keys[pending[j]]
		if a.ckpt != b.ckpt {
			return a.ckpt
		}
		if a.ckpt {
			if a.period != b.period {
				return a.period < b.period
			}
			if a.barrier != b.barrier {
				return a.barrier < b.barrier
			}
		}
		return pending[i].id < pending[j].id
	})
}

var namePattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// handleSubmit admits or sheds one run submission.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining: not admitting runs", http.StatusServiceUnavailable)
		return
	}
	var spec RunSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		http.Error(w, "bad spec: "+err.Error(), http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	if spec.Name == "" {
		s.nextID++
		spec.Name = fmt.Sprintf("run-%d", s.nextID)
	}
	if !namePattern.MatchString(spec.Name) {
		s.mu.Unlock()
		http.Error(w, "bad name: must match "+namePattern.String(), http.StatusBadRequest)
		return
	}
	if _, dup := s.tenants[spec.Name]; dup {
		s.mu.Unlock()
		http.Error(w, "duplicate run name "+spec.Name, http.StatusConflict)
		return
	}
	// Admission control: the active population (executing plus waiting)
	// is bounded; beyond it, shed with 429 instead of admitting
	// unboundedly — the queue would otherwise starve the admitted runs.
	active := 0
	for _, existing := range s.tenants {
		switch existing.state {
		case StateQueued, StateRunning, StateDraining:
			active++
		}
	}
	if active >= s.opts.MaxTenants+s.opts.MaxQueue {
		s.mu.Unlock()
		s.shed.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		http.Error(w, "run queue full", http.StatusTooManyRequests)
		return
	}
	t := &tenant{
		id:    spec.Name,
		spec:  spec,
		dir:   filepath.Join(s.opts.DataDir, "tenants", spec.Name),
		state: StateQueued,
	}
	s.tenants[t.id] = t
	s.order = append(s.order, t.id)
	s.mu.Unlock()

	if err := os.MkdirAll(t.dir, 0o755); err != nil {
		s.dropTenant(t.id)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if err := t.persist(StateQueued); err != nil {
		s.dropTenant(t.id)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	select {
	case s.queue <- t:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		_ = json.NewEncoder(w).Encode(map[string]string{"id": t.id})
	default:
		// Unreachable while the admission bound holds (the channel is
		// sized for the full admitted population); shed defensively.
		s.dropTenant(t.id)
		_ = os.RemoveAll(t.dir)
		s.shed.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		http.Error(w, "run queue full", http.StatusTooManyRequests)
	}
}

// retryAfterSeconds derives the 429 Retry-After hint from the governor
// backlog instead of a fixed constant: queued fair-share weight over
// governor capacity estimates how many "capacity turns" a resubmission
// would wait, scaled by Options.RetryAfter (the per-turn estimate) and
// clamped to [1s, 60s].
func (s *Server) retryAfterSeconds() int {
	var queued float64
	s.mu.Lock()
	for _, t := range s.tenants {
		if t.state == StateQueued {
			queued += t.share(s.opts.DefaultShare)
		}
	}
	s.mu.Unlock()
	capacity := float64(s.opts.MaxTenants) * s.opts.DefaultShare
	if s.gov != nil {
		capacity = s.gov.Capacity()
	}
	d := time.Duration(queued / capacity * float64(s.opts.RetryAfter))
	if d < time.Second {
		d = time.Second
	}
	if d > 60*time.Second {
		d = 60 * time.Second
	}
	return int((d + time.Second - 1) / time.Second)
}

// dropTenant unwinds a failed admission: it forgets a tenant that never
// entered the queue.
func (s *Server) dropTenant(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.tenants, id)
	for i, tid := range s.order {
		if tid == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	m := s.snapshot()
	writeJSONResponse(w, m.Tenants)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	t := s.tenants[r.PathValue("id")]
	var tm TenantMetrics
	if t != nil {
		tm = s.tenantMetricsLocked(t)
	}
	s.mu.Unlock()
	if t == nil {
		http.Error(w, "no such run", http.StatusNotFound)
		return
	}
	writeJSONResponse(w, tm)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	t := s.tenants[r.PathValue("id")]
	var state, report string
	if t != nil {
		state, report = t.state, t.report
	}
	s.mu.Unlock()
	switch {
	case t == nil:
		http.Error(w, "no such run", http.StatusNotFound)
	case state != StateDone:
		http.Error(w, "run not done: "+state, http.StatusConflict)
	default:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte(report))
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	t := s.tenants[r.PathValue("id")]
	var cancel func()
	if t != nil && t.cancel != nil {
		cancel = t.cancel
	}
	s.mu.Unlock()
	if t == nil {
		http.Error(w, "no such run", http.StatusNotFound)
		return
	}
	if cancel == nil {
		http.Error(w, "run not cancellable: "+t.state, http.StatusConflict)
		return
	}
	cancel()
	_, _ = w.Write([]byte("canceling\n"))
}

func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	_, _ = w.Write([]byte("ready\n"))
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSONResponse(w, s.snapshot())
}

// snapshot assembles the live Metrics view.
func (s *Server) snapshot() Metrics {
	s.mu.Lock()
	m := Metrics{
		Draining: s.draining.Load(),
		Shed:     s.shed.Load(),
		Tenants:  make([]TenantMetrics, 0, len(s.order)),
	}
	for _, id := range s.order {
		t := s.tenants[id]
		tm := s.tenantMetricsLocked(t)
		switch tm.State {
		case StateQueued:
			m.Queued++
		case StateRunning, StateDraining:
			m.Running++
		}
		m.Tenants = append(m.Tenants, tm)
	}
	s.shareUtilization(m.Tenants)
	ss := s.gov.Scheduler().Stats()
	m.Sched = SchedMetrics{
		MaxWorkers: ss.MaxWorkers, Workers: ss.Workers, QueueDepth: ss.QueueDepth,
		Dispatches: ss.Dispatches, Steals: ss.Steals,
		Capacity: s.gov.Capacity(), Used: s.gov.Used(),
	}
	s.mu.Unlock()
	return m
}

// shareUtilization fills ShareUtilization across the currently admitted
// tenants: observed task fraction over fair weight fraction, so 1.0
// means a tenant got exactly its share of the executed morsels.
func (s *Server) shareUtilization(tms []TenantMetrics) {
	var tasks, weight float64
	for i := range tms {
		if tms[i].State == StateRunning || tms[i].State == StateDraining {
			tasks += float64(tms[i].SchedTasks)
			weight += tms[i].Share
		}
	}
	if tasks == 0 || weight == 0 {
		return
	}
	for i := range tms {
		if (tms[i].State == StateRunning || tms[i].State == StateDraining) && tms[i].Share > 0 {
			frac := float64(tms[i].SchedTasks) / tasks
			fair := tms[i].Share / weight
			tms[i].ShareUtilization = frac / fair
		}
	}
}

// tenantMetricsLocked renders one tenant's metrics; the caller holds mu.
func (s *Server) tenantMetricsLocked(t *tenant) TenantMetrics {
	tm := TenantMetrics{
		ID: t.id, State: t.state, Resumed: t.resumed,
		Periods: t.spec.Periods, PeriodsDone: t.periodsDone,
		Events: t.events, Failures: t.failures,
		Retries: t.retries, Trips: t.trips, DeadLetters: t.deadLetters,
		Digest: t.digest, Error: t.err,
		SchedTasks: t.schedTasks, SchedStolen: t.schedStolen,
	}
	if tm.Periods == 0 {
		tm.Periods = 1 // core.Config default
	}
	if h := t.sched; h != nil {
		hs := h.Stats()
		tm.Share = hs.Weight
		tm.SchedTasks = hs.CallerTasks + hs.WorkerTasks
		tm.SchedStolen = hs.Stolen
	}
	if b := t.bench; b != nil {
		tm.Retries, tm.Trips, tm.DeadLetters = b.Monitor().Resilience().Totals()
		if res := b.Engine().Resilient(); res != nil {
			states := res.BreakerStates()
			if len(states) > 0 {
				tm.Breakers = make(map[string]string, len(states))
				for ep, st := range states {
					tm.Breakers[ep] = st.String()
				}
			}
		}
	}
	return tm
}

func writeJSONResponse(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

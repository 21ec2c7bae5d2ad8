package fault

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/datagen"
	rel "repro/internal/relational"
)

// Policy configures the consuming-side resilience layer: how the engine's
// INVOKE path and the driver's E1 dispatch recover from transient
// external faults.
type Policy struct {
	// MaxAttempts is the total number of attempts per external call
	// (first try plus retries). Default 4.
	MaxAttempts int
	// BaseDelay is the first backoff delay; it doubles per attempt.
	// Default 500µs.
	BaseDelay time.Duration
	// MaxDelay caps the exponential backoff. Default 8ms.
	MaxDelay time.Duration
	// JitterSeed drives the deterministic backoff jitter.
	JitterSeed uint64
	// InvokeTimeout is the per-invoke deadline covering all attempts of
	// one external call, propagated via context.Context. Default 10s.
	InvokeTimeout time.Duration
	// BreakerWindow is the rolling per-endpoint outcome window the
	// failure rate is computed over. Default 16.
	BreakerWindow int
	// BreakerThreshold is the failure rate in the full window that opens
	// the breaker. Default 0.5.
	BreakerThreshold float64
	// BreakerCooldown is how long an open breaker rejects calls before
	// letting a half-open probe through. Default 50ms.
	BreakerCooldown time.Duration
	// DispatchRetries is the per-instance budget for recovering from a
	// transient failure that outlasted MaxAttempts: the engine re-issues
	// the exhausted call (see WithReissues) up to this many times per
	// instance, and the driver re-dispatches a queued or batched E1
	// message this many times. Default 1.
	DispatchRetries int
	// DLQLimit caps the engine's dead-letter queue. Default 1024.
	DLQLimit int
}

// DefaultPolicy returns the default resilience policy.
func DefaultPolicy() *Policy {
	p := Policy{}.withDefaults()
	return &p
}

// withDefaults fills unset fields.
func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 500 * time.Microsecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 8 * time.Millisecond
	}
	if p.InvokeTimeout <= 0 {
		p.InvokeTimeout = 10 * time.Second
	}
	if p.BreakerWindow <= 0 {
		p.BreakerWindow = 16
	}
	if p.BreakerThreshold <= 0 {
		p.BreakerThreshold = 0.5
	}
	if p.BreakerCooldown <= 0 {
		p.BreakerCooldown = 50 * time.Millisecond
	}
	if p.DispatchRetries < 0 {
		p.DispatchRetries = 0
	} else if p.DispatchRetries == 0 {
		p.DispatchRetries = 1
	}
	if p.DLQLimit <= 0 {
		p.DLQLimit = 1024
	}
	return p
}

// Recorder receives resilience events for auditing; the monitor's
// ResilienceStats implements it. Implementations must be safe for
// concurrent use.
type Recorder interface {
	CountRetry(endpoint string)
	CountTrip(endpoint string)
	CountDLQ(process string)
}

// nopRecorder discards events.
type nopRecorder struct{}

func (nopRecorder) CountRetry(string) {}
func (nopRecorder) CountTrip(string)  {}
func (nopRecorder) CountDLQ(string)   {}

// OpenError reports a call rejected fast because the endpoint's circuit
// breaker is open.
type OpenError struct{ Endpoint string }

// Error implements error.
func (e *OpenError) Error() string {
	return fmt.Sprintf("fault: circuit breaker open for %s", e.Endpoint)
}

// ExhaustedError reports a call that stayed transiently faulty through
// every configured attempt. It unwraps to the last attempt's error and
// classifies as transient itself (the endpoint may yet recover).
type ExhaustedError struct {
	Endpoint string
	Attempts int
	Err      error
}

// Error implements error.
func (e *ExhaustedError) Error() string {
	return fmt.Sprintf("fault: %s: %d attempts exhausted: %v", e.Endpoint, e.Attempts, e.Err)
}

// Unwrap exposes the last attempt's error.
func (e *ExhaustedError) Unwrap() error { return e.Err }

// BreakerState is the lifecycle state of one endpoint's circuit breaker.
type BreakerState uint8

// Breaker states.
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

// String names the state.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "?"
	}
}

// breaker is one endpoint's circuit breaker: closed/open/half-open with a
// failure-rate threshold over a rolling outcome window.
type breaker struct {
	mu       sync.Mutex
	window   []bool // true = failure, ring buffer
	idx      int
	filled   int
	state    BreakerState
	openedAt time.Time
	probing  bool   // a half-open probe is in flight
	seq      uint64 // per-endpoint attempt counter for jitter derivation
}

// allow reports whether a call may proceed, transitioning open breakers
// to half-open after the cooldown (one probe at a time).
func (b *breaker) allow(now time.Time, cooldown time.Duration) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if now.Sub(b.openedAt) < cooldown {
			return false
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return true
	case BreakerHalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
	return true
}

// result records one call outcome; it returns true when this outcome
// tripped the breaker open.
func (b *breaker) result(failed bool, threshold float64, now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen {
		b.probing = false
		if failed {
			b.state = BreakerOpen
			b.openedAt = now
			return false // re-opening is not a fresh trip
		}
		// Probe succeeded: close and forget the bad window.
		b.state = BreakerClosed
		for i := range b.window {
			b.window[i] = false
		}
		b.idx, b.filled = 0, 0
		return false
	}
	b.window[b.idx] = failed
	b.idx = (b.idx + 1) % len(b.window)
	if b.filled < len(b.window) {
		b.filled++
	}
	if b.state != BreakerClosed || b.filled < len(b.window) {
		return false
	}
	fails := 0
	for _, f := range b.window {
		if f {
			fails++
		}
	}
	if float64(fails)/float64(len(b.window)) >= threshold {
		b.state = BreakerOpen
		b.openedAt = now
		return true
	}
	return false
}

// stateNow returns the state, downgrading an expired open to half-open
// for reporting purposes only.
func (b *breaker) stateNow() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Resilient wraps an External gateway with the resilience policy: capped
// exponential backoff with deterministic jitter, per-invoke deadlines,
// and per-endpoint circuit breakers. It implements mtm.External
// structurally (the interface lives in internal/mtm; no import needed).
type Resilient struct {
	inner  external
	policy Policy
	rec    Recorder

	mu       sync.Mutex
	breakers map[string]*breaker

	retries atomic.Uint64
	trips   atomic.Uint64
}

// external mirrors mtm.External to avoid an import cycle; the compiler
// checks the shapes match where Resilient is used as an mtm.External.
type external interface {
	Query(ctx context.Context, system, table string, pred rel.Predicate) (*rel.Relation, error)
	FetchXML(ctx context.Context, system, table string) ([]byte, error)
	Insert(ctx context.Context, system, table string, r *rel.Relation) error
	Upsert(ctx context.Context, system, table string, r *rel.Relation) error
	Delete(ctx context.Context, system, table string, pred rel.Predicate) (int, error)
	Update(ctx context.Context, system, table string, pred rel.Predicate, set map[string]rel.Value) (int, error)
	Call(ctx context.Context, system, proc string, args ...rel.Value) (*rel.Relation, error)
	Send(ctx context.Context, system string, msg []byte) error
}

// NewResilient wraps the gateway. rec may be nil to discard the counters.
func NewResilient(inner external, policy Policy, rec Recorder) *Resilient {
	if rec == nil {
		rec = nopRecorder{}
	}
	return &Resilient{
		inner:    inner,
		policy:   policy.withDefaults(),
		rec:      rec,
		breakers: make(map[string]*breaker),
	}
}

// Policy returns the effective (defaulted) policy.
func (r *Resilient) Policy() Policy { return r.policy }

// Stats returns the cumulative retry and breaker-trip counts.
func (r *Resilient) Stats() (retries, trips uint64) {
	return r.retries.Load(), r.trips.Load()
}

// BreakerState reports the endpoint's breaker state.
func (r *Resilient) BreakerState(endpoint string) BreakerState {
	return r.breakerFor(endpoint).stateNow()
}

// BreakerStates snapshots every endpoint breaker that has seen traffic —
// the bulk form the service layer's metrics endpoint renders.
func (r *Resilient) BreakerStates() map[string]BreakerState {
	r.mu.Lock()
	endpoints := make([]string, 0, len(r.breakers))
	for ep := range r.breakers {
		endpoints = append(endpoints, ep)
	}
	r.mu.Unlock()
	states := make(map[string]BreakerState, len(endpoints))
	for _, ep := range endpoints {
		states[ep] = r.breakerFor(ep).stateNow()
	}
	return states
}

// breakerFor returns (creating on demand) the endpoint's breaker.
func (r *Resilient) breakerFor(endpoint string) *breaker {
	r.mu.Lock()
	defer r.mu.Unlock()
	b := r.breakers[endpoint]
	if b == nil {
		b = &breaker{window: make([]bool, r.policy.BreakerWindow)}
		r.breakers[endpoint] = b
	}
	return b
}

// backoff computes the attempt's delay: capped exponential with
// deterministic jitter in [0.5, 1.0) of the nominal delay, derived from
// (JitterSeed, endpoint, per-endpoint attempt counter).
func (r *Resilient) backoff(endpoint string, b *breaker, attempt int) time.Duration {
	d := r.policy.BaseDelay << uint(attempt-1)
	if d > r.policy.MaxDelay || d <= 0 {
		d = r.policy.MaxDelay
	}
	seq := atomic.AddUint64(&b.seq, 1)
	rng := datagen.NewRNG(datagen.DeriveSeed(r.policy.JitterSeed, "jitter", endpoint) ^ seq*0x9E3779B97F4A7C15)
	return time.Duration((0.5 + 0.5*rng.Float64()) * float64(d))
}

// reissueKey carries a process instance's re-issue budget through a
// context.
type reissueKey struct{}

// WithReissues gives the external calls made under ctx a shared budget of
// n re-issues: a call whose attempts are all used up by transient faults
// starts a fresh round of attempts while the budget lasts. Re-issuing the
// one failed call, rather than re-running the whole instance, keeps the
// instance's earlier writes from being applied twice — a re-run's plain
// inserts would fail with "duplicate key" and the instance for good.
func WithReissues(ctx context.Context, n int) context.Context {
	if n <= 0 {
		return ctx
	}
	b := new(atomic.Int64)
	b.Store(int64(n))
	return context.WithValue(ctx, reissueKey{}, b)
}

// takeReissue spends one unit of the context's re-issue budget.
func takeReissue(ctx context.Context) bool {
	b, _ := ctx.Value(reissueKey{}).(*atomic.Int64)
	return b != nil && b.Add(-1) >= 0
}

// do runs one external call under the resilience policy, re-issuing it
// while the context's re-issue budget lasts (WithReissues).
func (r *Resilient) do(ctx context.Context, endpoint string, op func(context.Context) error) error {
	for {
		err := r.attempts(ctx, endpoint, op)
		var ee *ExhaustedError
		if !errors.As(err, &ee) || ctx.Err() != nil || !takeReissue(ctx) {
			return err
		}
		r.retries.Add(1)
		r.rec.CountRetry(endpoint)
	}
}

// attempts runs one round of up to MaxAttempts attempts of a call.
func (r *Resilient) attempts(ctx context.Context, endpoint string, op func(context.Context) error) error {
	b := r.breakerFor(endpoint)
	now := time.Now()
	if !b.allow(now, r.policy.BreakerCooldown) {
		return &OpenError{Endpoint: endpoint}
	}
	if r.policy.InvokeTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.policy.InvokeTimeout)
		defer cancel()
	}
	var err error
	attempts := 0
	for attempt := 1; attempt <= r.policy.MaxAttempts; attempt++ {
		attempts = attempt
		err = op(ctx)
		failed := err != nil && IsTransient(err)
		if b.result(failed, r.policy.BreakerThreshold, time.Now()) {
			r.trips.Add(1)
			r.rec.CountTrip(endpoint)
		}
		if err == nil || !failed {
			return err
		}
		if attempt == r.policy.MaxAttempts || b.stateNow() == BreakerOpen {
			break
		}
		r.retries.Add(1)
		r.rec.CountRetry(endpoint)
		if serr := Sleep(ctx, r.backoff(endpoint, b, attempt)); serr != nil {
			break
		}
		// Re-check the breaker between attempts; a concurrent trip stops
		// the retry loop so a sick endpoint is not hammered.
		if !b.allow(time.Now(), r.policy.BreakerCooldown) {
			break
		}
	}
	return &ExhaustedError{Endpoint: endpoint, Attempts: attempts, Err: err}
}

// Query implements mtm.External.
func (r *Resilient) Query(ctx context.Context, system, table string, pred rel.Predicate) (*rel.Relation, error) {
	var out *rel.Relation
	err := r.do(ctx, system, func(ctx context.Context) error {
		var e error
		out, e = r.inner.Query(ctx, system, table, pred)
		return e
	})
	return out, err
}

// FetchXML implements mtm.External.
func (r *Resilient) FetchXML(ctx context.Context, system, table string) ([]byte, error) {
	var out []byte
	err := r.do(ctx, system, func(ctx context.Context) error {
		var e error
		out, e = r.inner.FetchXML(ctx, system, table)
		return e
	})
	return out, err
}

// Insert implements mtm.External. Retrying is safe because faults are
// injected before the store mutates (and real transport faults on the
// loopback reject the request before the handler runs).
func (r *Resilient) Insert(ctx context.Context, system, table string, rl *rel.Relation) error {
	return r.do(ctx, system, func(ctx context.Context) error {
		return r.inner.Insert(ctx, system, table, rl)
	})
}

// Upsert implements mtm.External.
func (r *Resilient) Upsert(ctx context.Context, system, table string, rl *rel.Relation) error {
	return r.do(ctx, system, func(ctx context.Context) error {
		return r.inner.Upsert(ctx, system, table, rl)
	})
}

// Delete implements mtm.External.
func (r *Resilient) Delete(ctx context.Context, system, table string, pred rel.Predicate) (int, error) {
	var n int
	err := r.do(ctx, system, func(ctx context.Context) error {
		var e error
		n, e = r.inner.Delete(ctx, system, table, pred)
		return e
	})
	return n, err
}

// Update implements mtm.External.
func (r *Resilient) Update(ctx context.Context, system, table string, pred rel.Predicate, set map[string]rel.Value) (int, error) {
	var n int
	err := r.do(ctx, system, func(ctx context.Context) error {
		var e error
		n, e = r.inner.Update(ctx, system, table, pred, set)
		return e
	})
	return n, err
}

// Call implements mtm.External.
func (r *Resilient) Call(ctx context.Context, system, proc string, args ...rel.Value) (*rel.Relation, error) {
	var out *rel.Relation
	err := r.do(ctx, system, func(ctx context.Context) error {
		var e error
		out, e = r.inner.Call(ctx, system, proc, args...)
		return e
	})
	return out, err
}

// Send implements mtm.External.
func (r *Resilient) Send(ctx context.Context, system string, msg []byte) error {
	return r.do(ctx, system, func(ctx context.Context) error {
		return r.inner.Send(ctx, system, msg)
	})
}

// IsOpen reports whether the error is a breaker-open fast failure.
func IsOpen(err error) bool {
	var oe *OpenError
	return errors.As(err, &oe)
}

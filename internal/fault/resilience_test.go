package fault

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	rel "repro/internal/relational"
	x "repro/internal/xmlmsg"
)

// fakeExt is a scriptable external gateway: fail decides the outcome of
// the n-th call (1-based) to an endpoint.
type fakeExt struct {
	mu    sync.Mutex
	calls map[string]int
	fail  func(endpoint string, call int) error
}

func newFakeExt(fail func(endpoint string, call int) error) *fakeExt {
	return &fakeExt{calls: make(map[string]int), fail: fail}
}

func (f *fakeExt) attempt(endpoint string) error {
	f.mu.Lock()
	f.calls[endpoint]++
	n := f.calls[endpoint]
	f.mu.Unlock()
	if f.fail != nil {
		return f.fail(endpoint, n)
	}
	return nil
}

func (f *fakeExt) callCount(endpoint string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls[endpoint]
}

func (f *fakeExt) Query(ctx context.Context, system, table string, pred rel.Predicate) (*rel.Relation, error) {
	return nil, f.attempt(system)
}
func (f *fakeExt) FetchXML(ctx context.Context, system, table string) ([]byte, error) {
	return nil, f.attempt(system)
}
func (f *fakeExt) Insert(ctx context.Context, system, table string, r *rel.Relation) error {
	return f.attempt(system)
}
func (f *fakeExt) Upsert(ctx context.Context, system, table string, r *rel.Relation) error {
	return f.attempt(system)
}
func (f *fakeExt) Delete(ctx context.Context, system, table string, pred rel.Predicate) (int, error) {
	return 0, f.attempt(system)
}
func (f *fakeExt) Update(ctx context.Context, system, table string, pred rel.Predicate, set map[string]rel.Value) (int, error) {
	return 0, f.attempt(system)
}
func (f *fakeExt) Call(ctx context.Context, system, proc string, args ...rel.Value) (*rel.Relation, error) {
	return nil, f.attempt(system)
}
func (f *fakeExt) Send(ctx context.Context, system string, doc *x.Node) error {
	return f.attempt(system)
}

// countingRecorder tallies resilience events per endpoint/process.
type countingRecorder struct {
	mu      sync.Mutex
	retries map[string]int
	trips   map[string]int
	dlq     map[string]int
}

func newCountingRecorder() *countingRecorder {
	return &countingRecorder{
		retries: make(map[string]int), trips: make(map[string]int), dlq: make(map[string]int),
	}
}
func (r *countingRecorder) CountRetry(ep string) { r.mu.Lock(); r.retries[ep]++; r.mu.Unlock() }
func (r *countingRecorder) CountTrip(ep string)  { r.mu.Lock(); r.trips[ep]++; r.mu.Unlock() }
func (r *countingRecorder) CountDLQ(p string)    { r.mu.Lock(); r.dlq[p]++; r.mu.Unlock() }

// fastPolicy keeps test backoffs in the microsecond range.
func fastPolicy() Policy {
	return Policy{
		MaxAttempts: 4,
		BaseDelay:   10 * time.Microsecond,
		MaxDelay:    100 * time.Microsecond,
	}
}

func TestPolicyDefaults(t *testing.T) {
	p := DefaultPolicy()
	if p.MaxAttempts != 4 || p.BaseDelay != 500*time.Microsecond || p.MaxDelay != 8*time.Millisecond ||
		p.InvokeTimeout != 10*time.Second || p.BreakerWindow != 16 || p.BreakerThreshold != 0.5 ||
		p.BreakerCooldown != 50*time.Millisecond || p.DispatchRetries != 1 || p.DLQLimit != 1024 {
		t.Errorf("unexpected defaults: %+v", p)
	}
	if q := (Policy{DispatchRetries: -1}).withDefaults(); q.DispatchRetries != 0 {
		t.Errorf("DispatchRetries -1 should disable redispatch, got %d", q.DispatchRetries)
	}
}

func TestRetryRecoversTransientFault(t *testing.T) {
	ext := newFakeExt(func(ep string, call int) error {
		if call <= 2 {
			return &TransientError{Endpoint: ep, Msg: "injected"}
		}
		return nil
	})
	rec := newCountingRecorder()
	r := NewResilient(ext, fastPolicy(), rec)
	if err := r.Send(context.Background(), "ws/cdb", nil); err != nil {
		t.Fatalf("send after transient faults: %v", err)
	}
	if n := ext.callCount("ws/cdb"); n != 3 {
		t.Errorf("call count = %d, want 3", n)
	}
	if retries, trips := r.Stats(); retries != 2 || trips != 0 {
		t.Errorf("stats = (%d retries, %d trips), want (2, 0)", retries, trips)
	}
	if rec.retries["ws/cdb"] != 2 {
		t.Errorf("recorder retries = %v", rec.retries)
	}
}

func TestNonTransientErrorNotRetried(t *testing.T) {
	appErr := errors.New("mtm: unknown table Customers")
	ext := newFakeExt(func(string, int) error { return appErr })
	r := NewResilient(ext, fastPolicy(), nil)
	_, err := r.Query(context.Background(), "db/dwh", "Customers", nil)
	if !errors.Is(err, appErr) {
		t.Fatalf("err = %v, want the application error unchanged", err)
	}
	var ex *ExhaustedError
	if errors.As(err, &ex) {
		t.Error("non-transient error wrapped in ExhaustedError")
	}
	if n := ext.callCount("db/dwh"); n != 1 {
		t.Errorf("call count = %d, want 1 (no retry)", n)
	}
	if retries, _ := r.Stats(); retries != 0 {
		t.Errorf("retries = %d, want 0", retries)
	}
}

func TestExhaustedAfterMaxAttempts(t *testing.T) {
	ext := newFakeExt(func(ep string, int int) error {
		return &HTTPStatusError{Status: 503, Body: "injected"}
	})
	r := NewResilient(ext, fastPolicy(), nil)
	err := r.Insert(context.Background(), "ws/supplier", "Products", nil)
	var ex *ExhaustedError
	if !errors.As(err, &ex) {
		t.Fatalf("err = %v, want ExhaustedError", err)
	}
	if ex.Attempts != 4 {
		t.Errorf("attempts = %d, want 4", ex.Attempts)
	}
	if !IsTransient(err) {
		t.Error("exhausted transient error should still classify as transient")
	}
	var he *HTTPStatusError
	if !errors.As(err, &he) || he.Status != 503 {
		t.Error("ExhaustedError should unwrap to the last attempt's error")
	}
	if n := ext.callCount("ws/supplier"); n != 4 {
		t.Errorf("call count = %d, want 4", n)
	}
}

// TestReissueBudgetRetriesOnlyTheExhaustedCall: a call whose attempts all
// fail transiently gets a fresh round while the context's budget lasts,
// the budget is shared by every call made under that context, and calls
// that succeed are never repeated.
func TestReissueBudgetRetriesOnlyTheExhaustedCall(t *testing.T) {
	// ws/mart fails its first 6 attempts: one full round of 4 plus two
	// more, so it needs exactly one re-issue.
	ext := newFakeExt(func(ep string, call int) error {
		if ep == "ws/mart" && call <= 6 {
			return &TransientError{Endpoint: ep, Msg: "injected"}
		}
		return nil
	})
	rec := newCountingRecorder()
	r := NewResilient(ext, fastPolicy(), rec)
	ctx := WithReissues(context.Background(), 1)
	if err := r.Insert(ctx, "ws/dwh", "Orders", nil); err != nil {
		t.Fatalf("healthy insert: %v", err)
	}
	if err := r.Insert(ctx, "ws/mart", "Customer", nil); err != nil {
		t.Fatalf("insert with one re-issue left: %v", err)
	}
	if n := ext.callCount("ws/dwh"); n != 1 {
		t.Errorf("healthy call repeated: %d calls, want 1", n)
	}
	if n := ext.callCount("ws/mart"); n != 7 {
		t.Errorf("faulty call count = %d, want 7 (4 + 3 after the re-issue)", n)
	}
	if retries, _ := r.Stats(); retries != 6 || rec.retries["ws/mart"] != 6 {
		t.Errorf("retries = %d (recorder %v), want 6: 3+1 re-issue+2", retries, rec.retries)
	}

	// The budget is spent: the next exhausted call under ctx gives up
	// after one round, and a context without a budget never re-issues.
	down := newFakeExt(func(ep string, int int) error {
		return &HTTPStatusError{Status: 503, Body: "injected"}
	})
	rd := NewResilient(down, fastPolicy(), nil)
	for _, c := range []context.Context{ctx, context.Background(), WithReissues(context.Background(), 0)} {
		before := down.callCount("ws/cdb")
		err := rd.Insert(c, "ws/cdb", "Orders", nil)
		var ex *ExhaustedError
		if !errors.As(err, &ex) || ex.Attempts != 4 {
			t.Fatalf("err = %v, want ExhaustedError after 4 attempts", err)
		}
		if n := down.callCount("ws/cdb") - before; n != 4 {
			t.Errorf("call count = %d, want 4 (no re-issue)", n)
		}
	}

	// Two re-issues: a permanently failing call runs three rounds (the
	// breaker is off so its window cannot cut the rounds short).
	pol := fastPolicy()
	pol.BreakerThreshold = 1.1
	down = newFakeExt(down.fail)
	rd = NewResilient(down, pol, nil)
	if err := rd.Insert(WithReissues(context.Background(), 2), "ws/cdb", "Orders", nil); !IsTransient(err) {
		t.Fatalf("err = %v, want a transient exhaustion", err)
	}
	if n := down.callCount("ws/cdb"); n != 12 {
		t.Errorf("call count = %d, want 12 (3 rounds of 4)", n)
	}
}

// TestBreakerTripIsolatesEndpoint is the ISSUE acceptance scenario: one
// endpoint's open breaker fast-fails its calls while an unrelated
// endpoint keeps working — streams touching healthy systems continue.
func TestBreakerTripIsolatesEndpoint(t *testing.T) {
	ext := newFakeExt(func(ep string, call int) error {
		if ep == "ws/sick" {
			return &TransientError{Endpoint: ep, Msg: "down"}
		}
		return nil
	})
	rec := newCountingRecorder()
	pol := fastPolicy()
	pol.MaxAttempts = 1 // one outcome per call: window fills predictably
	pol.BreakerWindow = 4
	pol.BreakerThreshold = 0.5
	pol.BreakerCooldown = time.Hour // no half-open during this test
	r := NewResilient(ext, pol, rec)

	for i := 0; i < 4; i++ {
		if err := r.Send(context.Background(), "ws/sick", nil); err == nil {
			t.Fatal("sick endpoint unexpectedly succeeded")
		}
	}
	if st := r.BreakerState("ws/sick"); st != BreakerOpen {
		t.Fatalf("breaker state = %v, want open", st)
	}
	before := ext.callCount("ws/sick")
	err := r.Send(context.Background(), "ws/sick", nil)
	if !IsOpen(err) {
		t.Fatalf("err = %v, want breaker-open fast failure", err)
	}
	if ext.callCount("ws/sick") != before {
		t.Error("open breaker still let the call through")
	}
	// The healthy endpoint is unaffected by its neighbour's open breaker.
	for i := 0; i < 8; i++ {
		if err := r.Send(context.Background(), "ws/healthy", nil); err != nil {
			t.Fatalf("healthy endpoint failed while sick breaker open: %v", err)
		}
	}
	if st := r.BreakerState("ws/healthy"); st != BreakerClosed {
		t.Errorf("healthy breaker state = %v, want closed", st)
	}
	if _, trips := r.Stats(); trips != 1 {
		t.Errorf("trips = %d, want 1", trips)
	}
	if rec.trips["ws/sick"] != 1 || rec.trips["ws/healthy"] != 0 {
		t.Errorf("recorder trips = %v", rec.trips)
	}
}

func TestBreakerHalfOpenRecovery(t *testing.T) {
	healthy := false
	var mu sync.Mutex
	ext := newFakeExt(func(ep string, call int) error {
		mu.Lock()
		defer mu.Unlock()
		if healthy {
			return nil
		}
		return &TransientError{Endpoint: ep, Msg: "down"}
	})
	pol := fastPolicy()
	pol.MaxAttempts = 1
	pol.BreakerWindow = 2
	pol.BreakerThreshold = 0.5
	pol.BreakerCooldown = 5 * time.Millisecond
	r := NewResilient(ext, pol, nil)

	for i := 0; i < 2; i++ {
		_ = r.Send(context.Background(), "ws/x", nil)
	}
	if st := r.BreakerState("ws/x"); st != BreakerOpen {
		t.Fatalf("breaker state = %v, want open", st)
	}
	// Endpoint recovers; after the cooldown a single probe closes the
	// breaker again.
	mu.Lock()
	healthy = true
	mu.Unlock()
	time.Sleep(2 * pol.BreakerCooldown)
	if err := r.Send(context.Background(), "ws/x", nil); err != nil {
		t.Fatalf("half-open probe failed: %v", err)
	}
	if st := r.BreakerState("ws/x"); st != BreakerClosed {
		t.Fatalf("breaker state after successful probe = %v, want closed", st)
	}
	if err := r.Send(context.Background(), "ws/x", nil); err != nil {
		t.Fatalf("call after recovery: %v", err)
	}
}

func TestBreakerFailedProbeReopens(t *testing.T) {
	ext := newFakeExt(func(ep string, call int) error {
		return &TransientError{Endpoint: ep, Msg: "still down"}
	})
	pol := fastPolicy()
	pol.MaxAttempts = 1
	pol.BreakerWindow = 2
	pol.BreakerThreshold = 0.5
	pol.BreakerCooldown = 2 * time.Millisecond
	r := NewResilient(ext, pol, nil)
	for i := 0; i < 2; i++ {
		_ = r.Send(context.Background(), "ws/x", nil)
	}
	time.Sleep(2 * pol.BreakerCooldown)
	before := ext.callCount("ws/x")
	_ = r.Send(context.Background(), "ws/x", nil) // the probe, which fails
	if ext.callCount("ws/x") != before+1 {
		t.Fatal("cooldown expiry should let exactly one probe through")
	}
	if st := r.BreakerState("ws/x"); st != BreakerOpen {
		t.Fatalf("breaker state after failed probe = %v, want open", st)
	}
	if _, trips := r.Stats(); trips != 1 {
		t.Errorf("re-opening after a failed probe counted as a fresh trip (trips=%d)", trips)
	}
}

func TestInvokeTimeout(t *testing.T) {
	ext := newFakeExt(nil)
	blockingExt := &blockingFake{fakeExt: ext}
	pol := fastPolicy()
	pol.MaxAttempts = 1
	pol.InvokeTimeout = 5 * time.Millisecond
	r := NewResilient(blockingExt, pol, nil)
	start := time.Now()
	err := r.Send(context.Background(), "ws/slow", nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("invoke deadline not enforced (took %v)", elapsed)
	}
}

// blockingFake blocks every call until the per-invoke context expires.
type blockingFake struct{ *fakeExt }

func (b *blockingFake) Send(ctx context.Context, system string, doc *x.Node) error {
	<-ctx.Done()
	return ctx.Err()
}

func TestBackoffDeterministicJitter(t *testing.T) {
	seq := func() []time.Duration {
		r := NewResilient(newFakeExt(nil), Policy{JitterSeed: 11, BaseDelay: time.Millisecond, MaxDelay: 8 * time.Millisecond}, nil)
		b := r.breakerFor("ws/x")
		var out []time.Duration
		for attempt := 1; attempt <= 6; attempt++ {
			out = append(out, r.backoff("ws/x", b, attempt))
		}
		return out
	}
	a, b := seq(), seq()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("attempt %d: jitter not deterministic (%v vs %v)", i+1, a[i], b[i])
		}
		// Nominal delay doubles per attempt, capped at MaxDelay; jitter
		// scales it into [0.5, 1.0).
		nominal := time.Millisecond << uint(i)
		if nominal > 8*time.Millisecond {
			nominal = 8 * time.Millisecond
		}
		if a[i] < nominal/2 || a[i] >= nominal {
			t.Errorf("attempt %d: backoff %v outside [%v, %v)", i+1, a[i], nominal/2, nominal)
		}
	}
}

func TestResilientConcurrentEndpoints(t *testing.T) {
	// Concurrent calls across endpoints must not race (run with -race).
	ext := newFakeExt(func(ep string, call int) error {
		if call%3 == 0 {
			return &TransientError{Endpoint: ep, Msg: "flaky"}
		}
		return nil
	})
	r := NewResilient(ext, fastPolicy(), newCountingRecorder())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ep := []string{"ws/a", "ws/b", "db/c", "es/d"}[i%4]
			for j := 0; j < 25; j++ {
				_ = r.Send(context.Background(), ep, nil)
			}
		}(i)
	}
	wg.Wait()
}

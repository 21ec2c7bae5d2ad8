package driver

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/schedule"
)

// captureLog records every RecoveryLog callback and optionally misbehaves
// at a chosen barrier.
type captureLog struct {
	mu         sync.Mutex
	dispatches int
	acks       int
	streams    []string
	barriers   []BarrierPoint
	onBarrier  func(bp BarrierPoint) error // nil = accept
}

func (l *captureLog) PeriodBegin(k int) error { return nil }

func (l *captureLog) StreamBegin(k int, s schedule.Stream) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.streams = append(l.streams, "B"+s.String())
	return nil
}

func (l *captureLog) Dispatched(k int, s schedule.Stream, process string, seq int, digest uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.dispatches++
	return nil
}

func (l *captureLog) Acked(k int, s schedule.Stream, process string, seq int, digest uint64, failed bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.acks++
	return nil
}

func (l *captureLog) StreamEnd(k int, s schedule.Stream) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.streams = append(l.streams, "E"+s.String())
	return nil
}

func (l *captureLog) Barrier(bp BarrierPoint) error {
	l.mu.Lock()
	fn := l.onBarrier
	l.barriers = append(l.barriers, bp)
	l.mu.Unlock()
	if fn != nil {
		return fn(bp)
	}
	return nil
}

func (l *captureLog) barrierIDs() []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]int, len(l.barriers))
	for i, b := range l.barriers {
		out[i] = b.Barrier
	}
	return out
}

func TestRecoveryLogObservesBarriers(t *testing.T) {
	r := newRig(t, false)
	log := &captureLog{}
	c, err := NewClient(Config{Scale: testScale(0.01), Periods: 2, Seed: 7, Clock: FastClock{}, Log: log}, r.s, r.eng)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := c.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 3, 0, 1, 2, 3}
	got := log.barrierIDs()
	if len(got) != len(want) {
		t.Fatalf("barriers %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("barriers %v, want %v", got, want)
		}
	}
	if log.dispatches != stats.Events || log.acks != stats.Events {
		t.Fatalf("logged %d dispatches / %d acks, ran %d events", log.dispatches, log.acks, stats.Events)
	}
	last := log.barriers[len(log.barriers)-1]
	if last.Events != stats.Events || last.PeriodsDone != 2 {
		t.Fatalf("final barrier %+v, stats %+v", last, stats)
	}
}

// TestCancelDuringBarrierNoGoroutineLeak is the satellite leak test: a
// context cancelled while the checkpoint barrier callback is still
// running must stop the run promptly, never invoke the next barrier, and
// leave no dispatch goroutines behind.
func TestCancelDuringBarrierNoGoroutineLeak(t *testing.T) {
	r := newRig(t, false)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	before := runtime.NumGoroutine()
	log := &captureLog{}
	log.onBarrier = func(bp BarrierPoint) error {
		if bp.Barrier == BarrierAB {
			// Simulate an in-flight checkpoint commit when the user pulls
			// the plug.
			cancel()
			time.Sleep(50 * time.Millisecond)
		}
		return nil
	}
	c, err := NewClient(Config{Scale: testScale(0.01), Periods: 3, Seed: 7, Clock: FastClock{}, Log: log}, r.s, r.eng)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var runErr error
	go func() {
		_, runErr = c.RunContext(ctx)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("run did not stop after cancellation during a barrier")
	}
	if !errors.Is(runErr, context.Canceled) {
		t.Fatalf("error: %v", runErr)
	}
	for _, b := range log.barrierIDs() {
		if b > BarrierAB {
			t.Fatalf("barrier %d ran after cancellation (barriers: %v)", b, log.barrierIDs())
		}
	}
	// All dispatchers and monitor instances wound down.
	deadline := time.Now().Add(5 * time.Second)
	for r.mon.Active() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d instances still active", r.mon.Active())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The web services' keep-alive connections (up to two pooled per host,
	// three goroutines each) are not dispatch goroutines; closing the
	// servers ends them.
	if err := r.s.Close(); err != nil {
		t.Fatal(err)
	}
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+3 {
			return
		}
		runtime.Gosched()
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutines: before=%d after=%d", before, runtime.NumGoroutine())
}

// TestBarrierErrorAbortsRun: a recovery log that cannot persist must
// abort the run loudly.
func TestBarrierErrorAbortsRun(t *testing.T) {
	r := newRig(t, false)
	boom := errors.New("disk full")
	log := &captureLog{onBarrier: func(bp BarrierPoint) error {
		if bp.Barrier == BarrierC {
			return boom
		}
		return nil
	}}
	c, err := NewClient(Config{Scale: testScale(0.01), Periods: 2, Seed: 7, Clock: FastClock{}, Log: log}, r.s, r.eng)
	if err != nil {
		t.Fatal(err)
	}
	_, runErr := c.RunContext(context.Background())
	if !errors.Is(runErr, boom) {
		t.Fatalf("error: %v", runErr)
	}
}

func TestCrasherStopsAtOccurrence(t *testing.T) {
	r := newRig(t, false)
	log := &captureLog{}
	crasher := fault.NewCrasher(fault.CrashPoint{Period: 0, Stream: 1, Occurrence: 2})
	c, err := NewClient(Config{Scale: testScale(0.01), Periods: 2, Seed: 7, Clock: FastClock{}, Log: log, Crasher: crasher}, r.s, r.eng)
	if err != nil {
		t.Fatal(err)
	}
	_, runErr := c.RunContext(context.Background())
	if !errors.Is(runErr, fault.ErrCrash) {
		t.Fatalf("error: %v", runErr)
	}
	if !crasher.Fired() {
		t.Fatal("crasher did not fire")
	}
	for _, b := range log.barrierIDs() {
		if b >= BarrierAB {
			t.Fatalf("barrier %d committed after the crash point", b)
		}
	}
}

func TestCrasherBarrierStopsBetweenStreams(t *testing.T) {
	r := newRig(t, false)
	log := &captureLog{}
	crasher := fault.NewCrasher(fault.CrashPoint{Period: 0, Stream: 2, Occurrence: 0})
	c, err := NewClient(Config{Scale: testScale(0.01), Periods: 1, Seed: 7, Clock: FastClock{}, Log: log, Crasher: crasher}, r.s, r.eng)
	if err != nil {
		t.Fatal(err)
	}
	_, runErr := c.RunContext(context.Background())
	if !errors.Is(runErr, fault.ErrCrash) {
		t.Fatalf("error: %v", runErr)
	}
	// Stream C completed and was logged; its barrier checkpoint did not
	// commit, and stream D never started.
	ids := log.barrierIDs()
	for _, b := range ids {
		if b >= BarrierC {
			t.Fatalf("barrier %d committed despite barrier crash (%v)", b, ids)
		}
	}
	sawEndC, sawBeginD := false, false
	log.mu.Lock()
	for _, s := range log.streams {
		if s == "EC" {
			sawEndC = true
		}
		if s == "BD" {
			sawBeginD = true
		}
	}
	log.mu.Unlock()
	if !sawEndC || sawBeginD {
		t.Fatalf("streams %v: want C ended, D never begun", log.streams)
	}
}

func TestResumeSkipsCompletedStreams(t *testing.T) {
	// A resume at the C barrier must only dispatch stream D.
	r := newRig(t, false)
	log := &captureLog{}
	plan, err := schedule.PeriodPlan(0, testScale(0.01))
	if err != nil {
		t.Fatal(err)
	}
	dCount := len(plan.ByStream(schedule.StreamD))
	c, err := NewClient(Config{
		Scale: testScale(0.01), Periods: 1, Seed: 7, Clock: FastClock{}, Log: log,
		Resume: &Resume{Period: 0, Barrier: BarrierC, Events: 100, Failures: 1,
			FailuresByProcess: map[string]int{"P04": 1}, PeriodsDone: 0},
	}, r.s, r.eng)
	if err != nil {
		t.Fatal(err)
	}
	// The rig's scenario was initialized by newRig; stream D (P14/P15)
	// reads warehouse state, which is empty — failures are fine, we only
	// check the schedule shape here.
	stats, err := c.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if log.dispatches != dCount {
		t.Fatalf("resume dispatched %d events, want %d (stream D only)", log.dispatches, dCount)
	}
	if stats.Events != 100+dCount {
		t.Fatalf("stats.Events = %d, want %d", stats.Events, 100+dCount)
	}
	if stats.Periods != 1 {
		t.Fatalf("stats.Periods = %d", stats.Periods)
	}
	ids := log.barrierIDs()
	if len(ids) != 1 || ids[0] != BarrierPeriodEnd {
		t.Fatalf("barriers %v, want [3]", ids)
	}
	if bp := log.barriers[0]; bp.PeriodsDone != 1 || bp.Events != 100+dCount {
		t.Fatalf("final barrier %+v", bp)
	}
}

func TestResumePastEndRunsNothing(t *testing.T) {
	r := newRig(t, false)
	log := &captureLog{}
	c, err := NewClient(Config{
		Scale: testScale(0.01), Periods: 1, Seed: 7, Clock: FastClock{}, Log: log,
		Resume: &Resume{Period: 0, Barrier: BarrierPeriodEnd, Events: 42, PeriodsDone: 1},
	}, r.s, r.eng)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := c.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if log.dispatches != 0 || stats.Events != 42 || stats.Periods != 1 {
		t.Fatalf("dispatches=%d stats=%+v", log.dispatches, stats)
	}
}

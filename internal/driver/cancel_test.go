package driver

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/schedule"
)

func TestRunContextCancellationStopsTheRun(t *testing.T) {
	r := newRig(t, false)
	before := runtime.NumGoroutine()
	// Real clock at t=1: the period lasts seconds, giving the cancel a
	// wide window.
	sf := schedule.ScaleFactors{Datasize: 0.005, Time: 1, Dist: datagen.Uniform}
	c, err := NewClient(Config{Scale: sf, Periods: 100, Seed: 3, Clock: RealClock{}, Verify: true}, r.s, r.eng)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var stats *RunStats
	var runErr error
	go func() {
		stats, runErr = c.RunContext(ctx)
		close(done)
	}()
	time.Sleep(100 * time.Millisecond)
	start := time.Now()
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("run did not stop after cancellation")
	}
	if !errors.Is(runErr, context.Canceled) {
		t.Fatalf("error: %v", runErr)
	}
	// The stop is prompt: in-flight instances finish, queued waits abort.
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("cancellation took %v", took)
	}
	if stats == nil || stats.Periods >= 100 {
		t.Fatalf("stats: %+v", stats)
	}
	// No verification after a cancelled run.
	if stats.Verification != nil {
		t.Error("verification ran despite cancellation")
	}
	// No dispatchers left behind.
	deadline := time.Now().Add(5 * time.Second)
	for r.mon.Active() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d instances still active", r.mon.Active())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Goroutine-leak assertion: every dispatcher AND the pipelined
	// period-init goroutine must wind down after the cancel — a lingering
	// prepare would keep generating data for a period nobody executes. The
	// web services' keep-alive connections are not part of it; closing the
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
	t.Fatalf("goroutine leak after cancellation: before=%d after=%d", before, runtime.NumGoroutine())
}

func TestRunContextAlreadyCancelled(t *testing.T) {
	r := newRig(t, false)
	c, _ := NewClient(Config{Scale: testScale(0.005), Periods: 1, Seed: 3, Clock: FastClock{}}, r.s, r.eng)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	stats, err := c.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error: %v", err)
	}
	if stats.Events != 0 {
		t.Errorf("events executed despite pre-cancelled context: %d", stats.Events)
	}
}

func TestRunContextCompletesNormallyWithoutCancel(t *testing.T) {
	r := newRig(t, false)
	c, _ := NewClient(Config{Scale: testScale(0.005), Periods: 1, Seed: 3, Clock: FastClock{}, Verify: true}, r.s, r.eng)
	stats, err := c.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Periods != 1 || !stats.Verification.OK() {
		t.Fatalf("stats: %+v", stats)
	}
}

func TestClockWaitUntilCancellable(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err := (RealClock{}).WaitUntil(ctx, time.Now(), time.Hour)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error: %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("wait did not abort promptly")
	}
	// Past deadlines return immediately with no error on a live context.
	if err := (RealClock{}).WaitUntil(context.Background(), time.Now().Add(-time.Hour), 0); err != nil {
		t.Fatal(err)
	}
	if err := (FastClock{}).WaitUntil(context.Background(), time.Now(), time.Hour); err != nil {
		t.Fatal(err)
	}
}

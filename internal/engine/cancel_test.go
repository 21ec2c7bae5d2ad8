package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/processes"
)

// TestCancelledExecuteDoesNotBlockOnSaturatedPool pins the cancellation
// hardening of the worker-pool acquisition: an ExecuteContext whose
// context is already cancelled must return promptly even when every
// worker slot is taken, instead of queueing behind them forever.
func TestCancelledExecuteDoesNotBlockOnSaturatedPool(t *testing.T) {
	f := newFixture(t)
	e, err := New("pool", Options{PlanCache: true, MaxWorkers: 1}, processes.MustNew(), f.s.Gateway(), f.mon)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// Saturate the single worker slot.
	e.workers <- struct{}{}
	defer func() { <-e.workers }()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan error, 1)
	go func() { done <- e.ExecuteContext(ctx, "P03", nil, 0) }()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("error: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled ExecuteContext blocked on the saturated worker pool")
	}
}

package engine

import (
	"errors"
	"testing"

	"repro/internal/fault"
)

// TestSetResilienceNoDoubleWrap pins that repeated SetResilience calls
// replace the wrapper instead of nesting it.
func TestSetResilienceNoDoubleWrap(t *testing.T) {
	f := newFixture(t)
	e := f.pipeline(t)
	defer e.Close()
	base := e.base
	p1 := fault.DefaultPolicy()
	e.SetResilience(p1, nil)
	first := e.resilient
	if first == nil || e.ext != first {
		t.Fatal("first SetResilience did not install the wrapper")
	}
	p2 := fault.DefaultPolicy()
	p2.MaxAttempts = p1.MaxAttempts + 3
	e.SetResilience(p2, nil)
	if e.resilient == first {
		t.Fatal("second SetResilience kept the old wrapper")
	}
	if e.base != base {
		t.Fatal("base gateway changed across SetResilience calls")
	}
	if got := e.opts.Resilience.MaxAttempts; got != p2.MaxAttempts {
		t.Fatalf("effective MaxAttempts = %d, want %d", got, p2.MaxAttempts)
	}
}

func TestCheckpointStateRoundTrip(t *testing.T) {
	f := newFixture(t)
	src := f.federated(t)
	defer src.Close()
	src.queueSeq.Store(41)
	src.AddDeadLetter("P04", 2, nil, errors.New("boom"))

	st, err := src.CheckpointState()
	if err != nil {
		t.Fatal(err)
	}
	if st.QueueSeq != 41 || len(st.DeadLetters) != 1 || st.DeadLetters[0].Cause != "boom" {
		t.Fatalf("state %+v", st)
	}
	if len(st.Internal) == 0 {
		t.Fatal("federated checkpoint must capture the queue tables")
	}

	dst := f.federated(t)
	defer dst.Close()
	if err := dst.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if dst.queueSeq.Load() != 41 {
		t.Fatalf("queueSeq = %d", dst.queueSeq.Load())
	}
	dlq, dropped := dst.DeadLetters()
	if len(dlq) != 1 || dropped != 0 || dlq[0].Err.Error() != "boom" {
		t.Fatalf("dlq %+v dropped=%d", dlq, dropped)
	}
	if err := dst.RestoreState(nil); err == nil {
		t.Fatal("nil state must be rejected")
	}
}

func TestDurabilitySinks(t *testing.T) {
	f := newFixture(t)
	e := f.pipeline(t)
	defer e.Close()
	var letters []DeadLetter
	e.SetDLQSink(func(d DeadLetter) { letters = append(letters, d) })
	e.AddDeadLetter("P10", 1, nil, errors.New("gone"))
	if len(letters) != 1 || letters[0].Process != "P10" {
		t.Fatalf("dlq sink saw %v", letters)
	}
}

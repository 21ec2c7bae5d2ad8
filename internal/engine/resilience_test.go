package engine

import (
	"errors"
	"testing"

	"repro/internal/fault"
)

func TestSetResilienceWrapsGateway(t *testing.T) {
	f := newFixture(t)
	e := f.federated(t)
	if e.Resilient() != nil {
		t.Fatal("resilience on by default")
	}
	e.SetResilience(fault.DefaultPolicy(), f.mon.Resilience())
	if e.Resilient() == nil {
		t.Fatal("resilience not installed")
	}
	if pol := e.Options().Resilience; pol == nil || pol.MaxAttempts != 4 {
		t.Fatalf("effective policy not stored back: %+v", pol)
	}
	// The wrapped gateway still executes processes end to end.
	if err := e.Execute("P08", f.g.AppendHongkongOrder(nil, 0), 0); err != nil {
		t.Fatal(err)
	}
	if retries, trips := e.Resilient().Stats(); retries != 0 || trips != 0 {
		t.Errorf("fault-free run recorded %d retries, %d trips", retries, trips)
	}
}

func TestDeadLetterQueueCap(t *testing.T) {
	f := newFixture(t)
	e := f.federated(t)
	e.SetResilience(&fault.Policy{DLQLimit: 2}, nil)
	cause := errors.New("dispatch exhausted")
	msg := f.g.AppendHongkongOrder(nil, 0)
	for i := 0; i < 3; i++ {
		e.AddDeadLetter("P08", i, msg, cause)
	}
	letters, dropped := e.DeadLetters()
	if len(letters) != 2 || dropped != 1 {
		t.Fatalf("dlq = %d entries, %d dropped; want 2, 1", len(letters), dropped)
	}
	if e.DLQDepth() != 2 {
		t.Errorf("depth = %d", e.DLQDepth())
	}
	if letters[0].Process != "P08" || letters[0].Period != 0 || !errors.Is(letters[0].Err, cause) {
		t.Errorf("entry = %+v", letters[0])
	}
	// The triggering message is preserved as XML for replay/inspection.
	if letters[0].Message != string(msg) {
		t.Errorf("message not serialized: %q", letters[0].Message)
	}
	// A nil message (non-E1 failure) is tolerated.
	e2 := f.federated(t)
	e2.AddDeadLetter("P03", 0, nil, cause)
	if e2.DLQDepth() != 1 {
		t.Error("nil-message dead letter lost")
	}
}

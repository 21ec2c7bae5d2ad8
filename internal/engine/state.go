package engine

import (
	"fmt"

	rel "repro/internal/relational"
)

// DeadLetterState is the serializable form of one parked dead letter.
// The wrapped error is flattened to its message: recovery needs the
// audit trail, not a live error value.
type DeadLetterState struct {
	Process string
	Period  int
	Message string
	Cause   string
}

// State is the engine's checkpointable state: everything that must
// survive a crash beyond the external systems themselves. The internal
// queue database (federated engines), the E1 queue sequence and the
// dead-letter queue are all captured; plans, batchers and worker pools are pure caches
// rebuilt on demand.
type State struct {
	QueueSeq    int64
	DeadLetters []DeadLetterState
	DLQDropped  uint64
	Internal    []byte // relational snapshot of the queue tables
	// Shards carries the region shards' states in shard order (empty for
	// an unsharded engine). Each shard owns its own queue tables, so
	// recovery must restore them individually.
	Shards []*State
}

// CheckpointState captures the engine's durable state. Call it at a
// stream barrier: the capture is consistent only while no instance is in
// flight.
func (e *Engine) CheckpointState() (*State, error) {
	st := &State{QueueSeq: e.queueSeq.Load()}
	dlq, dropped := e.DeadLetters()
	st.DLQDropped = dropped
	for _, d := range dlq {
		cause := ""
		if d.Err != nil {
			cause = d.Err.Error()
		}
		st.DeadLetters = append(st.DeadLetters, DeadLetterState{
			Process: d.Process, Period: d.Period, Message: d.Message, Cause: cause,
		})
	}
	if e.opts.QueueTrigger {
		blob, err := e.internal.Snapshot()
		if err != nil {
			return nil, fmt.Errorf("engine: checkpoint internal db: %w", err)
		}
		st.Internal = blob
	}
	if e.shards != nil {
		for _, c := range e.shards.children {
			cs, err := c.CheckpointState()
			if err != nil {
				return nil, err
			}
			st.Shards = append(st.Shards, cs)
		}
	}
	return st, nil
}

// RecoveredError marks a dead letter restored from a checkpoint; the
// original error value did not survive serialization, its message did.
type RecoveredError struct{ Cause string }

// Error implements error.
func (e *RecoveredError) Error() string { return e.Cause }

// RestoreState replaces the engine's durable state with a checkpoint
// capture. Call before any Execute of the resumed run.
func (e *Engine) RestoreState(st *State) error {
	if st == nil {
		return fmt.Errorf("engine: nil state")
	}
	e.queueSeq.Store(st.QueueSeq)
	e.dlqMu.Lock()
	e.dlq = e.dlq[:0]
	for _, d := range st.DeadLetters {
		var cause error
		if d.Cause != "" {
			cause = &RecoveredError{Cause: d.Cause}
		}
		e.dlq = append(e.dlq, DeadLetter{Process: d.Process, Period: d.Period, Message: d.Message, Err: cause})
	}
	e.dlqDropped = st.DLQDropped
	e.dlqMu.Unlock()
	if len(st.Internal) > 0 {
		if !e.opts.QueueTrigger {
			return fmt.Errorf("engine: checkpoint has queue tables but engine %q has no queues", e.name)
		}
		if _, err := e.internal.Restore(st.Internal); err != nil {
			return fmt.Errorf("engine: restore internal db: %w", err)
		}
	}
	if len(st.Shards) > 0 || e.shards != nil {
		if e.shards == nil || len(st.Shards) != len(e.shards.children) {
			got := 0
			if e.shards != nil {
				got = len(e.shards.children)
			}
			return fmt.Errorf("engine: checkpoint carries %d shard states but engine %q runs %d shards",
				len(st.Shards), e.name, got)
		}
		for i, cs := range st.Shards {
			if err := e.shards.children[i].RestoreState(cs); err != nil {
				return fmt.Errorf("engine: shard %d: %w", i+1, err)
			}
		}
	}
	return nil
}

// Internal exposes the engine-internal queue database (read-only uses
// such as state digests).
func (e *Engine) Internal() *rel.Database { return e.internal }

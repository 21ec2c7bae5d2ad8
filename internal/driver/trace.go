package driver

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Trace records every dispatched process-initiating event of a run — the
// Client-side execution log that makes the schedule auditable (did events
// fire at their deadlines, in stream order, after their dependencies?).
type Trace struct {
	mu     sync.Mutex
	events []TraceEvent
}

// TraceEvent is one dispatched instance.
type TraceEvent struct {
	Period      int
	Process     string
	Seq         int
	ScheduledTU float64       // Table II deadline, tu from stream start
	Dispatched  time.Duration // actual dispatch offset from the stream epoch
	Completed   time.Duration // completion offset from the stream epoch
	Failed      bool
}

// NewTrace creates an empty trace.
func NewTrace() *Trace { return &Trace{} }

// add appends one event.
func (t *Trace) add(e TraceEvent) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.events = append(t.events, e)
}

// Events returns a snapshot sorted by period, then dispatch time.
func (t *Trace) Events() []TraceEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceEvent, len(t.events))
	copy(out, t.events)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Period != out[j].Period {
			return out[i].Period < out[j].Period
		}
		return out[i].Dispatched < out[j].Dispatched
	})
	return out
}

// Len returns the number of recorded events.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// ByProcess returns the events of one process type, in dispatch order.
func (t *Trace) ByProcess(id string) []TraceEvent {
	var out []TraceEvent
	for _, e := range t.Events() {
		if e.Process == id {
			out = append(out, e)
		}
	}
	return out
}

// WriteCSV emits the trace for offline inspection.
func (t *Trace) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "period,process,seq,scheduled_tu,dispatched_us,completed_us,failed"); err != nil {
		return err
	}
	for _, e := range t.Events() {
		failed := 0
		if e.Failed {
			failed = 1
		}
		if _, err := fmt.Fprintf(w, "%d,%s,%d,%.2f,%d,%d,%d\n",
			e.Period, e.Process, e.Seq, e.ScheduledTU,
			e.Dispatched.Microseconds(), e.Completed.Microseconds(), failed); err != nil {
			return err
		}
	}
	return nil
}

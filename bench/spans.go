package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one harness-side trace interval around a call into a layer.
// Spans of one unit share Run (1.. for the units in launch order,
// negative for a tenant's solo twin, 0 for the direct probes); Parent is
// the enclosing span's ID within the same run (0 at the root). Times are
// Unix nanoseconds, so the spans of the unit processes and of the
// measuring process line up in one file.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
}

// spanRecorder keeps spans in memory until flush; a nil recorder records
// nothing, which is how the untraced run stays span-free.
type spanRecorder struct {
	run   int
	mu    sync.Mutex
	spans []span
}

// add records a completed interval and returns its ID for use as a
// parent.
func (r *spanRecorder) add(name string, start, end time.Time, parent int) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Name: name, Parent: parent, Run: r.run,
		Start: start.UnixNano(), End: end.UnixNano(),
	})
	return id
}

// open reserves a span whose end is set later by close — for parents
// that must exist before their children are recorded.
func (r *spanRecorder) open(name string, start time.Time, parent int) int {
	return r.add(name, start, start, parent)
}

func (r *spanRecorder) close(id int, end time.Time) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	r.spans[id-1].End = end.UnixNano()
	r.mu.Unlock()
}

// flushSpans writes one JSON object per line.
func flushSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

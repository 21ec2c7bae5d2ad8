package engine

import (
	"context"
	"sync"
	"time"

	"repro/internal/mtm"
)

// Micro-batching: the execution style of ETL tools (the paper's §VII
// future work names ETL tools as a reference-implementation target
// alongside EAI servers). Incoming E1 messages of one process type are
// collected and processed as a batch — either when BatchSize messages have
// accumulated or when BatchTimeout expires — trading per-message latency
// for amortized per-batch overhead (one plan fetch, sequential cache-warm
// execution).

// batchRequest is one queued message awaiting its batch.
type batchRequest struct {
	input  []byte
	period int
	done   chan error
}

// batcher collects the requests of one process type.
type batcher struct {
	e       *Engine
	process *mtm.Process

	mu      sync.Mutex
	pending []batchRequest
	timer   *time.Timer
	closed  bool
}

// newBatcher creates a batcher for one process type.
func newBatcher(e *Engine, p *mtm.Process) *batcher {
	return &batcher{e: e, process: p}
}

// submit queues a message and blocks until its batch has been processed.
func (b *batcher) submit(input []byte, period int) error {
	done := make(chan error, 1)
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return errEngineClosed
	}
	b.pending = append(b.pending, batchRequest{input: input, period: period, done: done})
	full := len(b.pending) >= b.e.opts.BatchSize
	if full {
		batch := b.take()
		b.mu.Unlock()
		b.flush(batch)
	} else {
		if b.timer == nil {
			b.timer = time.AfterFunc(b.e.batchTimeout(), b.timedFlush)
		}
		b.mu.Unlock()
	}
	return <-done
}

// take detaches the pending batch; the caller holds mu.
func (b *batcher) take() []batchRequest {
	batch := b.pending
	b.pending = nil
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	return batch
}

// timedFlush fires when the batch timeout expires.
func (b *batcher) timedFlush() {
	b.mu.Lock()
	batch := b.take()
	b.mu.Unlock()
	b.flush(batch)
}

// flush processes a batch sequentially, recording each message as its own
// process instance (the metric stays per-instance; the batching shows up
// as reduced per-instance overhead and bursty completion times). Batches
// execute detached from any submitter's context — one message's caller
// must not cancel its batch-mates — so instances run under Background.
func (b *batcher) flush(batch []batchRequest) {
	for _, req := range batch {
		err := b.e.runInstanceRecorded(context.Background(), b.process, mtm.RawXMLMessage(req.input), req.period)
		req.done <- err
	}
}

// drain flushes any pending partial batch without closing the batcher —
// the period-boundary hook (ResetQueues) uses it so no message crosses
// into the next period's accounting.
func (b *batcher) drain() {
	b.mu.Lock()
	batch := b.take()
	b.mu.Unlock()
	b.flush(batch)
}

// close drains the batcher: queued messages are flushed, later submits
// fail.
func (b *batcher) close() {
	b.mu.Lock()
	b.closed = true
	batch := b.take()
	b.mu.Unlock()
	b.flush(batch)
}

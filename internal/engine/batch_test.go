package engine

import (
	"sync"
	"testing"
	"time"

	"repro/internal/monitor"
	"repro/internal/processes"
	rel "repro/internal/relational"
	"repro/internal/schema"
)

func TestNewETLOptions(t *testing.T) {
	f := newFixture(t)
	e, err := NewETL(processes.MustNew(), f.s.Gateway(), f.mon)
	if err != nil {
		t.Fatal(err)
	}
	o := e.Options()
	if !o.PlanCache || o.QueueTrigger || o.BatchSize != DefaultETLBatch {
		t.Errorf("ETL options: %+v", o)
	}
}

func TestBatchOptionValidation(t *testing.T) {
	f := newFixture(t)
	defs := processes.MustNew()
	if _, err := New("x", Options{BatchSize: -1}, defs, f.s.Gateway(), f.mon); err == nil {
		t.Error("negative batch size accepted")
	}
	if _, err := New("x", Options{BatchSize: 4, QueueTrigger: true}, defs, f.s.Gateway(), f.mon); err == nil {
		t.Error("batch + queue-trigger accepted")
	}
}

func TestBatchFlushOnSize(t *testing.T) {
	f := newFixture(t)
	e, err := New("b", Options{PlanCache: true, BatchSize: 4, BatchTimeout: time.Hour},
		processes.MustNew(), f.s.Gateway(), monitor.New(1))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// Exactly BatchSize messages flush without waiting for the (huge)
	// timeout.
	var wg sync.WaitGroup
	errs := make([]error, 4)
	start := time.Now()
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = e.Execute("P08", f.g.AppendHongkongOrder(nil, i), 0)
		}(i)
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("size-triggered flush too slow: %v", elapsed)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
	}
	count := 0
	cdb := f.s.DB(schema.SysCDB).MustTable("Orders").Scan()
	for i := 0; i < cdb.Len(); i++ {
		if cdb.Get(i, "SrcSystem").Str() == schema.SysHongkong {
			count++
		}
	}
	if count != 4 {
		t.Fatalf("batch processed %d/4 messages", count)
	}
}

func TestBatchFlushOnTimeout(t *testing.T) {
	f := newFixture(t)
	e, err := New("b", Options{PlanCache: true, BatchSize: 100, BatchTimeout: 5 * time.Millisecond},
		processes.MustNew(), f.s.Gateway(), monitor.New(1))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// A single message must not hang: the timeout flushes the partial
	// batch.
	done := make(chan error, 1)
	go func() { done <- e.Execute("P08", f.g.AppendHongkongOrder(nil, 0), 0) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("partial batch never flushed")
	}
}

func TestBatchCloseDrainsAndRejects(t *testing.T) {
	f := newFixture(t)
	e, err := New("b", Options{PlanCache: true, BatchSize: 100, BatchTimeout: time.Hour},
		processes.MustNew(), f.s.Gateway(), monitor.New(1))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- e.Execute("P08", f.g.AppendHongkongOrder(nil, 0), 0) }()
	time.Sleep(20 * time.Millisecond) // let the message enter the batch
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drained message failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("close did not drain the batch")
	}
	// Further submissions fail.
	if err := e.Execute("P08", f.g.AppendHongkongOrder(nil, 1), 0); err == nil {
		t.Fatal("submission after close accepted")
	}
	// Close is idempotent.
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestResetQueuesDrainsPartialBatch(t *testing.T) {
	f := newFixture(t)
	mon := monitor.New(1)
	e, err := New("b", Options{PlanCache: true, BatchSize: 100, BatchTimeout: time.Hour},
		processes.MustNew(), f.s.Gateway(), mon)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// A lone message of period 0 sits in a partial batch (the timeout is
	// far away); the period boundary must push it out.
	done := make(chan error, 1)
	go func() { done <- e.Execute("P08", f.g.AppendHongkongOrder(nil, 0), 0) }()
	time.Sleep(20 * time.Millisecond) // let the message enter the batch
	e.ResetQueues()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drained message failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("period boundary did not drain the partial batch")
	}
	recs := mon.Records()
	if len(recs) != 1 || recs[0].Period != 0 {
		t.Fatalf("record under wrong period: %+v", recs)
	}
	// The batcher stays usable for the next period.
	go func() { done <- e.Execute("P08", f.g.AppendHongkongOrder(nil, 1), 1) }()
	time.Sleep(20 * time.Millisecond)
	e.ResetQueues()
	if err := <-done; err != nil {
		t.Fatalf("submit after drain: %v", err)
	}
	recs = mon.Records()
	if len(recs) != 2 || recs[1].Period != 1 {
		t.Fatalf("second period record wrong: %+v", recs)
	}
}

func TestBatchingRecordsPerInstanceCosts(t *testing.T) {
	f := newFixture(t)
	mon := monitor.New(1)
	e, err := New("b", Options{PlanCache: true, BatchSize: 3, BatchTimeout: 5 * time.Millisecond},
		processes.MustNew(), f.s.Gateway(), mon)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_ = e.Execute("P08", f.g.AppendHongkongOrder(nil, i), 0)
		}(i)
	}
	wg.Wait()
	if len(mon.Records()) != 3 {
		t.Fatalf("records: %d, want one per message", len(mon.Records()))
	}
}

func TestETLEngineE2Unaffected(t *testing.T) {
	f := newFixture(t)
	e, err := NewETL(processes.MustNew(), f.s.Gateway(), f.mon)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Execute("P03", nil, 0); err != nil {
		t.Fatal(err)
	}
	if f.s.DB(schema.SysUSEastcoast).MustTable("Orders").Len() == 0 {
		t.Fatal("E2 execution broken on batching engine")
	}
	_ = rel.True() // keep the substrate import for future assertions
}

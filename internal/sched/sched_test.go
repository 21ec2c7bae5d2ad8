package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunExecutesEachTaskOnce pins the core contract: every task index in
// [0, tasks) runs exactly once, across a spread of shapes and with
// concurrent submitters sharing one scheduler.
func TestRunExecutesEachTaskOnce(t *testing.T) {
	s := New(4)
	h := s.Register("t", 1)
	for _, tc := range []struct{ par, tasks int }{
		{1, 1}, {1, 17}, {2, 2}, {4, 3}, {4, 64}, {8, 201}, {3, 1000},
	} {
		counts := make([]int32, tc.tasks)
		h.Run(tc.par, tc.tasks, func(i int) { atomic.AddInt32(&counts[i], 1) })
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("par=%d tasks=%d: task %d ran %d times", tc.par, tc.tasks, i, c)
			}
		}
	}

	// Concurrent submitters on separate handles.
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			hg := s.Register("", 1)
			for round := 0; round < 20; round++ {
				counts := make([]int32, 50)
				hg.Run(4, 50, func(i int) { atomic.AddInt32(&counts[i], 1) })
				for i, c := range counts {
					if c != 1 {
						t.Errorf("goroutine %d round %d: task %d ran %d times", g, round, i, c)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestRunInlineShortCircuit pins the satellite: par <= 1 or fewer than
// two tasks must run on the caller without touching the queues.
func TestRunInlineShortCircuit(t *testing.T) {
	s := New(4)
	h := s.Register("t", 1)
	caller := goid()
	for _, tc := range []struct{ par, tasks int }{{1, 8}, {0, 8}, {4, 1}, {8, 0}} {
		ran := 0
		h.Run(tc.par, tc.tasks, func(i int) {
			ran++
			if goid() != caller {
				t.Errorf("par=%d tasks=%d: task ran off the caller goroutine", tc.par, tc.tasks)
			}
		})
		if ran != tc.tasks {
			t.Fatalf("par=%d tasks=%d: ran %d", tc.par, tc.tasks, ran)
		}
	}
	st := h.Stats()
	if st.Submitted != 0 {
		t.Fatalf("inline runs were submitted to the pool: %+v", st)
	}
	if st.Inline != 3 { // the tasks=0 call returns before counting
		t.Fatalf("inline count = %d, want 3", st.Inline)
	}
	if got := s.Stats(); got.Dispatches != 0 || got.Spawned != 0 {
		t.Fatalf("inline runs reached the scheduler: %+v", got)
	}
}

// goid parses the current goroutine's id off runtime.Stack's
// "goroutine N [...]" header — enough to tell caller from pool worker.
func goid() uint64 {
	buf := make([]byte, 32)
	n := runtime.Stack(buf, false)
	// "goroutine 123 [...": parse the number.
	var id uint64
	for _, b := range buf[10:n] {
		if b < '0' || b > '9' {
			break
		}
		id = id*10 + uint64(b-'0')
	}
	return id
}

// TestRunPanicPropagates: a panicking task surfaces on the caller after
// the set fully settles, and no task starts after Run returns.
func TestRunPanicPropagates(t *testing.T) {
	s := New(4)
	h := s.Register("t", 1)
	var started atomic.Int32
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("panic did not propagate to the caller")
			} else if r != "boom" {
				t.Fatalf("unexpected panic value %v", r)
			}
		}()
		h.Run(4, 64, func(i int) {
			started.Add(1)
			if i == 13 {
				panic("boom")
			}
			time.Sleep(time.Millisecond)
		})
	}()
	settled := started.Load()
	time.Sleep(20 * time.Millisecond)
	if now := started.Load(); now != settled {
		t.Fatalf("tasks kept starting after Run returned: %d -> %d", settled, now)
	}
}

// TestWorkersExitWhenIdle is the goroutine-leak test: after a burst of
// parallel work, every pool worker must exit within its idle timeout.
func TestWorkersExitWhenIdle(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(8)
	h := s.Register("t", 1)
	for round := 0; round < 4; round++ {
		h.Run(8, 256, func(i int) {})
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st := s.Stats()
		if st.Workers == 0 && runtime.NumGoroutine() <= before+3 {
			return
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("workers did not exit: %+v, goroutines %d (was %d)", s.Stats(), runtime.NumGoroutine(), before)
}

// TestSetMaxWorkersResize: growing takes effect on the next submission,
// shrinking retires surplus workers, and values below 1 clamp.
func TestSetMaxWorkersResize(t *testing.T) {
	s := New(2)
	if got := s.MaxWorkers(); got != 2 {
		t.Fatalf("MaxWorkers = %d, want 2", got)
	}
	s.SetMaxWorkers(0)
	if got := s.MaxWorkers(); got != 1 {
		t.Fatalf("MaxWorkers after clamp = %d, want 1", got)
	}
	s.SetMaxWorkers(6)
	h := s.Register("t", 1)
	h.Run(8, 512, func(i int) { time.Sleep(50 * time.Microsecond) })
	if st := s.Stats(); st.Workers > 6 {
		t.Fatalf("live workers %d exceed bound 6", st.Workers)
	}
	s.SetMaxWorkers(1)
	h.Run(8, 128, func(i int) {})
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if st := s.Stats(); st.Workers <= 1 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("shrink did not retire workers: %+v", s.Stats())
}

// TestFairSharePick is the deterministic fairness property test: driving
// the governor pick directly (injected clock, no goroutines), a weight-3
// handle must receive ~3x the dispatches of a weight-1 handle, and a
// late-joining light handle must be served within bounded dispatches of
// arriving (priority aging + the stride join rule prevent starvation).
func TestFairSharePick(t *testing.T) {
	now := time.Unix(0, 0)
	s := New(1)
	s.now = func() time.Time { return now }
	heavy := s.Register("heavy", 3)
	light := s.Register("light", 1)

	// White-box queue manipulation under the lock — no enqueue/signal, so
	// no workers race the test for the tokens it counts.
	fill := func(h *Handle) {
		for len(h.queue) < 4 {
			h.queue = append(h.queue, &token{set: &taskSet{}, h: h})
		}
		if !h.ready {
			h.ready = true
			h.readyAt = now
			if h.pass < s.vtime {
				h.pass = s.vtime
			}
			s.ready = append(s.ready, h)
		}
	}
	counts := map[*Handle]int{}
	s.mu.Lock()
	for i := 0; i < 400; i++ {
		fill(heavy)
		fill(light)
		tok := s.dispatchLocked()
		counts[tok.h]++
	}
	ratio := float64(counts[heavy]) / float64(counts[light])
	if ratio < 2.5 || ratio > 3.5 {
		s.mu.Unlock()
		t.Fatalf("dispatch ratio heavy:light = %d:%d (%.2f), want ~3", counts[heavy], counts[light], ratio)
	}

	// Join rule: a handle that idled rejoins at the current virtual time,
	// so it is served promptly instead of monopolizing (stale low pass) or
	// starving (stale high pass).
	light.queue = nil
	light.ready = false
	for i, r := range s.ready {
		if r == light {
			s.ready = append(s.ready[:i], s.ready[i+1:]...)
			break
		}
	}
	for i := 0; i < 300; i++ {
		fill(heavy)
		s.dispatchLocked()
	}
	fill(light)
	waited := 0
	for {
		fill(heavy)
		tok := s.dispatchLocked()
		if tok.h == light {
			break
		}
		if waited++; waited > 8 {
			s.mu.Unlock()
			t.Fatalf("rejoining light handle waited %d dispatches, want prompt service via the join rule", waited)
		}
	}

	// Priority aging: even a handle whose stride position is artificially
	// far in the future (pass 5 strides ahead, join rule bypassed) must be
	// served within bounded dispatches because waiting accrues credit.
	light.queue = nil
	light.ready = false
	for i, r := range s.ready {
		if r == light {
			s.ready = append(s.ready[:i], s.ready[i+1:]...)
			break
		}
	}
	light.pass = heavy.pass + 5
	fill(light)
	light.readyAt = now
	waited = 0
	for {
		fill(heavy)
		tok := s.dispatchLocked()
		if tok.h == light {
			break
		}
		waited++
		now = now.Add(100 * time.Millisecond) // waiting accrues aging credit
		if waited > 300 {
			s.mu.Unlock()
			t.Fatalf("aged light handle starved for %d dispatches", waited)
		}
	}
	s.mu.Unlock()
	if waited > 60 {
		t.Fatalf("aged light handle waited %d dispatches, want bounded service via priority aging", waited)
	}
}

// TestGovernorAdmission: admission blocks at capacity, Release unblocks
// waiters, a closed stop channel aborts the wait, and over-capacity
// weights clamp rather than deadlock.
func TestGovernorAdmission(t *testing.T) {
	s := New(2)
	g := NewGovernor(s, 2)
	h1, err := g.Admit("a", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := g.Admit("b", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Used(); got != 2 {
		t.Fatalf("used = %v, want 2", got)
	}

	admitted := make(chan *Handle)
	go func() {
		h, err := g.Admit("c", 1, nil)
		if err != nil {
			t.Error(err)
		}
		admitted <- h
	}()
	select {
	case <-admitted:
		t.Fatal("admission succeeded beyond capacity")
	case <-time.After(50 * time.Millisecond):
	}
	g.Release(h1)
	var h3 *Handle
	select {
	case h3 = <-admitted:
	case <-time.After(2 * time.Second):
		t.Fatal("release did not unblock the waiter")
	}

	// Stop aborts a blocked admission.
	stop := make(chan struct{})
	errs := make(chan error)
	go func() {
		_, err := g.Admit("d", 1, stop)
		errs <- err
	}()
	select {
	case err := <-errs:
		t.Fatalf("admission returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(stop)
	select {
	case err := <-errs:
		if err != ErrStopped {
			t.Fatalf("aborted admission returned %v, want ErrStopped", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("stop did not abort the blocked admission")
	}
	g.Release(h2)
	g.Release(h3)

	// A request heavier than the whole governor clamps to capacity.
	big, err := g.Admit("big", 99, nil)
	if err != nil {
		t.Fatal(err)
	}
	if w := big.Weight(); w != 2 {
		t.Fatalf("over-capacity weight = %v, want clamp to 2", w)
	}
	g.Release(big)
	if got := g.Used(); got != 0 {
		t.Fatalf("used after releases = %v, want 0", got)
	}
}

// TestStealAccounting: with a single submission fanned wide, idle workers
// must steal replicated tokens off the dispatching worker's deque.
func TestStealAccounting(t *testing.T) {
	s := New(4)
	h := s.Register("t", 1)
	var mu sync.Mutex
	seen := map[uint64]bool{}
	for round := 0; round < 50; round++ {
		h.Run(4, 64, func(i int) {
			id := goid()
			mu.Lock()
			seen[id] = true
			mu.Unlock()
			time.Sleep(20 * time.Microsecond)
		})
	}
	st := s.Stats()
	if st.Dispatches == 0 {
		t.Fatalf("no injector dispatches recorded: %+v", st)
	}
	hs := h.Stats()
	if hs.CallerTasks+hs.WorkerTasks != 50*64 {
		t.Fatalf("task accounting: caller %d + worker %d != %d", hs.CallerTasks, hs.WorkerTasks, 50*64)
	}
	// Steals are load-dependent; just require the counter to be coherent
	// when present and the work to have spread beyond one goroutine on a
	// multi-proc host.
	if runtime.GOMAXPROCS(0) > 1 {
		mu.Lock()
		spread := len(seen)
		mu.Unlock()
		if spread < 2 {
			t.Fatalf("work never left the caller goroutine (seen %d)", spread)
		}
	}
}

// TestClosedHandleRunsInline: after Close, submissions still execute
// correctly — inline on the caller.
func TestClosedHandleRunsInline(t *testing.T) {
	s := New(4)
	h := s.Register("t", 1)
	h.Close()
	h.Close() // idempotent
	counts := make([]int32, 32)
	h.Run(4, 32, func(i int) { atomic.AddInt32(&counts[i], 1) })
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("task %d ran %d times after Close", i, c)
		}
	}
}

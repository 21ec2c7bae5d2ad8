package sched

import (
	"errors"
	"sync"
)

// ErrStopped is returned by Admit when the stop channel closes before
// capacity frees up.
var ErrStopped = errors.New("sched: governor stopped")

// Governor admits clients onto a scheduler by fair-share capacity: the
// sum of admitted weights never exceeds Capacity, which is set once at
// construction. It replaces the fixed goroutine-per-slot worker model —
// admission is a weight reservation, not a goroutine — so a host can
// bound CONCURRENT WORK (the shared pool runs at most MaxWorkers
// goroutines regardless of tenant count) while still letting heavier
// tenants reserve a larger share.
type Governor struct {
	s    *Scheduler
	cap  float64 // immutable after NewGovernor, so read without mu
	mu   sync.Mutex
	cond *sync.Cond
	used float64
}

// NewGovernor creates a governor over s with the given weight capacity
// (clamped to >= 1).
func NewGovernor(s *Scheduler, capacity float64) *Governor {
	if capacity < 1 {
		capacity = 1
	}
	g := &Governor{s: s, cap: capacity}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// Scheduler returns the scheduler this governor admits onto.
func (g *Governor) Scheduler() *Scheduler { return g.s }

// Capacity returns the total admissible weight.
func (g *Governor) Capacity() float64 { return g.cap }

// Used returns the weight currently admitted.
func (g *Governor) Used() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.used
}

// Admit blocks until weight fits under the capacity, then registers and
// returns a scheduler handle carrying that weight. Weights are clamped
// to [0, Capacity] (a request heavier than the whole governor must still
// be admissible — it simply gets everything). A closed stop channel
// aborts the wait with ErrStopped. Release the handle when the client is
// done.
func (g *Governor) Admit(name string, weight float64, stop <-chan struct{}) (*Handle, error) {
	if weight <= 0 {
		weight = 1
	}
	if weight > g.cap {
		weight = g.cap
	}
	g.mu.Lock()
	// A stop-watcher converts the channel close into a broadcast so the
	// cond wait below wakes; it exits as soon as Admit returns.
	done := make(chan struct{})
	defer close(done)
	if stop != nil {
		go func() {
			select {
			case <-stop:
				// Take the lock before broadcasting so the waiter is
				// either before its stopped() re-check (sees the closed
				// channel) or inside Wait (receives the broadcast) —
				// never in the unlocked gap where a wakeup would be lost.
				g.mu.Lock()
				g.mu.Unlock()
				g.cond.Broadcast()
			case <-done:
			}
		}()
	}
	for g.used+weight > g.cap {
		if stopped(stop) {
			g.mu.Unlock()
			return nil, ErrStopped
		}
		g.cond.Wait()
	}
	if stopped(stop) {
		g.mu.Unlock()
		return nil, ErrStopped
	}
	g.used += weight
	g.mu.Unlock()
	return g.s.Register(name, weight), nil
}

// Release returns the handle's weight to the governor and closes the
// handle. Admitted waiters are re-checked.
func (g *Governor) Release(h *Handle) {
	if h == nil {
		return
	}
	h.Close()
	g.mu.Lock()
	g.used -= h.Weight()
	if g.used < 0 {
		g.used = 0
	}
	g.mu.Unlock()
	g.cond.Broadcast()
}

func stopped(stop <-chan struct{}) bool {
	if stop == nil {
		return false
	}
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

package fault

import "sync/atomic"

// DaemonKill is the deterministic daemon-kill plan for hard-kill
// restart chaos: the daemon dies hard — no drain, nothing beyond what
// the durability tiers already made durable — after the Nth completed
// tenant period it observes, reproducing kill -9 at a reproducible
// point. cmd/dipbenchd arms it with -kill-after and exits 137 when it
// fires; CI asserts that a restart on the same data dir resumes the
// tenants with their solo digests.
type DaemonKill struct {
	after int64
	seen  atomic.Int64
	fired atomic.Bool
}

// NewDaemonKill plans a kill after the given number of completed tenant
// periods (across all tenants, in observation order). Non-positive
// returns nil: no kill.
func NewDaemonKill(afterPeriods int) *DaemonKill {
	if afterPeriods <= 0 {
		return nil
	}
	return &DaemonKill{after: int64(afterPeriods)}
}

// OnPeriod records one completed tenant period and reports true exactly
// once — on the observation that reaches the planned count. Nil-safe.
func (k *DaemonKill) OnPeriod() bool {
	if k == nil {
		return false
	}
	if k.seen.Add(1) == k.after {
		return k.fired.CompareAndSwap(false, true)
	}
	return false
}

// Fired reports whether the kill point has been reached.
func (k *DaemonKill) Fired() bool { return k != nil && k.fired.Load() }

package serve

// Metrics is the live snapshot the daemon's /metrics endpoint serves and
// `dipmon -live` renders. The types are JSON-stable: both sides of the
// wire import this package.
type Metrics struct {
	// Draining is true once the daemon stopped admitting runs (SIGTERM).
	Draining bool `json:"draining"`
	// Shed counts submissions rejected with 429 since daemon start.
	Shed uint64 `json:"shed"`
	// Queued and Running count tenants by lifecycle stage.
	Queued  int `json:"queued"`
	Running int `json:"running"`
	// Tenants lists every known tenant in admission order.
	Tenants []TenantMetrics `json:"tenants"`
	// Sched snapshots the shared work-stealing scheduler all running
	// tenants compete on.
	Sched SchedMetrics `json:"sched"`
}

// SchedMetrics is the pool-level view of the shared scheduler plus its
// governor's admission ledger.
type SchedMetrics struct {
	MaxWorkers int     `json:"max_workers"`
	Workers    int     `json:"workers"`
	QueueDepth int     `json:"queue_depth"`
	Dispatches uint64  `json:"dispatches"`
	Steals     uint64  `json:"steals"`
	Capacity   float64 `json:"capacity"` // governor weight capacity
	Used       float64 `json:"used"`     // weight currently admitted
}

// TenantMetrics is one tenant's live progress.
type TenantMetrics struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Resumed is true when this run continued from a checkpoint (daemon
	// restart after a drain or crash).
	Resumed bool `json:"resumed,omitempty"`
	// Periods is the configured run length; PeriodsDone the completed
	// count so far.
	Periods     int `json:"periods"`
	PeriodsDone int `json:"periods_done"`
	Events      int `json:"events"`
	Failures    int `json:"failures"`
	// Resilience counters (zero when the tenant runs fault-free).
	Retries     uint64 `json:"retries,omitempty"`
	Trips       uint64 `json:"trips,omitempty"`
	DeadLetters uint64 `json:"dead_letters,omitempty"`
	// Breakers maps endpoint -> breaker state ("closed", "open",
	// "half-open") for every endpoint that has seen traffic.
	Breakers map[string]string `json:"breakers,omitempty"`
	// Share is the tenant's fair-share weight; SchedTasks counts the
	// morsels its run has executed on the shared scheduler, and
	// ShareUtilization is its observed task fraction divided by its fair
	// fraction across the currently running tenants (1.0 = exactly its
	// share; only set while running).
	Share            float64 `json:"share,omitempty"`
	SchedTasks       uint64  `json:"sched_tasks,omitempty"`
	SchedStolen      uint64  `json:"sched_stolen,omitempty"`
	ShareUtilization float64 `json:"share_utilization,omitempty"`
	// Digest is the final state digest (terminal states only).
	Digest string `json:"digest,omitempty"`
	Error  string `json:"error,omitempty"`
}

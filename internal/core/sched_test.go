package core

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/driver"
	"repro/internal/engine"
	rel "repro/internal/relational"
	"repro/internal/sched"
	"repro/internal/schema"
)

// The shared work-stealing scheduler must be invisible in the data:
// whether a run's morsels execute on the process-wide default pool or on
// a private scheduler of its own (the pre-scheduler per-engine pool
// model), the integrated state must stay byte-identical. These twin
// tests pin that across the optimization toggles and both transports.

// schedTwinVariant is one cell of the toggle matrix the bit-identity
// contract is pinned on: vectorized kernels, and region sharding (where
// shard children inherit the parent handle).
// Every cell keeps the vectorized kernels on: only they and union-distinct
// submit work to the scheduler, because the row kernels are sequential.
type schedTwinVariant struct {
	name     string
	columnar string
	shards   int
}

var schedTwinVariants = []schedTwinVariant{
	{"columnar", "on", 0},
	{"sharded", "on", 2},
}

func schedTwinConfig(v schedTwinVariant, remote bool) Config {
	return Config{
		Datasize: 0.004, Periods: 2, Seed: 42, FastClock: true,
		Engine: EnginePipeline, RemoteDB: remote,
		// Force a real parallel degree: the single-core test machines
		// would otherwise leave the presets sequential and the twin
		// comparison vacuous.
		EngineOptions: &engine.Options{PlanCache: true, Parallelism: 4},
		Columnar:      v.columnar, Shards: v.shards,
	}
}

// schedTwinState runs the benchmark, then inflates the warehouse fact
// table past several morsels and refreshes OrdersMV — the test datasize
// alone stays under one morsel (4096 rows), so without the inflation the
// kernels would take the sequential fallback and never exercise the
// run's scheduler handle. Returns the full integrated state plus the
// refreshed MV contents.
func schedTwinState(t *testing.T, cfg Config) string {
	t.Helper()
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err := b.Run(); err != nil {
		t.Fatal(err)
	}
	dwh := b.Scenario().DB(schema.SysDWH)
	orders := dwh.MustTable("Orders")
	base := orders.Scan()
	if base.Len() == 0 {
		t.Fatal("warehouse has no facts to aggregate")
	}
	// Canonicalize the physical row order first: the remote transport
	// leaves it nondeterministic (the digest machinery sorts before
	// comparing), and the refresh below sums floats in physical order.
	rows := make([]rel.Row, base.Len())
	maxKey := int64(0)
	for i := 0; i < base.Len(); i++ {
		rows[i] = append(rel.Row(nil), base.Row(i)...)
		if k := rows[i][0].Int(); k > maxKey {
			maxKey = k
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i][0].Int() < rows[j][0].Int() })
	orders.Truncate()
	for _, row := range rows {
		if err := orders.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	const wantRows = 2*4096 + 123
	for orders.Len() < wantRows {
		for i := 0; i < len(rows) && orders.Len() < wantRows; i++ {
			maxKey++
			row := append(rel.Row(nil), rows[i]...)
			row[0] = rel.NewInt(maxKey)
			if err := orders.Insert(row); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := dwh.Call("sp_refreshOrdersMV"); err != nil {
		t.Fatalf("refresh: %v", err)
	}
	return driver.SnapshotIntegrated(b.Scenario()) + mvState(dwh)
}

// runSchedTwin compares one variant's state under the shared default
// scheduler against the identical run on a private scheduler instance —
// the morsel-order merge contract means the two must agree byte for
// byte, float sums included — and asserts the private handle actually
// executed partitioned work.
func runSchedTwin(t *testing.T, v schedTwinVariant, remote bool) {
	t.Helper()
	shared := schedTwinState(t, schedTwinConfig(v, remote))

	priv := sched.New(4)
	h := priv.Register("twin-"+v.name, 2)
	defer h.Close()
	cfg := schedTwinConfig(v, remote)
	cfg.Scheduler = h
	private := schedTwinState(t, cfg)

	if shared != private {
		t.Errorf("%s: shared-scheduler state diverges from private-scheduler state", v.name)
	}
	if hs := h.Stats(); hs.Submitted == 0 {
		t.Errorf("%s: private handle saw no parallel work — twin comparison is vacuous (stats %+v)", v.name, hs)
	}
}

func TestSchedulerBitIdentity(t *testing.T) {
	for _, v := range schedTwinVariants {
		t.Run(v.name, func(t *testing.T) { runSchedTwin(t, v, false) })
	}
}

// TestSchedulerBitIdentityRemote repeats the comparison across the
// remote transport so scheduler-dependent differences would surface in
// the serialized wire state too.
func TestSchedulerBitIdentityRemote(t *testing.T) {
	if testing.Short() {
		t.Skip("remote transport in -short mode")
	}
	for _, v := range schedTwinVariants {
		t.Run(v.name, func(t *testing.T) { runSchedTwin(t, v, true) })
	}
}

// TestSchedShareRegistersOwnedHandle pins the Config.SchedShare path: the
// run registers its own weighted handle on the default scheduler, the
// report carries the scheduler section, and Close releases the handle.
func TestSchedShareRegistersOwnedHandle(t *testing.T) {
	cfg := schedTwinConfig(schedTwinVariants[0], false)
	cfg.SchedShare = 3
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	h := b.Scheduler()
	if h == nil {
		t.Fatal("SchedShare did not register a handle")
	}
	if got := h.Weight(); got != 3 {
		t.Fatalf("handle weight = %g, want 3", got)
	}
	res, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Report == nil || res.Report.Sched == nil {
		t.Fatal("report is missing the scheduler section")
	}
	if s := res.Report.Sched; s.Weight != 3 || s.MaxWorkers < 1 {
		t.Errorf("scheduler section wrong: %+v", s)
	}
}

// TestSchedulerCancellationNoLeak cancels running benchmarks mid-flight
// and asserts the shared pool's workers all park and exit: scheduler
// goroutines are per-pool, idle out after the park timeout, and must not
// accumulate across cancelled runs.
func TestSchedulerCancellationNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		cfg := schedTwinConfig(schedTwinVariants[1], false)
		cfg.Periods = 20
		cfg.SchedShare = 1
		b, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(50 * time.Millisecond)
			cancel()
		}()
		_, err = b.RunContext(ctx)
		cancel()
		if err != nil && !errors.Is(err, context.Canceled) {
			b.Close()
			t.Fatalf("run %d: %v", i, err)
		}
		b.Close()
	}
	// Workers park for 200ms before exiting; give the pool a few cycles.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+3 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: before=%d now=%d\n%.4000s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

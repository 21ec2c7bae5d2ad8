package core

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/driver"
	"repro/internal/fault"
)

// Region sharding must be invisible in the data: every run with
// `-shards N` must leave the warehouse, the OrdersMV views and all three
// data marts byte-identical to the unsharded run of the same
// configuration. These tests pin that end to end — across shard counts,
// across the remote transport, and composed with fault injection and
// columnar execution.

// TestShardedMatchesUnsharded is the tentpole acceptance criterion: the
// final integrated snapshot must be identical for -shards 0 (legacy
// single-engine path), 1, 2 and 3.
func TestShardedMatchesUnsharded(t *testing.T) {
	base := Config{
		Datasize: 0.004, Periods: 2, Seed: 11, FastClock: true,
		Engine: EnginePipeline, MVCheckEvery: 1,
	}
	var want string
	for _, n := range []int{0, 1, 2, 3} {
		cfg := base
		cfg.Shards = n
		snap, _ := runSnapshot(t, cfg)
		if n == 0 {
			want = snap
			continue
		}
		if snap != want {
			t.Errorf("-shards %d run diverges from the unsharded run", n)
		}
	}
}

// TestShardedMatchesUnshardedFederated repeats the identity on the
// federated reference engine, whose children inherit the queue-trigger
// execution path.
func TestShardedMatchesUnshardedFederated(t *testing.T) {
	base := Config{
		Datasize: 0.004, Periods: 2, Seed: 11, FastClock: true,
		Engine: EngineFederated,
	}
	sharded := base
	sharded.Shards = 3
	s0, _ := runSnapshot(t, base)
	s3, _ := runSnapshot(t, sharded)
	if s0 != s3 {
		t.Error("federated -shards 3 run diverges from the unsharded run")
	}
}

// TestShardedMatchesUnshardedRemote repeats the comparison across the
// remote transport: every shard's extractions and the coordinator's
// merged folds travel through the wire protocol.
func TestShardedMatchesUnshardedRemote(t *testing.T) {
	if testing.Short() {
		t.Skip("remote transport in -short mode")
	}
	cfg := Config{
		Datasize: 0.004, Periods: 2, Seed: 11, FastClock: true,
		Engine: EnginePipeline, RemoteDB: true, MVCheckEvery: 1,
		Shards: 3, ShardVerify: true,
	}
	_, res := runSnapshot(t, cfg)
	if res.Shard == nil || !res.Shard.OK() {
		t.Fatalf("shard twin failed over the remote transport:\n%v", res.Shard)
	}
}

// TestShardedComposesWithFaultsColumnar proves the toggles stack: a
// faulty 3-shard run on columnar kernels must pass both built-in twin
// verifications — the fault-free twin (which inherits Shards 3) and the
// unsharded twin. Twins start no twins of their own, so the run builds
// exactly three benchmarks.
func TestShardedComposesWithFaultsColumnar(t *testing.T) {
	cfg := Config{
		Datasize: 0.004, Periods: 2, Seed: 11, FastClock: true,
		Engine: EnginePipeline, Columnar: "on",
		Shards: 3, FaultRate: 0.05,
		ChaosVerify: true, ShardVerify: true,
	}
	before := built.Load()
	_, res := runSnapshot(t, cfg)
	if n := built.Load() - before; n != 3 {
		t.Errorf("run built %d benchmarks, want 3 (the run and one twin per verification)", n)
	}
	if res.Chaos == nil || !res.Chaos.OK() {
		t.Fatalf("chaos twin failed under sharding:\n%v", res.Chaos)
	}
	if res.Shard == nil || !res.Shard.OK() {
		t.Fatalf("unsharded twin failed:\n%v", res.Shard)
	}
}

// TestShardVerifyRequiresShards pins the configuration guard: an
// unsharded run has no shard twin to verify against.
func TestShardVerifyRequiresShards(t *testing.T) {
	if _, err := New(Config{
		Datasize: 0.004, Periods: 1, FastClock: true, ShardVerify: true,
	}); err == nil {
		t.Error("ShardVerify without Shards accepted")
	}
	if _, err := New(Config{
		Datasize: 0.004, Periods: 1, FastClock: true, Shards: -1,
	}); err == nil {
		t.Error("negative Shards accepted")
	}
	if _, err := New(Config{
		Datasize: 0.004, Periods: 1, FastClock: true, Shards: 4,
	}); err == nil {
		t.Error("Shards above the region count accepted")
	}
}

// TestShardCheckpointResume pins the recovery contract for sharded runs:
// a crashed 2-shard run resumes from its own checkpoint and converges to
// the clean 2-shard digest, while resuming the same snapshot under any
// other shard count fails loudly at construction — a shard state belongs
// to exactly the topology that wrote it.
func TestShardCheckpointResume(t *testing.T) {
	cfg := Config{
		Datasize: 0.02, Periods: 2, Seed: 42,
		Engine: EnginePipeline, FastClock: true,
		WALDir: filepath.Join(t.TempDir(), "ckpt"),
		Shards: 2,
	}
	want := cleanDigest(t, cfg)
	crash := cfg
	crash.CrashAt = "1:B:5"
	b, err := New(crash)
	if err != nil {
		t.Fatal(err)
	}
	_, runErr := b.Run()
	_ = b.Close()
	if !errors.Is(runErr, fault.ErrCrash) {
		t.Fatalf("crash run: %v", runErr)
	}
	for _, n := range []int{0, 1, 3} {
		bad := cfg
		bad.Resume = true
		bad.Shards = n
		_, err := New(bad)
		if err == nil {
			t.Fatalf("2-shard checkpoint resumed with -shards %d", n)
		}
		if !strings.Contains(err.Error(), "shard count mismatch") {
			t.Fatalf("-shards %d resume error does not name the shard mismatch: %v", n, err)
		}
	}
	resume := cfg
	resume.Resume = true
	rb, err := New(resume)
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()
	if _, err := rb.Run(); err != nil {
		t.Fatal(err)
	}
	if got := rb.StateDigest(); got != want {
		t.Fatalf("sharded recovery diverged:\n  recovered %s\n  clean     %s", got, want)
	}
}

// TestShardStatsReported asserts the observability wiring: a sharded run
// reports per-shard instance counts in the monitor report and per-shard
// event attribution in the period stats.
func TestShardStatsReported(t *testing.T) {
	var byShard map[int]int
	b, err := New(Config{
		Datasize: 0.004, Periods: 1, Seed: 11, FastClock: true,
		Engine: EnginePipeline, Shards: 2,
		OnPeriod: func(k int, s driver.PeriodStats) { byShard = s.EventsByShard },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	res, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Report.Shards) < 2 {
		t.Fatalf("report carries %d shard stats entries, want >= 2:\n%v", len(res.Report.Shards), res.Report)
	}
	total := 0
	for _, s := range res.Report.Shards {
		total += s.Instances
	}
	if total == 0 {
		t.Fatal("shard stats carry no instances")
	}
	if !strings.Contains(res.Report.String(), "Shards:") {
		t.Error("report text omits the shard breakdown")
	}
	if len(byShard) < 2 {
		t.Fatalf("period stats attribute events to %d shards, want >= 2: %v", len(byShard), byShard)
	}
}

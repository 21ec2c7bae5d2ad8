package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/fault"
	"repro/internal/wal"
)

// recoveryConfig is the shared crash-recovery test configuration: three
// periods at d=0.02 give streams of 5 (A), 69 (B), 2 (C) and 2 (D)
// events per period — every crash point below is reachable.
func recoveryConfig(dir, eng string) Config {
	return Config{
		Datasize: 0.02, Periods: 3, Seed: 42,
		Engine: eng, FastClock: true, WALDir: dir,
	}
}

// cleanDigest runs the configuration without interruption and returns
// the final state digest.
func cleanDigest(t *testing.T, cfg Config) string {
	t.Helper()
	cfg.WALDir = ""
	cfg.Resume = false
	cfg.CrashAt = ""
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err := b.Run(); err != nil {
		t.Fatal(err)
	}
	return b.StateDigest()
}

// crashAndRecover crashes a run at the given point, resumes it from the
// checkpoint directory and returns the recovered run's state digest.
func crashAndRecover(t *testing.T, cfg Config, at string) string {
	t.Helper()
	crash := cfg
	crash.CrashAt = at
	b, err := New(crash)
	if err != nil {
		t.Fatal(err)
	}
	_, runErr := b.Run()
	_ = b.Close()
	if !errors.Is(runErr, fault.ErrCrash) {
		t.Fatalf("crash run at %s: %v", at, runErr)
	}
	resume := cfg
	resume.Resume = true
	rb, err := New(resume)
	if err != nil {
		t.Fatalf("resume after %s: %v", at, err)
	}
	defer rb.Close()
	if _, err := rb.Run(); err != nil {
		t.Fatalf("resumed run after %s: %v", at, err)
	}
	ok, _, _ := rb.Monitor().Recovery().Recovered()
	if !ok {
		t.Fatalf("resumed run after %s did not report a recovery", at)
	}
	return rb.StateDigest()
}

// TestCrashRecoveryByteIdentity pins the headline claim: for any
// injected crash point, crash + recover produces a final warehouse,
// mart and ledger state identical to the uninterrupted run.
func TestCrashRecoveryByteIdentity(t *testing.T) {
	points := []string{
		"0:A:2", // mid stream A of the first period
		"1:A:3", // mid stream A, second period (CI point)
		"1:B:5", // mid the bulk stream
		"1:C:0", // at the C barrier: between streams C and D (CI point)
		"2:C:1", // during the MV fold of the last period (CI point)
		"2:D:1", // mid the final stream
		"1:D:0", // at the period-end barrier
	}
	cfg := recoveryConfig("", EnginePipeline)
	want := cleanDigest(t, cfg)
	for _, at := range points {
		at := at
		t.Run(at, func(t *testing.T) {
			c := cfg
			c.WALDir = filepath.Join(t.TempDir(), "ckpt")
			got := crashAndRecover(t, c, at)
			if got != want {
				t.Fatalf("state digest after crash at %s diverged:\n  recovered %s\n  clean     %s", at, got, want)
			}
		})
	}
}

// TestCrashRecoveryFederatedSparseCheckpoints exercises the federated
// engine (internal queue tables in the snapshot) with snapshots only at
// every 2nd period end — the crash then rolls back past a whole period,
// which recovery re-executes deterministically.
func TestCrashRecoveryFederatedSparseCheckpoints(t *testing.T) {
	cfg := recoveryConfig("", EngineFederated)
	cfg.CheckpointEvery = 2
	want := cleanDigest(t, cfg)
	c := cfg
	c.WALDir = filepath.Join(t.TempDir(), "ckpt")
	if got := crashAndRecover(t, c, "2:B:10"); got != want {
		t.Fatalf("sparse-checkpoint recovery diverged:\n  recovered %s\n  clean     %s", got, want)
	}
}

// TestSparseCheckpointDedupAccounting: crashing after a flushed
// non-checkpoint barrier leaves pre-crash acknowledgements in the WAL
// suffix; the resumed run re-executes those events and must report every
// one as a dedup hit — the exactly-once audit trail.
func TestSparseCheckpointDedupAccounting(t *testing.T) {
	cfg := recoveryConfig("", EngineFederated)
	cfg.CheckpointEvery = 2
	want := cleanDigest(t, cfg)
	cfg.WALDir = filepath.Join(t.TempDir(), "ckpt")
	// Crash in stream C of period 2: the A/B barrier of period 2 flushed
	// that period's 74 dispatch acks (streams A=5, B=69 at d=0.02), while
	// the latest snapshot is the period-1 end — all 74 re-execute as hits.
	crash := cfg
	crash.CrashAt = "2:C:1"
	b, err := New(crash)
	if err != nil {
		t.Fatal(err)
	}
	_, runErr := b.Run()
	_ = b.Close()
	if !errors.Is(runErr, fault.ErrCrash) {
		t.Fatal(runErr)
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
		t.Fatalf("dedup-path recovery diverged:\n  recovered %s\n  clean     %s", got, want)
	}
	replayed, dedup, _ := rb.Monitor().Recovery().Totals()
	if dedup != 74 {
		t.Fatalf("dedup hits: %d, want 74 (replayed %d records)", dedup, replayed)
	}
}

// TestCrashDuringRecoveryRun: a second crash during the resumed run is
// itself recoverable.
func TestCrashRecoveryDoubleCrash(t *testing.T) {
	cfg := recoveryConfig("", EnginePipeline)
	want := cleanDigest(t, cfg)
	cfg.WALDir = filepath.Join(t.TempDir(), "ckpt")

	crash1 := cfg
	crash1.CrashAt = "0:B:7"
	b1, err := New(crash1)
	if err != nil {
		t.Fatal(err)
	}
	_, err1 := b1.Run()
	_ = b1.Close()
	if !errors.Is(err1, fault.ErrCrash) {
		t.Fatalf("first crash: %v", err1)
	}

	crash2 := cfg
	crash2.Resume = true
	crash2.CrashAt = "2:C:1"
	b2, err := New(crash2)
	if err != nil {
		t.Fatal(err)
	}
	_, err2 := b2.Run()
	_ = b2.Close()
	if !errors.Is(err2, fault.ErrCrash) {
		t.Fatalf("second crash: %v", err2)
	}

	final := cfg
	final.Resume = true
	b3, err := New(final)
	if err != nil {
		t.Fatal(err)
	}
	defer b3.Close()
	if _, err := b3.Run(); err != nil {
		t.Fatal(err)
	}
	if got := b3.StateDigest(); got != want {
		t.Fatalf("double-crash recovery diverged:\n  recovered %s\n  clean     %s", got, want)
	}
}

// TestResumeRejectsConfigMismatch: resuming under a different seed must
// fail loudly instead of replaying into a state that can never match.
func TestResumeRejectsConfigMismatch(t *testing.T) {
	cfg := recoveryConfig(filepath.Join(t.TempDir(), "ckpt"), EnginePipeline)
	cfg.CrashAt = "1:B:5"
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, runErr := b.Run()
	_ = b.Close()
	if !errors.Is(runErr, fault.ErrCrash) {
		t.Fatal(runErr)
	}
	bad := cfg
	bad.CrashAt = ""
	bad.Resume = true
	bad.Seed = 43
	if _, err := New(bad); err == nil {
		t.Fatal("seed mismatch accepted on resume")
	}
}

// TestResumeWithoutCheckpointFails: -resume with an empty directory has
// nothing to restore.
func TestResumeWithoutCheckpointFails(t *testing.T) {
	cfg := recoveryConfig(filepath.Join(t.TempDir(), "empty"), EnginePipeline)
	cfg.Resume = true
	if _, err := New(cfg); err == nil {
		t.Fatal("resume without a manifest accepted")
	}
	noDir := cfg
	noDir.WALDir = ""
	if _, err := New(noDir); err == nil {
		t.Fatal("Resume without WALDir accepted")
	}
}

// TestWALRecordsRun: a WAL-on run leaves a readable log covering every
// period and stream plus committed barriers.
func TestWALRecordsRun(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	cfg := recoveryConfig(dir, EnginePipeline)
	cfg.Periods = 2
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Run(); err != nil {
		t.Fatal(err)
	}
	_ = b.Close()
	recs, _, torn, err := wal.ReadAll(filepath.Join(dir, "wal.log"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if torn {
		t.Fatal("cleanly closed WAL reads torn")
	}
	counts := map[wal.Type]int{}
	for _, r := range recs {
		counts[r.Type]++
	}
	if counts[wal.TypePeriodBegin] != 2 {
		t.Fatalf("period-begin records: %d", counts[wal.TypePeriodBegin])
	}
	if counts[wal.TypeStreamBegin] != 8 || counts[wal.TypeStreamEnd] != 8 {
		t.Fatalf("stream records: %d begins, %d ends", counts[wal.TypeStreamBegin], counts[wal.TypeStreamEnd])
	}
	if counts[wal.TypeBarrier] != 8 {
		t.Fatalf("barrier records: %d", counts[wal.TypeBarrier])
	}
	if counts[wal.TypeDispatch] == 0 || counts[wal.TypeDispatch] != counts[wal.TypeAck] {
		t.Fatalf("dispatch/ack records: %d/%d", counts[wal.TypeDispatch], counts[wal.TypeAck])
	}
	_, _, checkpoints := b.Monitor().Recovery().Totals()
	if checkpoints != 8 {
		t.Fatalf("checkpoints committed: %d", checkpoints)
	}
}

// benchmarkPeriods measures whole runs (streams A-D over several
// periods) with the durability layer off, logging only, or fully
// checkpointing; the ratios bound the overhead headlines
// (results/perf_pr5.md).
func benchmarkPeriods(b *testing.B, walDir func(i int) string, every int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := Config{
			Datasize: 0.02, Periods: 5, Seed: 42,
			Engine: EnginePipeline, FastClock: true,
			CheckpointEvery: every,
		}
		if walDir != nil {
			cfg.WALDir = walDir(i)
		}
		bench, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := bench.Run(); err != nil {
			b.Fatal(err)
		}
		_ = bench.Close()
	}
}

func BenchmarkPeriodWALOff(b *testing.B) {
	benchmarkPeriods(b, nil, 0)
}

// BenchmarkPeriodWALOn isolates the log itself: every dispatch, ack
// and barrier is appended and fsynced at stream barriers, but
// no snapshot commits inside the run (CheckpointEvery far beyond the
// period count). This is the overhead WAL-on adds to stream throughput.
func BenchmarkPeriodWALOn(b *testing.B) {
	dir := b.TempDir()
	benchmarkPeriods(b, func(i int) string {
		return filepath.Join(dir, fmt.Sprintf("log-%d", i))
	}, 1000)
}

// BenchmarkPeriodCheckpointAll additionally commits a full-stack
// snapshot at all four barriers of every period — the maximum-durability
// setting the identity tests run under.
func BenchmarkPeriodCheckpointAll(b *testing.B) {
	dir := b.TempDir()
	benchmarkPeriods(b, func(i int) string {
		return filepath.Join(dir, fmt.Sprintf("ckpt-%d", i))
	}, 1)
}

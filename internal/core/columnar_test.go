package core

import (
	"testing"

	"repro/internal/driver"
)

// The columnar execution layout must be invisible in the data: every run
// with `-columnar on` must leave the warehouse, the OrdersMV views and
// all three data marts byte-identical to the same run on the row kernels.
// These tests pin that end to end — in-process and across the remote
// transport — and prove the toggle composes with fault injection.

// runSnapshot executes one benchmark and returns the canonical snapshot
// of its integrated systems.
func runSnapshot(t *testing.T, cfg Config) (string, *Result) {
	t.Helper()
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	res, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	return driver.SnapshotIntegrated(b.Scenario()), res
}

// TestColumnarMatchesRow is the tentpole acceptance criterion: a
// multi-period optimized-engine run on the vectorized columnar kernels
// must be byte-identical to the row-kernel run of the same configuration.
func TestColumnarMatchesRow(t *testing.T) {
	base := Config{
		Datasize: 0.004, Periods: 3, Seed: 42, FastClock: true,
		Engine: EnginePipeline, MVCheckEvery: 1,
	}
	col := base
	col.Columnar = "on"
	row := base
	row.Columnar = "off"
	sc, _ := runSnapshot(t, col)
	sr, _ := runSnapshot(t, row)
	if sc != sr {
		t.Error("columnar run diverges from row-kernel run")
	}
}

// TestColumnarMatchesRowRemote repeats the comparison across the remote
// transport: the vectorized results travel through the wire protocol, so
// any layout-dependent difference would surface in the serialized state.
func TestColumnarMatchesRowRemote(t *testing.T) {
	if testing.Short() {
		t.Skip("remote transport in -short mode")
	}
	base := Config{
		Datasize: 0.004, Periods: 2, Seed: 42, FastClock: true,
		Engine: EnginePipeline, RemoteDB: true, MVCheckEvery: 1,
	}
	col := base
	col.Columnar = "on"
	row := base
	row.Columnar = "off"
	sc, _ := runSnapshot(t, col)
	sr, _ := runSnapshot(t, row)
	if sc != sr {
		t.Error("columnar run diverges from row-kernel run over the remote transport")
	}
}

// TestColumnarComposesWithChaos proves the toggles stack: a faulty run on
// columnar kernels must still pass the built-in fault-free twin
// verification, whose twin inherits Columnar "on" and so exercises the
// vectorized path too. The run builds exactly two benchmarks: itself and
// the one twin.
func TestColumnarComposesWithChaos(t *testing.T) {
	cfg := Config{
		Datasize: 0.004, Periods: 2, Seed: 11, FastClock: true,
		Engine: EnginePipeline, Columnar: "on",
		FaultRate: 0.05, ChaosVerify: true,
	}
	before := built.Load()
	_, res := runSnapshot(t, cfg)
	if n := built.Load() - before; n != 2 {
		t.Errorf("run built %d benchmarks, want 2 (the run and its chaos twin)", n)
	}
	if res.Chaos == nil || !res.Chaos.OK() {
		t.Fatalf("chaos twin failed under columnar execution:\n%v", res.Chaos)
	}
}

// TestColumnarLayoutStatsReported asserts the Explain-style layout
// accounting: an optimized-engine run (preset Columnar) must report at
// least one operator execution, and the federated reference engine (row
// only) must report none.
func TestColumnarLayoutStatsReported(t *testing.T) {
	b, err := New(Config{
		Datasize: 0.004, Periods: 1, Seed: 42, FastClock: true,
		Engine: EnginePipeline,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if !b.Engine().Options().Columnar {
		t.Fatal("pipeline preset did not enable Columnar")
	}
	if _, err := b.Run(); err != nil {
		t.Fatal(err)
	}
	stats := b.Engine().LayoutStats()
	total := uint64(0)
	for _, c := range stats {
		total += c.Row + c.Columnar
	}
	if total == 0 {
		t.Fatal("columnar engine reported no operator layouts")
	}

	fed, err := New(Config{
		Datasize: 0.004, Periods: 1, Seed: 42, FastClock: true,
		Engine: EngineFederated,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fed.Close()
	if fed.Engine().Options().Columnar {
		t.Fatal("federated preset enabled Columnar")
	}
	if _, err := fed.Run(); err != nil {
		t.Fatal(err)
	}
	if n := len(fed.Engine().LayoutStats()); n != 0 {
		t.Fatalf("row-only engine reported %d layout entries", n)
	}
}

// TestColumnarConfigRejected pins the config validation.
func TestColumnarConfigRejected(t *testing.T) {
	_, err := New(Config{Datasize: 0.004, Columnar: "maybe"})
	if err == nil {
		t.Fatal("invalid Columnar value accepted")
	}
}

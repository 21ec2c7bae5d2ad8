package core

import (
	"fmt"
	"testing"

	"repro/internal/engine"
	rel "repro/internal/relational"
	"repro/internal/schema"
)

// TestStreamCDParallelStress runs a full verified period with intra-operator
// parallelism forced on (the single-core test machine would otherwise leave
// the presets sequential), exercising the vectorized morsel kernels under
// the real C/D stream workload. Running this test under -race is the
// stress test the parallel layer is gated on.
func TestStreamCDParallelStress(t *testing.T) {
	b, err := New(Config{
		Datasize: 0.02, Periods: 1, Seed: 7,
		Engine: EnginePipeline,
		EngineOptions: &engine.Options{
			PlanCache: true, Parallelism: 4, Columnar: true,
		},
		FastClock: true, Verify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	res, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Failures != 0 {
		t.Errorf("failures: %d", res.Stats.Failures)
	}
	if res.Stats.Verification == nil || !res.Stats.Verification.OK() {
		t.Fatalf("verification:\n%v", res.Stats.Verification)
	}
}

// mvState renders the OrdersMV contents in table order (the GroupBy
// output order, which the determinism contract covers) for comparison.
func mvState(dwh *rel.Database) string {
	r := dwh.MustTable("OrdersMV").Scan()
	out := fmt.Sprintf("rows=%d\n", r.Len())
	for i := 0; i < r.Len(); i++ {
		for _, v := range r.Row(i) {
			out += v.String() + "|"
		}
		out += "\n"
	}
	return out
}

// TestParallelismDeterministicWarehouse runs one benchmark period, then
// refreshes the warehouse's OrdersMV repeatedly over the identical Orders
// facts — on the sequential row kernels, then on the vectorized kernels
// with parallelism forced high. The refresh is the ExtendMany+GroupBy hot
// path; its output (including row order and float sums) must depend on
// neither the layout nor the parallel degree.
func TestParallelismDeterministicWarehouse(t *testing.T) {
	b, err := New(Config{
		Datasize: 0.02, Periods: 1, Seed: 11,
		Engine: EnginePipeline,
		EngineOptions: &engine.Options{
			PlanCache: true, Parallelism: 4,
		},
		FastClock: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err := b.Run(); err != nil {
		t.Fatal(err)
	}
	dwh := b.Scenario().DB(schema.SysDWH)
	orders := dwh.MustTable("Orders")
	if orders.Len() == 0 {
		t.Fatal("warehouse has no facts to aggregate")
	}
	// At d=0.02 the fact table stays below one morsel (4096 rows) and the
	// refresh would silently take the sequential fallback. Inflate it with
	// cloned facts under fresh order keys so every kernel genuinely runs
	// partitioned, spanning several morsels.
	base := orders.Scan()
	maxKey := int64(0)
	for i := 0; i < base.Len(); i++ {
		if k := base.Row(i)[0].Int(); k > maxKey {
			maxKey = k
		}
	}
	const wantRows = 3*4096 + 257
	for orders.Len() < wantRows {
		for i := 0; i < base.Len() && orders.Len() < wantRows; i++ {
			maxKey++
			row := append(rel.Row(nil), base.Row(i)...)
			row[0] = rel.NewInt(maxKey)
			if err := orders.Insert(row); err != nil {
				t.Fatal(err)
			}
		}
	}
	refresh := func(par int) string {
		dwh.SetParallelism(par)
		dwh.SetColumnar(par > 1)
		if _, err := dwh.Call("sp_refreshOrdersMV"); err != nil {
			t.Fatalf("refresh with par=%d: %v", par, err)
		}
		return mvState(dwh)
	}
	seq := refresh(0)
	for _, par := range []int{2, 8} {
		if got := refresh(par); got != seq {
			t.Fatalf("OrdersMV diverges at par=%d:\n--- seq ---\n%s\n--- par ---\n%s", par, seq, got)
		}
	}
}

package dipbench

// A/B benchmarks for the delta-driven C/D pipelines (results/perf_pr4.md):
// full re-extraction versus incremental maintenance over a continuous
// workload, where the warehouse persists and each cycle only contributes
// a staging batch.

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/processes"
	rel "repro/internal/relational"
	"repro/internal/scenario"
	"repro/internal/schema"
)

// seedOrders bulk-inserts n synthetic warehouse orders with keys starting
// at base, spread over customers and months so the MV has realistic group
// counts.
func seedOrders(b *testing.B, t *rel.Table, base, n int) {
	b.Helper()
	rows := make([]rel.Row, n)
	for i := range rows {
		rows[i] = rel.Row{
			rel.NewInt(int64(base + i)),
			rel.NewInt(int64(1 + i%199)),
			rel.NewInt(int64(1 + i%11)),
			rel.NewTime(time.Date(2006+i%2, time.Month(1+i%12), 1+i%28, 0, 0, 0, 0, time.UTC)),
			rel.NewString("O"),
			rel.NewString("3-MEDIUM"),
			rel.NewFloat(100.5 * float64(1+i%97)),
		}
	}
	batch, err := rel.NewRelation(t.Schema(), rows)
	if err != nil {
		b.Fatal(err)
	}
	if err := t.InsertAll(batch); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkIncrementalMV isolates sp_refreshOrdersMV: a 20k-row fact
// table receives a 500-row batch; "full" recomputes the view from all
// rows, "incremental" folds only the batch into the stored groups. The
// _columnar variants repeat both arms with the vectorized kernels
// (the fused GroupAggExtVec replacing the row-at-a-time extend and the
// per-row-map aggregation) — the full-recompute fold is the PR6 ≥2x
// target (results/perf_pr6.md).
func BenchmarkIncrementalMV(b *testing.B) {
	s, err := scenario.New(scenario.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = s.Close() })
	db := s.DB(schema.SysDWH)
	orders := db.MustTable("Orders")
	const seedRows, deltaRows = 20000, 500
	for _, mode := range []string{"full", "full_columnar", "incremental", "incremental_columnar"} {
		mode := mode
		b.Run(mode, func(b *testing.B) {
			s.SetColumnar(strings.HasSuffix(mode, "_columnar"))
			b.Cleanup(func() { s.SetColumnar(false) })
			mode := strings.TrimSuffix(mode, "_columnar")
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				orders.Truncate()
				db.MustTable("OrdersMV").Truncate()
				seedOrders(b, orders, 0, seedRows)
				// Prime the view (and the refresher's watermark) at the
				// seeded state, then stage the delta batch.
				if _, err := db.Call("sp_refreshOrdersMV"); err != nil {
					b.Fatal(err)
				}
				seedOrders(b, orders, seedRows, deltaRows)
				b.StartTimer()
				var err error
				if mode == "incremental" {
					_, err = db.Call("sp_refreshOrdersMV", rel.NewBool(true))
				} else {
					_, err = db.Call("sp_refreshOrdersMV")
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchCycleBatches drives BenchmarkStreamCDIncremental: every cycle
// stages one region's orders (with orderlines) into the CDB.
var benchCycleBatches = func() []cycleBatch {
	out := make([]cycleBatch, 10)
	for i := range out {
		out[i] = cycleBatch{region: schema.Marts[i%len(schema.Marts)].Region, orders: 40, lines: true}
	}
	return out
}()

// BenchmarkStreamCDIncremental measures the continuous-workload stream
// C/D segment: after a one-time source load and master-data
// consolidation, each timed cycle stages a batch and runs P13 → P14 →
// P15. The full arm re-extracts the whole warehouse and rebuilds every
// mart per cycle (truncating them first, as the driver's lifecycle
// does); the incremental arm moves only the deltas.
func BenchmarkStreamCDIncremental(b *testing.B) {
	for _, mode := range []string{"full", "incremental"} {
		incremental := mode == "incremental"
		b.Run(mode, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s, err := scenario.New(scenario.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if err := s.Uninitialize(); err != nil {
					b.Fatal(err)
				}
				g := datagen.MustNew(datagen.Config{Seed: 11, Datasize: 0.25, Dist: datagen.Uniform})
				if err := s.InitializeSources(g); err != nil {
					b.Fatal(err)
				}
				eng, err := engine.New("streamcd-"+mode, engine.Options{
					PlanCache: true, Incremental: incremental,
				}, processes.MustNew(), s.Gateway(), nil)
				if err != nil {
					b.Fatal(err)
				}
				for _, pre := range []string{"P05", "P06", "P07", "P12"} {
					if err := eng.Execute(pre, nil, 0); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				for c, batch := range benchCycleBatches {
					if c > 0 {
						injectBatch(b, s, c, batch)
					}
					if !incremental {
						for _, v := range schema.Marts {
							s.DB(v.Name).TruncateAll()
						}
					}
					for _, id := range []string{"P13", "P14", "P15"} {
						if err := eng.Execute(id, nil, c); err != nil {
							b.Fatal(fmt.Errorf("cycle %d %s: %w", c, id, err))
						}
					}
				}
				b.StopTimer()
				_ = s.Close()
				b.StartTimer()
			}
		})
	}
}

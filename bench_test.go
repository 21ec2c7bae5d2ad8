package dipbench

// The DIPBench benchmark harness: one benchmark per table/figure of the
// paper's evaluation, plus the engine-comparison and ablation benchmarks
// called out in DESIGN.md. Custom metrics report the NAVG+ values (in tu)
// that the paper's Figs. 10/11 plot; ns/op reports the end-to-end period
// cost.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Regenerate one figure:
//
//	go test -bench=Fig10 -benchtime=3x

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/monitor"
	"repro/internal/mtm"
	"repro/internal/processes"
	rel "repro/internal/relational"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/schedule"
	"repro/internal/stx"
	x "repro/internal/xmlmsg"
)

// runPeriods executes n benchmark periods under the given configuration
// and returns the analyzed report.
func runPeriods(b *testing.B, cfg core.Config) *monitor.Report {
	b.Helper()
	bench, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer bench.Close()
	res, err := bench.Run()
	if err != nil {
		b.Fatal(err)
	}
	if res.Stats.Failures != 0 {
		b.Fatalf("%d failed process instances", res.Stats.Failures)
	}
	return res.Report
}

// reportNAVG attaches the per-process NAVG+ metrics to the benchmark
// result, mirroring the bars of the paper's performance plots.
func reportNAVG(b *testing.B, rep *monitor.Report) {
	for _, st := range rep.Stats {
		b.ReportMetric(st.NAVGPlus, st.Process+"_NAVG+_tu")
	}
}

// BenchmarkFig10_NAVGPlus_D005 regenerates Fig. 10: the reference
// federated implementation at datasize d=0.05, timescale t=1.0 equivalent
// (time-compressed with t=100 so one iteration stays in the tens of
// milliseconds; NAVG+ is reported in tu, which normalizes t away), with
// uniform-distributed datasets.
func BenchmarkFig10_NAVGPlus_D005(b *testing.B) {
	var rep *monitor.Report
	for i := 0; i < b.N; i++ {
		rep = runPeriods(b, core.Config{
			Datasize: 0.05, TimeScale: 100, Distribution: "uniform",
			Periods: 1, Seed: uint64(42 + i), Engine: core.EngineFederated,
		})
	}
	reportNAVG(b, rep)
}

// BenchmarkFig11_NAVGPlus_D010 regenerates Fig. 11: the same configuration
// at datasize d=0.1.
func BenchmarkFig11_NAVGPlus_D010(b *testing.B) {
	var rep *monitor.Report
	for i := 0; i < b.N; i++ {
		rep = runPeriods(b, core.Config{
			Datasize: 0.1, TimeScale: 100, Distribution: "uniform",
			Periods: 1, Seed: uint64(42 + i), Engine: core.EngineFederated,
		})
	}
	reportNAVG(b, rep)
}

// BenchmarkFig8_ScaleFactorImpact regenerates Fig. 8: the impact of the
// scale factors datasize and time on the P01 schedule — the per-period
// instance counts (left) and the event pacing (right).
func BenchmarkFig8_ScaleFactorImpact(b *testing.B) {
	for _, d := range []float64{0.05, 0.1, 0.5, 1.0} {
		b.Run(fmt.Sprintf("datasize_%g", d), func(b *testing.B) {
			var total int
			for i := 0; i < b.N; i++ {
				total = 0
				for _, m := range schedule.Fig8Left(d) {
					total += m
				}
			}
			b.ReportMetric(float64(schedule.CountP01(0, d)), "m_at_k0")
			b.ReportMetric(float64(schedule.CountP01(99, d)), "m_at_k99")
			b.ReportMetric(float64(total), "total_P01_instances")
		})
	}
	for _, t := range []float64{0.5, 1, 2} {
		b.Run(fmt.Sprintf("time_%g", t), func(b *testing.B) {
			sf := schedule.ScaleFactors{Datasize: 1, Time: t}
			for i := 0; i < b.N; i++ {
				_ = schedule.Fig8Right(t, 100)
			}
			b.ReportMetric(float64(sf.TU(2).Microseconds()), "event_interval_us")
		})
	}
}

// BenchmarkTableII_ScheduleGeneration measures the Table II period plan
// generation across the datasize range and reports the event totals.
func BenchmarkTableII_ScheduleGeneration(b *testing.B) {
	for _, d := range []float64{0.05, 0.1, 1.0} {
		b.Run(fmt.Sprintf("d_%g", d), func(b *testing.B) {
			sf := schedule.ScaleFactors{Datasize: d, Time: 1}
			var events int
			for i := 0; i < b.N; i++ {
				plan, err := schedule.PeriodPlan(i%schedule.Periods, sf)
				if err != nil {
					b.Fatal(err)
				}
				events = plan.TotalEvents()
			}
			b.ReportMetric(float64(events), "events_per_period")
		})
	}
}

// BenchmarkEngineComparison runs the identical period on both engines —
// the system-under-test comparison the benchmark is designed for.
func BenchmarkEngineComparison(b *testing.B) {
	for _, eng := range []string{core.EngineFederated, core.EnginePipeline, core.EngineEAI, core.EngineETL} {
		b.Run(eng, func(b *testing.B) {
			var rep *monitor.Report
			for i := 0; i < b.N; i++ {
				rep = runPeriods(b, core.Config{
					Datasize: 0.05, TimeScale: 1, Periods: 1,
					Seed: uint64(7 + i), Engine: eng, FastClock: true,
				})
			}
			var total float64
			for _, st := range rep.Stats {
				total += st.NAVGPlus
			}
			b.ReportMetric(total, "sum_NAVG+_tu")
		})
	}
}

// BenchmarkAblation isolates the three design choices of the federated
// engine (DESIGN.md experiment X2): the queue-trigger E1 path, per-
// instance plan compilation, and intermediate materialization.
func BenchmarkAblation(b *testing.B) {
	cases := []struct {
		name string
		opts engine.Options
	}{
		{"baseline_direct", engine.Options{PlanCache: true}},
		{"queue_trigger", engine.Options{PlanCache: true, QueueTrigger: true}},
		{"no_plan_cache", engine.Options{}},
		{"materialize", engine.Options{PlanCache: true, Materialize: true}},
		{"federated_all", engine.Options{QueueTrigger: true, Materialize: true}},
	}
	for _, c := range cases {
		opts := c.opts
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep := runPeriods(b, core.Config{
					Datasize: 0.05, TimeScale: 1, Periods: 1,
					Seed: uint64(3 + i), Engine: "ablation",
					EngineOptions: &opts, FastClock: true,
				})
				if i == b.N-1 {
					var cm float64
					for _, st := range rep.Stats {
						cm += st.AvgCm * float64(st.Instances)
					}
					b.ReportMetric(cm, "total_Cm_tu")
				}
			}
		})
	}
}

// BenchmarkDistributionImpact exercises the third scale factor f: the
// identical configuration under uniform vs. skewed (Zipf) source data.
// Skewed data concentrates orders on hot customers and products, which
// shifts work between the dedup/cleansing operators.
func BenchmarkDistributionImpact(b *testing.B) {
	for _, dist := range []string{"uniform", "skewed"} {
		b.Run(dist, func(b *testing.B) {
			var rep *monitor.Report
			for i := 0; i < b.N; i++ {
				rep = runPeriods(b, core.Config{
					Datasize: 0.05, TimeScale: 1, Distribution: dist,
					Periods: 1, Seed: uint64(11 + i), Engine: core.EnginePipeline,
					FastClock: true,
				})
			}
			var total float64
			for _, st := range rep.Stats {
				total += st.NAVGPlus
			}
			b.ReportMetric(total, "sum_NAVG+_tu")
		})
	}
}

// BenchmarkNetworkLatency sweeps the simulated external-system round-trip
// latency (the paper's testbed used a wireless network between three
// machines) and reports how the communication-cost category Cc comes to
// dominate the data-intensive processes.
func BenchmarkNetworkLatency(b *testing.B) {
	for _, lat := range []time.Duration{0, 200 * time.Microsecond, time.Millisecond} {
		b.Run(fmt.Sprintf("latency_%v", lat), func(b *testing.B) {
			var rep *monitor.Report
			for i := 0; i < b.N; i++ {
				rep = runPeriods(b, core.Config{
					Datasize: 0.02, TimeScale: 1, Periods: 1,
					Seed: uint64(5 + i), Engine: core.EnginePipeline,
					FastClock: true, DBLatency: lat,
				})
			}
			if st := rep.ByProcess("P13"); st != nil {
				b.ReportMetric(st.AvgCc, "P13_Cc_tu")
				b.ReportMetric(st.AvgCp, "P13_Cp_tu")
			}
		})
	}
}

// BenchmarkWorkerPoolSweep varies the EAI engine's worker-pool size. A
// tighter pool serializes the concurrent message streams (higher wall
// time, lower per-instance concurrency); an unbounded pool behaves like
// the pipeline engine.
func BenchmarkWorkerPoolSweep(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 0} {
		name := fmt.Sprintf("workers_%d", workers)
		if workers == 0 {
			name = "workers_unbounded"
		}
		opts := engine.Options{PlanCache: true, MaxWorkers: workers}
		b.Run(name, func(b *testing.B) {
			var rep *monitor.Report
			for i := 0; i < b.N; i++ {
				rep = runPeriods(b, core.Config{
					Datasize: 0.05, TimeScale: 1, Periods: 1,
					Seed: uint64(17 + i), Engine: "pool",
					EngineOptions: &opts, FastClock: true,
				})
			}
			var conc float64
			n := 0
			for _, st := range rep.Stats {
				conc += st.AvgConc * float64(st.Instances)
				n += st.Instances
			}
			b.ReportMetric(conc/float64(n), "avg_concurrency")
		})
	}
}

// BenchmarkRemoteVsLocalDB compares the two external-system transports:
// in-process database connections vs. the real HTTP protocol boundary
// (the paper's separate ES machine). The remote mode shifts cost into Cc.
func BenchmarkRemoteVsLocalDB(b *testing.B) {
	for _, remote := range []bool{false, true} {
		name := "local"
		if remote {
			name = "remote_http"
		}
		b.Run(name, func(b *testing.B) {
			var rep *monitor.Report
			for i := 0; i < b.N; i++ {
				rep = runPeriods(b, core.Config{
					Datasize: 0.02, TimeScale: 1, Periods: 1,
					Seed: uint64(13 + i), Engine: core.EnginePipeline,
					FastClock: true, RemoteDB: remote,
				})
			}
			if st := rep.ByProcess("P13"); st != nil {
				b.ReportMetric(st.AvgCc, "P13_Cc_tu")
			}
		})
	}
}

// --- substrate micro-benchmarks used by the per-operator analysis -------

func benchScenario(b *testing.B, d float64) (*scenario.Scenario, *datagen.Generator) {
	b.Helper()
	s, err := scenario.New(scenario.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = s.Close() })
	g := datagen.MustNew(datagen.Config{Seed: 1, Datasize: d, Dist: datagen.Uniform})
	if err := s.InitializeSources(g); err != nil {
		b.Fatal(err)
	}
	return s, g
}

// BenchmarkProcessTypes measures one instance of each E2 process type in
// isolation on a freshly initialized topology (per-process cost profile).
func BenchmarkProcessTypes(b *testing.B) {
	// Serialized chains: each benchmark reinitializes and replays the
	// prerequisite processes, then times the target.
	prereqs := map[string][]string{
		"P03": {},
		"P05": {}, "P06": {}, "P07": {}, "P09": {},
		"P11": {"P03"},
		"P12": {"P05", "P06", "P07"},
		"P13": {"P07", "P12"},
		"P14": {"P07", "P12", "P13"},
		"P15": {"P07", "P12", "P13", "P14"},
	}
	for _, id := range []string{"P03", "P05", "P07", "P09", "P11", "P12", "P13", "P14", "P15"} {
		id := id
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s, _ := benchScenario(b, 0.05)
				eng, err := engine.NewPipeline(processes.MustNew(), s.Gateway(), nil)
				if err != nil {
					b.Fatal(err)
				}
				for _, pre := range prereqs[id] {
					if err := eng.Execute(pre, nil, 0); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				if err := eng.Execute(id, nil, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkUnionDistinct measures the UNION DISTINCT operator over the
// generated TPC-H order datasets (the P03 hot path).
func BenchmarkUnionDistinct(b *testing.B) {
	g := datagen.MustNew(datagen.Config{Seed: 1, Datasize: 0.5, Dist: datagen.Uniform})
	chi, err := g.TPCH("Chicago")
	if err != nil {
		b.Fatal(err)
	}
	bal, err := g.TPCH("Baltimore")
	if err != nil {
		b.Fatal(err)
	}
	mad, err := g.TPCH("Madison")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		merged, err := chi.Orders.UnionDistinct([]string{"O_Orderkey"}, bal.Orders, mad.Orders)
		if err != nil {
			b.Fatal(err)
		}
		if merged.Len() == 0 {
			b.Fatal("empty union")
		}
	}
}

// BenchmarkHashJoin measures the orderline/orders hash join of the Europe
// extraction processes.
func BenchmarkHashJoin(b *testing.B) {
	g := datagen.MustNew(datagen.Config{Seed: 1, Datasize: 0.5, Dist: datagen.Uniform})
	ds, err := g.Europe("Berlin_Paris")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		joined, err := ds.Orderline.Join(ds.Orders, "Ordkey", "Ordkey", "o_")
		if err != nil {
			b.Fatal(err)
		}
		if joined.Len() == 0 {
			b.Fatal("empty join")
		}
	}
}

// BenchmarkSTXTranslate measures the P01 stylesheet translation.
func BenchmarkSTXTranslate(b *testing.B) {
	g := datagen.MustNew(datagen.Config{Seed: 1, Datasize: 0.05, Dist: datagen.Uniform})
	msg := g.BeijingCustomerMsg(0)
	sheet := mustSheet(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := sheet.Transform(msg)
		if err != nil || out == nil {
			b.Fatal(err)
		}
	}
}

func mustSheet(b *testing.B) *stx.Stylesheet {
	b.Helper()
	sheet, err := stx.New("bench", stx.ActCopy,
		stx.Rule{Pattern: "BJCustomer", Action: stx.ActRename, NewName: "SKCustomer"},
		stx.Rule{Pattern: "Cust_ID", Action: stx.ActRename, NewName: "CID"},
		stx.Rule{Pattern: "Cust_Name", Action: stx.ActRename, NewName: "CNAME"},
	)
	if err != nil {
		b.Fatal(err)
	}
	return sheet
}

// BenchmarkResultSetRoundTrip measures the generic result-set XML
// serialization path the Asia web services use (P09's wire format).
func BenchmarkResultSetRoundTrip(b *testing.B) {
	g := datagen.MustNew(datagen.Config{Seed: 1, Datasize: 0.2, Dist: datagen.Uniform})
	ds, err := g.Asia("Beijing")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doc := x.FromRelation("Orders", ds.Orders)
		parsed, err := x.ParseString(doc.String())
		if err != nil {
			b.Fatal(err)
		}
		back, err := x.ToRelation(parsed)
		if err != nil || back.Len() != ds.Orders.Len() {
			b.Fatalf("round trip: %v", err)
		}
	}
}

// BenchmarkE1MessagePath compares the two Fig. 9 E1 realizations: the
// queue-table/trigger path vs. direct dispatch, per message.
func BenchmarkE1MessagePath(b *testing.B) {
	for _, queued := range []bool{true, false} {
		name := "direct"
		if queued {
			name = "queue_trigger"
		}
		b.Run(name, func(b *testing.B) {
			s, g := benchScenario(b, 0.05)
			eng, err := engine.New("bench", engine.Options{QueueTrigger: queued, PlanCache: true},
				processes.MustNew(), s.Gateway(), nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := eng.Execute("P08", g.AppendHongkongOrder(nil, i), 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDataGeneration measures the Initializer's dataset generation.
func BenchmarkDataGeneration(b *testing.B) {
	for _, d := range []float64{0.05, 0.5} {
		b.Run(fmt.Sprintf("d_%g", d), func(b *testing.B) {
			g := datagen.MustNew(datagen.Config{Seed: 1, Datasize: d, Dist: datagen.Uniform})
			for i := 0; i < b.N; i++ {
				if _, err := g.TPCH("Chicago"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCostNormalization measures the monitor's activity-ledger
// normalization under concurrent instance churn.
func BenchmarkCostNormalization(b *testing.B) {
	m := monitor.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := m.StartInstance("PX", 0)
		rec.Record(mtm.CostProc, 1000)
		rec.Finish(nil)
	}
}

// BenchmarkPeriodInit measures the end-to-end wall clock of a multi-period
// run at d=0.1 — the harness-overhead benchmark of the pipelined period
// initialization (generation of period k+1 overlaps execution of period k,
// and the independent source systems load in parallel).
func BenchmarkPeriodInit(b *testing.B) {
	for _, eng := range []string{core.EnginePipeline, core.EngineFederated} {
		b.Run(eng, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runPeriods(b, core.Config{
					Datasize: 0.1, TimeScale: 1, Distribution: "uniform",
					Periods: 4, Seed: 42, Engine: eng, FastClock: true,
				})
			}
		})
		b.Run(eng+"_d005", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runPeriods(b, core.Config{
					Datasize: 0.05, TimeScale: 1, Distribution: "uniform",
					Periods: 4, Seed: 42, Engine: eng, FastClock: true,
				})
			}
		})
	}
}

// BenchmarkIndexedSelect measures the three access paths of the relational
// layer over a realistic orders table: equality on the primary key,
// equality on a secondary-indexed column, and the non-indexed scan
// fallback.
func BenchmarkIndexedSelect(b *testing.B) {
	g := datagen.MustNew(datagen.Config{Seed: 1, Datasize: 1, Dist: datagen.Uniform})
	ds, err := g.Europe("Berlin_Paris")
	if err != nil {
		b.Fatal(err)
	}
	newOrders := func(b *testing.B, secondary bool) *rel.Table {
		b.Helper()
		tbl := rel.NewTable("Orders", ds.Orders.Schema())
		if secondary {
			if err := tbl.CreateIndex("Custkey"); err != nil {
				b.Fatal(err)
			}
		}
		if err := tbl.InsertAll(ds.Orders); err != nil {
			b.Fatal(err)
		}
		return tbl
	}
	b.Run("pk_equality", func(b *testing.B) {
		tbl := newOrders(b, false)
		key := ds.Orders.Row(ds.Orders.Len() / 2)[0]
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err := tbl.SelectWhere(rel.ColEq("Ordkey", key))
			if err != nil || out.Len() != 1 {
				b.Fatalf("want 1 row, got %d (%v)", out.Len(), err)
			}
		}
	})
	b.Run("indexed_equality", func(b *testing.B) {
		tbl := newOrders(b, true)
		cust := ds.Orders.Row(ds.Orders.Len() / 2)[1]
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err := tbl.SelectWhere(rel.ColEq("Custkey", cust))
			if err != nil || out.Len() == 0 {
				b.Fatalf("empty selection (%v)", err)
			}
		}
	})
	b.Run("scan_fallback", func(b *testing.B) {
		tbl := newOrders(b, false)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err := tbl.SelectWhere(rel.ColEq("Location", rel.NewString("Berlin")))
			if err != nil || out.Len() == 0 {
				b.Fatalf("empty selection (%v)", err)
			}
		}
	})
}

// tileRelation concatenates n copies of r, shifting the named integer
// key columns by a disjoint per-copy offset so uniqueness (and join
// fan-out) is preserved while the row count scales past the morsel
// threshold of the parallel kernels.
func tileRelation(b testing.TB, r *rel.Relation, n int, keyCols ...string) *rel.Relation {
	b.Helper()
	ords := make([]int, len(keyCols))
	for i, c := range keyCols {
		ords[i] = r.Schema().MustOrdinal(c)
	}
	rows := make([]rel.Row, 0, r.Len()*n)
	for c := 0; c < n; c++ {
		off := int64(c) * 10_000_000
		for i := 0; i < r.Len(); i++ {
			row := append(rel.Row(nil), r.Row(i)...)
			for _, o := range ords {
				row[o] = rel.NewInt(row[o].Int() + off)
			}
			rows = append(rows, row)
		}
	}
	out, err := rel.NewRelation(r.Schema(), rows)
	if err != nil {
		b.Fatal(err)
	}
	return out
}

// benchWorkers raises the process-wide scheduler's worker bound to n for
// the rest of the benchmark, so the morsel-parallel legs spawn workers
// even where GOMAXPROCS is smaller.
func benchWorkers(b *testing.B, n int) {
	sched.Default().SetMaxWorkers(n)
	b.Cleanup(func() { sched.Default().SetMaxWorkers(runtime.GOMAXPROCS(0)) })
}

// BenchmarkVectorKernels A/B-compares the sequential row kernels (the
// federated System A reference) against the vectorized columnar kernels
// at par=4 over tiled Europe datasets: predicate evaluation over typed
// column slices with a selection bitmap, typed hash-join build/probe, and
// the fused grouped-aggregation fold. Run with -benchmem: the vec arms
// also demonstrate the pooled ColSet/bitmap scratch (allocs/op stays
// dominated by the output, not the scan).
func BenchmarkVectorKernels(b *testing.B) {
	g := datagen.MustNew(datagen.Config{Seed: 1, Datasize: 1, Dist: datagen.Uniform})
	ds, err := g.Europe("Berlin_Paris")
	if err != nil {
		b.Fatal(err)
	}
	const copies = 12
	orders := tileRelation(b, ds.Orders, copies, "Ordkey")
	orderline := tileRelation(b, ds.Orderline, copies, "Ordkey")
	pred := rel.ColEq("Location", rel.NewString("Berlin"))
	groupCols := []string{"Custkey"}
	aggs := []rel.AggSpec{
		{Func: "count", As: "N"},
		{Func: "sum", Col: "Total", As: "Sum"},
	}
	const par = 4
	benchWorkers(b, 8)
	mustColumnar := func(b *testing.B, l rel.Layout) {
		b.Helper()
		if l != rel.LayoutColumnar {
			b.Fatalf("vectorized kernel fell back to %v", l)
		}
	}
	b.Run("filter/row", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out, err := orders.Select(pred)
			if err != nil || out.Len() == 0 {
				b.Fatal("empty selection")
			}
		}
	})
	b.Run("filter/vec", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out, layout, err := orders.FilterVec(par, pred)
			if err != nil || out.Len() == 0 {
				b.Fatal("empty selection")
			}
			mustColumnar(b, layout)
		}
	})
	b.Run("join/row", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out, err := orderline.Join(orders, "Ordkey", "Ordkey", "o_")
			if err != nil || out.Len() == 0 {
				b.Fatal("empty join")
			}
		}
	})
	b.Run("join/vec", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out, layout, err := orderline.HashJoinVec(par, orders, "Ordkey", "Ordkey", "o_")
			if err != nil || out.Len() == 0 {
				b.Fatal("empty join")
			}
			mustColumnar(b, layout)
		}
	})
	b.Run("groupagg/row", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out, err := orders.GroupBy(groupCols, aggs)
			if err != nil || out.Len() == 0 {
				b.Fatalf("empty aggregation (%v)", err)
			}
		}
	})
	b.Run("groupagg/vec", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out, layout, err := orders.GroupAggExtVec(par, nil, func(rel.Row, []rel.Value) {}, groupCols, aggs)
			if err != nil || out.Len() == 0 {
				b.Fatalf("empty aggregation (%v)", err)
			}
			mustColumnar(b, layout)
		}
	})
}

// TestVectorScratchPooled pins the sync.Pool scratch reuse: a steady-state
// FilterVec whose predicate selects nothing must not re-allocate the
// decoded column vectors or the selection bitmaps on every call — after a
// warm-up pass the per-run allocation count stays a small constant
// (output bookkeeping only), independent of the scanned row count.
func TestVectorScratchPooled(t *testing.T) {
	g := datagen.MustNew(datagen.Config{Seed: 1, Datasize: 1, Dist: datagen.Uniform})
	ds, err := g.Europe("Berlin_Paris")
	if err != nil {
		t.Fatal(err)
	}
	orders := tileRelation(t, ds.Orders, 12, "Ordkey")
	pred := rel.Cmp("Ordkey", rel.OpLt, rel.NewInt(-1)) // matches no row
	run := func() {
		out, layout, err := orders.FilterVec(1, pred)
		if err != nil {
			t.Fatal(err)
		}
		if layout != rel.LayoutColumnar || out.Len() != 0 {
			t.Fatalf("expected empty columnar selection, got layout=%v len=%d", layout, out.Len())
		}
	}
	run() // warm the ColSet and bitmap pools
	allocs := testing.AllocsPerRun(20, run)
	// ~44k scanned rows decode into pooled scratch; without pooling this
	// sits in the hundreds (one slice per column per morsel per run).
	if allocs > 32 {
		t.Fatalf("steady-state FilterVec allocates %.0f objects per run; pooled scratch bound is 32", allocs)
	}
}

// BenchmarkStreamCD measures the serialized warehouse-load (stream C:
// P12-P13) and mart-refresh (stream D: P14-P15) chain end to end —
// the critical path the morsel kernels target — on the sequential row
// kernels vs. the vectorized columnar kernels at par=4. At d=0.1 the
// warehouse facts stay below one morsel, so the col_4 leg runs inline;
// at d=4 the fact tables span 3-8 morsels and the partitioned paths
// genuinely run.
func BenchmarkStreamCD(b *testing.B) {
	modes := []struct {
		name     string
		par      int
		columnar bool
	}{{"seq", 0, false}, {"col_4", 4, true}}
	for _, d := range []float64{0.1, 4} {
		for _, m := range modes {
			m := m
			name := fmt.Sprintf("d_%g/%s", d, m.name)
			b.Run(name, func(b *testing.B) {
				benchWorkers(b, 8)
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					s, _ := benchScenario(b, d)
					opts := engine.Options{PlanCache: true, Parallelism: m.par, Columnar: m.columnar}
					eng, err := engine.New("streamcd", opts, processes.MustNew(), s.Gateway(), nil)
					if err != nil {
						b.Fatal(err)
					}
					s.SetParallelism(m.par)
					if m.columnar {
						s.SetColumnar(true)
					}
					// Prerequisites: the extraction processes that populate the
					// staging tables streams C/D consume.
					for _, pre := range []string{"P05", "P06", "P07"} {
						if err := eng.Execute(pre, nil, 0); err != nil {
							b.Fatal(err)
						}
					}
					b.StartTimer()
					for _, id := range []string{"P12", "P13", "P14", "P15"} {
						if err := eng.Execute(id, nil, 0); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}

// BenchmarkStreamCDSharded measures the region-sharded execution of the
// same warehouse-load + mart-refresh chain (results/perf_pr7.md): shard_0
// is the single-engine baseline, shard_1 pays the coordinator/exchange
// overhead without any cross-region concurrency, and shard_3 runs one
// shard per business region — region extractions execute concurrently
// under the merge barrier and the three mart refreshes fan out. All legs
// run par=4 with columnar kernels so the speedup isolates the sharding
// layer; at d=0.1 the per-region batches are too small for the fan-out to
// pay, at d=4 shard_3 is the headline number.
func BenchmarkStreamCDSharded(b *testing.B) {
	for _, d := range []float64{0.1, 4} {
		for _, shards := range []int{0, 1, 3} {
			name := fmt.Sprintf("d_%g/shard_%d", d, shards)
			b.Run(name, func(b *testing.B) {
				benchWorkers(b, 8)
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					s, _ := benchScenario(b, d)
					opts := engine.Options{PlanCache: true, Parallelism: 4, Columnar: true, Shards: shards}
					eng, err := engine.New("streamcd_sharded", opts, processes.MustNew(), s.Gateway(), nil)
					if err != nil {
						b.Fatal(err)
					}
					s.SetParallelism(4)
					s.SetColumnar(true)
					for _, pre := range []string{"P05", "P06", "P07"} {
						if err := eng.Execute(pre, nil, 0); err != nil {
							b.Fatal(err)
						}
					}
					b.StartTimer()
					for _, id := range []string{"P12", "P13", "P14", "P15"} {
						if err := eng.Execute(id, nil, 0); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}

// BenchmarkSchedulerMultiTenant A/B-compares N concurrent StreamCD
// tenants on the shared work-stealing scheduler against the same tenants
// each running a private scheduler of its own — the PR8 per-tenant pool
// model, where N tenants oversubscribe the host with N separate worker
// pools (results/perf_pr9.md). Every tenant runs the warehouse-load +
// mart-refresh chain par=4 columnar; ns/op is the wall time for the
// whole tenant batch, so the shared/private ratio at each T is the
// aggregate-throughput win of the shared pool.
func BenchmarkSchedulerMultiTenant(b *testing.B) {
	benchWorkers(b, 8)
	// d=4 keeps the staging tables above several morsels (cf. the
	// BenchmarkStreamCD big leg) — smaller sizes fall into the inline
	// short-circuit and never reach a scheduler at all.
	const d = 4
	for _, tenants := range []int{1, 4, 8} {
		for _, mode := range []string{"shared", "private"} {
			b.Run(fmt.Sprintf("T_%d/%s", tenants, mode), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					engines := make([]*engine.Engine, tenants)
					handles := make([]*sched.Handle, tenants)
					for j := 0; j < tenants; j++ {
						s, _ := benchScenario(b, d)
						var h *sched.Handle
						if mode == "shared" {
							h = sched.Default().Register(fmt.Sprintf("bench-t%d", j), 1)
						} else {
							h = sched.New(8).Register(fmt.Sprintf("bench-t%d", j), 1)
						}
						opts := engine.Options{
							PlanCache: true, Parallelism: 4, Columnar: true, Scheduler: h,
						}
						eng, err := engine.New("streamcd_mt", opts, processes.MustNew(), s.Gateway(), nil)
						if err != nil {
							b.Fatal(err)
						}
						s.SetParallelism(4)
						s.SetColumnar(true)
						s.SetScheduler(h)
						for _, pre := range []string{"P05", "P06", "P07"} {
							if err := eng.Execute(pre, nil, 0); err != nil {
								b.Fatal(err)
							}
						}
						engines[j], handles[j] = eng, h
					}
					errs := make([]error, tenants)
					var wg sync.WaitGroup
					// Peak goroutine count over the timed batch exposes the
					// oversubscription mechanism: the shared pool stays
					// bounded by one MaxWorkers regardless of tenant count,
					// the per-tenant pools stack up T x MaxWorkers.
					peak := runtime.NumGoroutine()
					sampling := make(chan struct{})
					var sampler sync.WaitGroup
					sampler.Add(1)
					go func() {
						defer sampler.Done()
						for {
							select {
							case <-sampling:
								return
							default:
							}
							if n := runtime.NumGoroutine(); n > peak {
								peak = n
							}
							time.Sleep(time.Millisecond)
						}
					}()
					b.StartTimer()
					for j := 0; j < tenants; j++ {
						wg.Add(1)
						go func(j int) {
							defer wg.Done()
							for _, id := range []string{"P12", "P13", "P14", "P15"} {
								if err := engines[j].Execute(id, nil, 0); err != nil {
									errs[j] = err
									return
								}
							}
						}(j)
					}
					wg.Wait()
					b.StopTimer()
					close(sampling)
					sampler.Wait()
					var sets, stolen uint64
					for j := 0; j < tenants; j++ {
						if errs[j] != nil {
							b.Fatal(errs[j])
						}
						hs := handles[j].Stats()
						sets += hs.Submitted
						stolen += hs.Stolen
						handles[j].Close()
					}
					b.ReportMetric(float64(peak), "peak_goroutines")
					b.ReportMetric(float64(sets), "sets")
					b.ReportMetric(float64(stolen), "stolen")
				}
			})
		}
	}
}

// BenchmarkRelationalSelect measures the predicate scan of the relational
// substrate over a realistic Europe orders table.
func BenchmarkRelationalSelect(b *testing.B) {
	g := datagen.MustNew(datagen.Config{Seed: 1, Datasize: 1, Dist: datagen.Uniform})
	ds, err := g.Europe("Berlin_Paris")
	if err != nil {
		b.Fatal(err)
	}
	pred := rel.ColEq("Location", rel.NewString("Berlin"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := ds.Orders.Select(pred)
		if err != nil || out.Len() == 0 {
			b.Fatal("empty selection")
		}
	}
}

package main

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/schedule"
)

// coreLayers attributes one traced unit to the layers, from outside: the
// monitor's per-instance records (the paper's Cc/Cm/Cp taxonomy and the
// operator table), the driver trace, the engine's layout counts, the
// incremental audit and the scheduler accounting. Everything read here
// is state the program already keeps; the harness adds no tracing inside
// it. Sums are over the steady periods 1..N-1 where the source carries a
// period, and over all N periods where it does not (operator table,
// delta audit, scheduler counters) — the divisor matches.
func coreLayers(w workload, b *core.Benchmark, res *core.Result, ends []time.Time, rec *spanRecorder, parent int) metricSet {
	m := metricSet{}
	steady := float64(w.Periods - 1)
	all := float64(w.Periods)
	mon := b.Monitor()

	// Stream envelopes: per period, the span from the first instance
	// start to the last instance end of each serialized stream group.
	group := map[string]int{}
	if plan, err := schedule.PeriodPlan(0, w.scale()); err == nil {
		for _, in := range plan.Instances {
			switch in.Stream {
			case schedule.StreamA, schedule.StreamB:
				group[in.Process] = 0
			case schedule.StreamC:
				group[in.Process] = 1
			default:
				group[in.Process] = 2
			}
		}
	}
	type envelope struct{ lo, hi time.Time }
	env := make([][3]envelope, w.Periods)
	records := mon.Records()
	var cc, cm, cp, cmRaw, conc float64
	n := 0
	// Under the fast clock every instance of a stream is dispatched at
	// once, so an instance's measured costs include the time it spent
	// waiting behind hundreds of others. As the monitor does for NAVG+,
	// each record's costs are divided by its average concurrency, which
	// makes the sums comparable to the streams' wall time. rawBy and
	// normBy keep each process type's totals to scale the operator table
	// (which carries no concurrency) the same way.
	rawBy, normBy := map[string]float64{}, map[string]float64{}
	for _, r := range records {
		c := math.Max(r.AvgConc, 1)
		rawBy[r.Process] += ms(r.Total())
		normBy[r.Process] += ms(r.Total()) / c
		if r.Period < 1 || r.Period >= w.Periods {
			continue
		}
		e := &env[r.Period][group[r.Process]]
		if e.lo.IsZero() || r.Start.Before(e.lo) {
			e.lo = r.Start
		}
		if r.End.After(e.hi) {
			e.hi = r.End
		}
		cc += ms(r.Cc) / c
		cm += ms(r.Cm) / c
		cmRaw += ms(r.Cm)
		cp += ms(r.Cp) / c
		conc += r.AvgConc
		n++
	}
	var streams [3]float64
	for k := 1; k < w.Periods; k++ {
		for g := range streams {
			if e := env[k][g]; !e.lo.IsZero() {
				streams[g] += ms(e.hi.Sub(e.lo))
			}
		}
	}
	wall := ms(ends[w.Periods-1].Sub(ends[0]))
	m["driver.stream_ab_ms"] = streams[0] / steady
	m["driver.stream_c_ms"] = streams[1] / steady
	m["driver.stream_d_ms"] = streams[2] / steady
	m["driver.init_gap_ms"] = (wall - streams[0] - streams[1] - streams[2]) / steady
	if tr := b.Trace(); tr != nil {
		dispatched := 0
		for _, ev := range tr.Events() {
			if ev.Period >= 1 {
				dispatched++
			}
		}
		m["driver.events_per_period"] = float64(dispatched) / steady
	}

	m["mtm.cc_ms_per_period"] = cc / steady
	m["mtm.cm_ms_per_period"] = cm / steady
	m["mtm.cp_ms_per_period"] = cp / steady
	m["mtm.cc_share"] = ratio(cc, cc+cm+cp)
	m["mtm.cm_share"] = ratio(cm, cc+cm+cp)
	m["mtm.cp_share"] = ratio(cp, cc+cm+cp)

	execs := 0
	for _, p := range processIDs {
		for _, op := range mon.OperatorBreakdown(p) {
			kind := op.Kind
			if strings.HasPrefix(kind, "DELTA") {
				kind = "DELTA"
			}
			execs += op.Executions
			// TimeScale 1: 1 tu = 1 ms. Kinds BENCHMARK.json does not
			// declare (ASSIGN, SWITCH, ...) drop out when the run's
			// metrics are completed against the table.
			m["mtm.op."+kind+".ms_per_period"] += op.TotalTU * ratio(normBy[p], rawBy[p]) / all
		}
		if ps := res.Report.ByProcess(p); ps != nil {
			m["processes."+p+".navg_plus_tu"] = ps.NAVGPlus
		}
	}
	m["mtm.op.execs_per_period"] = float64(execs) / all

	m["engine.instances_per_period"] = float64(n) / steady
	m["engine.avg_concurrency"] = ratio(conc, float64(n))
	m["engine.cm_us_per_instance"] = ratio(cmRaw*1000, float64(n))
	var row, col uint64
	for _, lc := range b.Engine().LayoutStats() {
		row += lc.Row
		col += lc.Columnar
	}
	m["engine.columnar_op_share"] = ratio(float64(col), float64(row+col))

	_, rows, resets, skips := mon.Incremental().Totals()
	m["processes.delta_rows_per_period"] = float64(rows) / all
	m["processes.delta_resets"] = float64(resets)
	m["processes.region_skips"] = float64(skips)

	// The scheduler counters are cumulative for the process-wide default
	// handle; the unit has the process to itself, so they are the unit's.
	// The sequential federated engine reports them too, all zero.
	if s := res.Report.Sched; s != nil {
		m["sched.sets_per_period"] = float64(s.Sets) / all
		m["sched.inline_share"] = ratio(float64(s.Inline), float64(s.Inline+s.Sets))
		m["sched.worker_task_share"] = ratio(float64(s.WorkerTasks), float64(s.CallerTasks+s.WorkerTasks))
		m["sched.stolen_per_period"] = float64(s.Stolen) / all
		m["sched.spawned"] = float64(s.Spawned)
	}

	m["monitor.records"] = float64(len(records))
	t0 := time.Now()
	_ = mon.Analyze()
	t1 := time.Now()
	rec.add("probe.monitor.Analyze", t0, t1, parent)
	m["monitor.analyze_ms"] = ms(t1.Sub(t0))

	t0 = time.Now()
	blobs, err := b.Scenario().SnapshotDatabases()
	t1 = time.Now()
	rec.add("probe.scenario.SnapshotDatabases", t0, t1, parent)
	if err == nil {
		size := 0
		for _, blob := range blobs {
			size += len(blob)
		}
		m["scenario.snapshot_ms"] = ms(t1.Sub(t0))
		m["scenario.snapshot_mb"] = mb(float64(size))
	}
	return m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mb(bytes float64) float64 { return bytes / (1 << 20) }

// canonicalDigest is the harness's state digest: core's StateDigest
// formula (integrated snapshot + execution ledger) with every decimal of
// more than ten digits rounded to ten significant digits first. The
// OrdersMV SUM columns are float sums in row arrival order, and arrival
// order depends on how the concurrent stream A/B instances interleave,
// so the program's own digest differs in the last bit between runs of
// the same seed (README.md, "Findings"); the rounded one does not.
func canonicalDigest(snapshot, ledger string) string {
	h := sha256.New()
	h.Write([]byte(roundDecimals(snapshot)))
	h.Write([]byte("\n#ledger\n"))
	h.Write([]byte(ledger))
	return hex.EncodeToString(h.Sum(nil))
}

func roundDecimals(s string) string {
	isDigit := func(c byte) bool { return c >= '0' && c <= '9' }
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); {
		if !isDigit(s[i]) {
			b.WriteByte(s[i])
			i++
			continue
		}
		j := i
		for j < len(s) && isDigit(s[j]) {
			j++
		}
		if j+1 >= len(s) || s[j] != '.' || !isDigit(s[j+1]) {
			b.WriteString(s[i:j])
			i = j
			continue
		}
		k := j + 1
		for k < len(s) && isDigit(s[k]) {
			k++
		}
		tok := s[i:k]
		// Values print in shortest form, so up to ten digits are exact.
		if k-i-1 > 10 {
			if f, err := strconv.ParseFloat(tok, 64); err == nil {
				if r, err := strconv.ParseFloat(strconv.FormatFloat(f, 'e', 9, 64), 64); err == nil {
					tok = strconv.FormatFloat(r, 'f', -1, 64)
				}
			}
		}
		b.WriteString(tok)
		i = k
	}
	return b.String()
}

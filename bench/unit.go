package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/driver"
)

// unitResult is the measurement of one unit (see workload). A unit runs
// in a process of its own and reports this as one JSON line.
type unitResult struct {
	Traced bool `json:"traced"`
	// Setup is core.New (or daemon start) through the end of warm-up
	// period 0; Wall is the unit's work: New, every period and the
	// post-phase verification (for tenants-4: first submit to last tenant
	// done). Close is timed apart, in CloseS.
	Setup  float64 `json:"setup_s"`
	Wall   float64 `json:"wall_s"`
	CloseS float64 `json:"close_s"`
	// Periods are the steady period walls (periods 1..N-1), in seconds.
	Periods []float64 `json:"periods_s"`
	// Events counts the process instances of the steady window,
	// SteadyWall is its duration and SteadyPeriods the divisor of the
	// per-period cost metrics.
	Events        int     `json:"events"`
	SteadyWall    float64 `json:"steady_wall_s"`
	SteadyPeriods float64 `json:"steady_periods"`
	// CPU, Mallocs and AllocBytes are getrusage / MemStats deltas over
	// the steady window.
	CPU        float64 `json:"cpu_s"`
	Mallocs    float64 `json:"mallocs"`
	AllocBytes float64 `json:"alloc_bytes"`
	// Attempted counts every instance, verification check and digest
	// comparison; Failed the ones that went wrong.
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	// CloseErr is the error Close returned, if any. The run's work is
	// done and verified by then, so it is reported (README.md,
	// "Findings"), not counted as a failed operation.
	CloseErr string `json:"close_err,omitempty"`
	// Digest is the canonical state digest (see canonicalDigest),
	// RawDigest the program's own StateDigest.
	Digest    string `json:"digest"`
	RawDigest string `json:"raw_digest"`
	// Layers holds the per-layer sums of a traced unit, Spans its trace.
	Layers metricSet `json:"layers,omitempty"`
	Spans  []span    `json:"spans,omitempty"`
	// PeakRSSMB is the unit process's high-water resident set, filled in
	// by the launcher once the process has ended.
	PeakRSSMB float64 `json:"peak_rss_mb"`
}

// resources is a point-in-time reading of the process's own cost
// counters.
type resources struct {
	cpu, mallocs, bytes float64
}

func readResources() resources {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return resources{
		cpu:     tv(ru.Utime) + tv(ru.Stime),
		mallocs: float64(ms.Mallocs),
		bytes:   float64(ms.TotalAlloc),
	}
}

// runCoreUnit runs one unit of a single-run workload up to, but not
// including, Close. It is the closed loop's one client: the driver
// dispatches a stream group only after the previous barrier committed.
//
// Close is returned separately because it either returns at once or
// blocks for five seconds on idle listeners (README.md, "Findings"): the
// launcher starts the next unit while this one closes.
func runCoreUnit(w workload, seed uint64, traced bool, run int) (u *unitResult, closeFn func(), err error) {
	u = &unitResult{Traced: traced}
	var rec *spanRecorder
	if traced {
		rec = &spanRecorder{run: run}
	}
	cfg := w.coreConfig(seed)
	cfg.Trace = traced
	last := w.Periods - 1
	ends := make([]time.Time, 0, w.Periods)
	events := make([]int, 0, w.Periods)
	var r0, r1 resources
	cfg.OnPeriod = func(k int, ps driver.PeriodStats) {
		ends = append(ends, time.Now())
		events = append(events, ps.Events)
		if k == 0 {
			r0 = readResources()
		}
		if k == last {
			r1 = readResources()
		}
	}

	start := time.Now()
	root := rec.open("unit", start, 0)
	b, err := core.New(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("core.New: %w", err)
	}
	newEnd := time.Now()
	rec.add("core.New", start, newEnd, root)
	res, err := b.Run()
	runEnd := time.Now()
	if err == nil && len(ends) != w.Periods {
		err = fmt.Errorf("OnPeriod fired %d times, want %d", len(ends), w.Periods)
	}
	if err != nil {
		_ = b.Close()
		return nil, nil, fmt.Errorf("Run: %w", err)
	}
	runSpan := rec.add("Run", newEnd, runEnd, root)
	prev := newEnd
	for k, e := range ends {
		rec.add(fmt.Sprintf("period.%d", k), prev, e, runSpan)
		prev = e
	}
	rec.add("verify", ends[last], runEnd, runSpan)

	u.Setup = ends[0].Sub(start).Seconds()
	for k := 1; k < w.Periods; k++ {
		u.Periods = append(u.Periods, ends[k].Sub(ends[k-1]).Seconds())
		u.Events += events[k]
	}
	u.SteadyWall = ends[last].Sub(ends[0]).Seconds()
	u.SteadyPeriods = float64(last)
	u.CPU = r1.cpu - r0.cpu
	u.Mallocs = r1.mallocs - r0.mallocs
	u.AllocBytes = r1.bytes - r0.bytes
	u.Wall = runEnd.Sub(start).Seconds()

	// Correctness: every instance completed, nothing dead-lettered, the
	// post-phase verification re-derived the warehouse from the generators.
	u.Attempted = res.Stats.Events
	u.Failed = res.Stats.Failures + int(res.Report.DeadLetters)
	if u.Failed > 0 {
		u.Problems = append(u.Problems, fmt.Sprintf("%d failed instances, %d dead letters", res.Stats.Failures, res.Report.DeadLetters))
	}
	if v := res.Stats.Verification; v == nil {
		u.Attempted++
		u.Failed++
		u.Problems = append(u.Problems, "post-phase verification did not run")
	} else {
		for _, c := range v.Checks {
			u.Attempted++
			if !c.OK {
				u.Failed++
				u.Problems = append(u.Problems, "verification: "+c.Name+": "+c.Info)
			}
		}
	}
	u.RawDigest = b.StateDigest()
	u.Digest = canonicalDigest(driver.SnapshotIntegrated(b.Scenario()), b.Monitor().LedgerDigest())

	if traced {
		u.Layers = coreLayers(w, b, res, ends, rec, root)
		u.Spans = rec.spans // so far; a unit killed before Close reports these
	}
	closeFn = func() {
		t0 := time.Now()
		if err := b.Close(); err != nil {
			u.CloseErr = err.Error()
		}
		t1 := time.Now()
		rec.add("Close", t0, t1, root)
		rec.close(root, t1)
		u.CloseS = t1.Sub(t0).Seconds()
		if rec != nil {
			u.Spans = rec.spans
		}
	}
	return u, closeFn, nil
}

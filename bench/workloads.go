package main

import (
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/schedule"
)

// workload is one fixed input set. A workload is measured in units: one
// unit is a complete core.New .. Run .. Close cycle (for tenants-4, a
// complete daemon lifetime) over Periods periods, period 0 being warm-up.
// Units repeat until the run's time budget is spent, so every unit
// contributes one set-up sample and Periods-1 steady period samples, and
// every unit of a (workload, seed) must end in the same state digest.
type workload struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json).
	Why      string
	Engine   string
	Datasize float64
	Dist     string
	Remote   bool
	Periods  int
	// Tenants > 0 runs the unit through an in-process serve.Server with
	// this many tenants (seeds seed..seed+Tenants-1) instead of one core
	// run.
	Tenants    int
	MaxTenants int
}

// workloads is the benchmark's fixed list. Period counts are sized so a
// unit takes 2-5 s on two cores; d, engine and transport are the
// workload's identity and never shrink.
var workloads = []workload{
	{
		Name:   "fed-d005",
		Why:    "federated d=0.05 (paper Fig. 10): ~170 small instances per period, so per-instance overhead (Cm, XML, STX, monitor) dominates and kernels and datagen do almost nothing",
		Engine: core.EngineFederated, Datasize: 0.05, Dist: "uniform", Periods: 100,
	},
	{
		Name:   "fed-d1",
		Why:    "federated d=1 (System A at data-intensive scale): row kernels, full re-extraction and temp-table materialisation; same inputs and digest as pipe-d1",
		Engine: core.EngineFederated, Datasize: 1, Dist: "uniform", Periods: 8,
	},
	{
		Name:   "pipe-d1",
		Why:    "pipeline preset d=1: vectorized kernels, delta extraction and the shared morsel scheduler do the work here and none in fed-*",
		Engine: core.EnginePipeline, Datasize: 1, Dist: "uniform", Periods: 8,
	},
	{
		Name:   "pipe-d1-skew",
		Why:    "pipeline d=1 skewed: datagen costs 20x uniform so the driver's pipelined prepare is the critical path; only workload with skewed join/group keys",
		Engine: core.EnginePipeline, Datasize: 1, Dist: "skewed", Periods: 5,
	},
	{
		Name:   "remote-d025",
		Why:    "pipeline d=0.25 with RemoteDB: every database call is an HTTP round trip with XML result sets, so dbproto/ws/xmlmsg (the paper's Cc) dominate",
		Engine: core.EnginePipeline, Datasize: 0.25, Dist: "uniform", Remote: true, Periods: 8,
	},
	{
		Name:   "tenants-4",
		Why:    "four pipeline d=0.5 tenants on a serve.Server with MaxTenants=2 and a checkpoint at every barrier: the only workload where admission, fair share, wal and checkpoint do work",
		Engine: core.EnginePipeline, Datasize: 0.5, Dist: "uniform", Periods: 5,
		Tenants: 4, MaxTenants: 2,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// coreConfig is the configuration the program under test receives: only
// the workload's identity and the seed.
func (w workload) coreConfig(seed uint64) core.Config {
	return core.Config{
		Datasize:     w.Datasize,
		TimeScale:    1,
		Distribution: w.Dist,
		Periods:      w.Periods,
		Seed:         seed,
		Engine:       w.Engine,
		RemoteDB:     w.Remote,
		FastClock:    true,
		Verify:       true,
	}
}

func (w workload) scale() schedule.ScaleFactors {
	dist, _ := datagen.ParseDistribution(w.Dist)
	return schedule.ScaleFactors{Datasize: w.Datasize, Time: 1, Dist: dist}
}

// Command bench is the repository's benchmark: six fixed workloads, nine
// gated end-to-end metrics plus failed_share, and per-layer attribution
// measured from outside the program. See README.md in this directory.
//
//	go run ./bench                               every workload, untraced + traced
//	go run ./bench -workload pipe-d1 -seed 7     one workload, one seed
//	go run ./bench -aa                           A/A check against the bounds
//	go run ./bench -workload W -seed N -seconds S -trace 0|1
//	                                             one measured run, one JSON line
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// runSeconds is the default measuring time of one run and the
// run_seconds of BENCHMARK.json.
const runSeconds = 15

// holdOutSeed is the documented seed for confirming a claim on inputs
// not used while the change was written.
const holdOutSeed = 7

//go:embed golden.json
var goldenJSON []byte

// runResult is one measured run of one workload: the driver contract's
// result line plus what the parent mode needs for BENCH.json.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Digest    string                 `json:"digest"`
	Units     int                    `json:"units"`
	// Samples is the number of steady period walls behind period_p50_s
	// and TailPct the percentile period_tail_s stands for at that count.
	Samples int     `json:"samples"`
	TailPct float64 `json:"tail_pct"`
	// FloatFlakes counts units (and tenant/solo pairs) whose program-side
	// StateDigest differed although the canonical digest agreed — the
	// float-summation-order nondeterminism of README.md, "Findings". It
	// is reported, not failed.
	FloatFlakes int `json:"float_flakes"`
	// Divergent counts units (and tenant/solo pairs) whose canonical
	// digest differed from the run's — the stream A/B race of the same
	// section. Reported, not failed.
	Divergent int `json:"divergent"`
	// CloseErrors counts units whose Close returned an error (the
	// listener shutdown deadline, same section). Reported, not failed.
	CloseErrors int      `json:"close_errors"`
	Problems    []string `json:"problems,omitempty"`
}

func main() {
	var (
		name     = flag.String("workload", "", "run one workload (default: all, each untraced then traced, in child processes)")
		seed     = flag.Uint64("seed", 42, fmt.Sprintf("input seed (%d is the hold-out seed)", holdOutSeed))
		seconds  = flag.Int("seconds", runSeconds, "measuring time of one run")
		trace    = flag.Int("trace", -1, "with -workload: 0 = untraced run (end-to-end metrics), 1 = traced run (per-layer metrics); prints one JSON result line")
		aa       = flag.Bool("aa", false, "run every workload untraced twice and compare the two sets against the bounds")
		out      = flag.String("out", filepath.Join("bench", "out"), "directory for BENCH.json, span files and scratch data")
		baseline = flag.String("baseline", "", "BENCH json to diff the end-to-end metrics against")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
		unit     = flag.String("unit", "", "internal: run one unit described by this JSON and print its result")
	)
	flag.Parse()
	// The same parallelism everywhere the benchmark runs, so numbers from
	// a larger host stay comparable.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	err := func() error {
		if *manifest {
			return printManifest(os.Stdout)
		}
		if *unit != "" {
			return unitMain(*unit)
		}
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return err
		}
		switch {
		case *aa:
			return runAA(*seed, *seconds, *out)
		case *name != "" && *trace >= 0:
			return runChild(*name, *seed, *seconds, *trace == 1, *out)
		default:
			return runAll(*name, *seed, *seconds, *out, *baseline)
		}
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runChild is the driver contract: measure one workload in this (fresh)
// process and print the result object as the last line of stdout.
func runChild(name string, seed uint64, seconds int, traced bool, out string) error {
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	res, err := measure(w, seed, time.Duration(seconds)*time.Second, traced, out, launchProcess)
	if err != nil {
		return err
	}
	detail, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(detailPath(out, name, traced), detail, 0o644); err != nil {
		return err
	}
	for _, p := range res.Problems {
		fmt.Fprintln(os.Stderr, "bench: FAIL", name+":", p)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: correctness check failed", name)
	}
	return nil
}

func detailPath(out, name string, traced bool) string {
	t := 0
	if traced {
		t = 1
	}
	return filepath.Join(out, fmt.Sprintf("%s.trace%d.json", name, t))
}

// measure runs units of the workload until the time budget is spent,
// checks the outputs and reduces the units to the declared metrics.
//
// An untraced run measures only; a traced run alternates traced and
// untraced units (so tracing overhead is a comparison within one run)
// and then times each layer directly.
func measure(w workload, seed uint64, budget time.Duration, traced bool, out string, launch launcher) (*runResult, error) {
	// At least two units: a traced run needs one of each kind, and the
	// unit digests are compared with each other.
	const minUnits = 2
	var closing []finisher
	defer func() {
		// On an error path no unit process may outlive the run.
		for _, finish := range closing {
			_, _ = finish(false)
		}
	}()
	t0 := time.Now()
	for i := 0; ; i++ {
		// The daemon offers no tracing to switch on: a traced tenants unit
		// differs only in what the harness reads afterwards, so all are.
		finish, err := launch(unitSpec{Workload: w, Seed: seed, Traced: traced && (i%2 == 0 || w.Tenants > 0), Run: i + 1, Out: out})
		if err != nil {
			return nil, fmt.Errorf("%s unit %d: %w", w.Name, i, err)
		}
		closing = append(closing, finish)
		// After the minimum, another unit starts only while half of it
		// still fits.
		elapsed := time.Since(t0)
		if len(closing) >= minUnits && elapsed+elapsed/time.Duration(2*len(closing)) >= budget {
			break
		}
	}

	res := &runResult{Workload: w.Name, Seed: seed, Traced: traced, Units: len(closing)}
	// A traced run reports how long Close took, so it lets the units
	// close; they do that while the direct probes run.
	var probes metricSet
	var spans []span
	if traced {
		rec := &spanRecorder{}
		var err error
		if probes, err = directProbes(w, seed, rec); err != nil {
			return nil, err
		}
		spans = rec.spans
	}
	units := make([]*unitResult, len(closing))
	for i, finish := range closing {
		u, err := finish(traced)
		if err != nil {
			return nil, fmt.Errorf("%s unit %d: %w", w.Name, i, err)
		}
		units[i] = u
		spans = append(spans, u.Spans...)
	}
	want, pinned := goldenDigest(seed, w.Name)
	digests := make([]string, len(units))
	for i, u := range units {
		res.Attempted += u.Attempted
		res.Failed += u.Failed
		res.Problems = append(res.Problems, u.Problems...)
		digests[i] = u.Digest
		if u.RawDigest != units[0].RawDigest {
			res.FloatFlakes++
		}
		if u.CloseErr != "" {
			res.CloseErrors++
		}
	}
	res.Digest, res.Divergent = consensus(digests, want)
	if pinned {
		res.Attempted++
		if res.Digest != want {
			res.Failed++
			res.Problems = append(res.Problems, fmt.Sprintf("digest %s differs from golden %s", res.Digest, want))
		}
	}
	var solo metricSet
	if w.Tenants > 0 {
		if err := res.checkTenantsSolo(w, seed, traced, out, launch, &solo, &spans); err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0

	if !traced {
		res.Metrics = endToEndMetrics(units, res).complete(endToEnd)
		return res, nil
	}
	layers := layerMetrics(units, solo, probes)
	layers["bench.state_divergences"] = float64(res.Divergent)
	layers["bench.float_flakes"] = float64(res.FloatFlakes)
	res.Metrics = layers.complete(perLayer)
	if err := flushSpans(filepath.Join(out, w.Name+".trace.jsonl"), spans); err != nil {
		return nil, err
	}
	return res, nil
}

// consensus reduces the units' digests to the run's. Same seed, same
// inputs: every unit should end in the same state, but the program does
// not quite guarantee that (README.md, "Findings"). So the run's digest
// is, per component (one per tenant; one in all for a core workload),
// the most frequent value — on a tie the golden one if it is among
// them, else the earliest unit's — and every unit component that
// differs from it is counted as divergent: reported, not failed. What
// fails a run is a consensus that differs from a pinned golden digest.
func consensus(digests []string, golden string) (digest string, divergent int) {
	want := strings.Split(golden, ",")
	var parts [][]string
	for _, d := range digests {
		parts = append(parts, strings.Split(d, ","))
	}
	var out []string
	for c := range parts[0] {
		counts := map[string]int{}
		for _, p := range parts {
			counts[p[c]]++
		}
		best := parts[0][c]
		for _, p := range parts {
			if n := counts[p[c]]; n > counts[best] || (n == counts[best] && c < len(want) && p[c] == want[c]) {
				best = p[c]
			}
		}
		out = append(out, best)
		divergent += len(parts) - counts[best]
	}
	return strings.Join(out, ","), divergent
}

// checkTenantsSolo runs every tenant's spec once more as a solo core run
// with the post-phase verification the daemon does not evaluate, which
// must pass. Isolation means the neighbours are invisible in the data,
// so each tenant's digest should equal its solo digest; a difference is
// reported as a divergent state like any other. On a traced run the
// first solo run is traced and supplies the engine-side layer metrics
// the daemon's control plane does not expose.
func (r *runResult) checkTenantsSolo(w workload, seed uint64, traced bool, out string, launch launcher, layers *metricSet, spans *[]span) error {
	digests := strings.Split(r.Digest, ",")
	for t := 0; t < w.Tenants; t++ {
		finish, err := launch(unitSpec{Workload: w, Seed: seed, Traced: traced && t == 0, Run: t, Solo: true, Out: out})
		if err != nil {
			return fmt.Errorf("solo twin of tenant %d: %w", t, err)
		}
		u, err := finish(false) // its Close measures nothing anyone reads
		if err != nil {
			return fmt.Errorf("solo twin of tenant %d: %w", t, err)
		}
		r.Attempted += u.Attempted
		r.Failed += u.Failed
		r.Problems = append(r.Problems, u.Problems...)
		if digests[t] != u.Digest {
			r.Divergent++
		}
		if u.Traced {
			*layers = u.Layers
			*spans = append(*spans, u.Spans...)
		}
	}
	return nil
}

// endToEndMetrics reduces the units of an untraced run. Timings are
// medians over units (set-up, unit wall) or over the pooled steady
// periods; cost rates are per-unit ratios, reduced by the median so one
// disturbed unit does not move them.
func endToEndMetrics(units []*unitResult, res *runResult) metricSet {
	var setup, wall, periods, eps, cpu, allocs, allocMB, rss []float64
	// Close is kept out of the end-to-end metrics. A core unit's comes
	// after its measured window anyway; a tenants unit whose second wave
	// waited behind a blocked Close is left out, unless all were hit.
	clean := units[:0:0]
	for _, u := range units {
		if u.CloseErr == "" {
			clean = append(clean, u)
		}
	}
	if len(clean) > 0 {
		units = clean
	}
	for _, u := range units {
		setup = append(setup, u.Setup)
		wall = append(wall, u.Wall)
		periods = append(periods, u.Periods...)
		eps = append(eps, ratio(float64(u.Events), u.SteadyWall))
		cpu = append(cpu, ratio(u.CPU, u.SteadyPeriods))
		allocs = append(allocs, ratio(u.Mallocs, u.SteadyPeriods))
		allocMB = append(allocMB, ratio(mb(u.AllocBytes), u.SteadyPeriods))
		rss = append(rss, u.PeakRSSMB)
	}
	tailV, tailPct := tail(periods)
	res.Samples, res.TailPct = len(periods), tailPct
	return metricSet{
		"setup_s":             median(setup),
		"run_s":               median(wall),
		"period_p50_s":        median(periods),
		"period_tail_s":       tailV,
		"events_per_s":        median(eps),
		"cpu_s_per_period":    median(cpu),
		"allocs_per_period":   median(allocs),
		"alloc_mb_per_period": median(allocMB),
		"peak_rss_mb":         median(rss),
	}
}

// layerMetrics reduces a traced run: the tenants' solo-twin layers
// first, overlaid by the mean of the traced units' layer sums and the
// direct probes, plus the tracing overhead as the traced units' median
// period against the untraced units' of the same run.
func layerMetrics(units []*unitResult, solo, probes metricSet) metricSet {
	m := metricSet{}
	for k, v := range solo {
		m[k] = v
	}
	var tracedP, untracedP, closeS []float64
	sums := metricSet{}
	n := 0.0
	for _, u := range units {
		if !u.Traced {
			untracedP = append(untracedP, u.Periods...)
			continue
		}
		tracedP = append(tracedP, u.Periods...)
		closeS = append(closeS, u.CloseS)
		if u.CloseErr != "" {
			m["core.close_errors"]++
		}
		for k, v := range u.Layers {
			sums[k] += v
		}
		n++
	}
	for k, v := range sums {
		m[k] = v / n
	}
	for k, v := range probes {
		m[k] = v
	}
	m["core.close_s"] = median(closeS)
	if len(untracedP) > 0 {
		m["bench.trace_overhead_pct"] = 100 * (ratio(median(tracedP), median(untracedP)) - 1)
	}
	return m
}

// goldenDigest returns the pinned digest of a (seed, workload), when one
// is pinned. Other seeds are checked for cross-unit equality only.
func goldenDigest(seed uint64, name string) (string, bool) {
	var golden map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		panic("bench: golden.json: " + err.Error()) // embedded at build time
	}
	d, ok := golden[fmt.Sprint(seed)][name]
	return d, ok
}

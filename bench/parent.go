package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// benchFile is bench/out/BENCH.json and the committed baselines under
// results/.
type benchFile struct {
	Env       benchEnv                  `json:"env"`
	Workloads map[string]*workloadEntry `json:"workloads"`
}

type benchEnv struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
}

type workloadEntry struct {
	Digest      string                 `json:"digest"`
	Units       int                    `json:"units"`
	Samples     int                    `json:"samples"`
	TailPct     float64                `json:"tail_pct"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	FailedShare float64                `json:"failed_share"`
	EndToEnd    map[string]metricValue `json:"end_to_end"`
	PerLayer    map[string]metricValue `json:"per_layer,omitempty"`
}

func currentEnv(seed uint64, seconds int) benchEnv {
	env := benchEnv{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: "unknown", Seed: seed, Seconds: seconds,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				env.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					env.Commit += "+dirty"
				}
			}
		}
	}
	return env
}

// spawn measures one workload in a fresh child process of this binary,
// so peak RSS, GC state and the default scheduler pool never leak from
// one workload into the next.
func spawn(name string, seed uint64, seconds int, traced bool, out string) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if traced {
		t = "1"
	}
	// A result left by an earlier invocation must not pass for this one's.
	_ = os.Remove(detailPath(out, name, traced))
	cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", t, "-out", out)
	cmd.Stdout = io.Discard // the detail file carries everything the line does
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	data, err := os.ReadFile(detailPath(out, name, traced))
	if err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", name, runErr)
		}
		return nil, err
	}
	var res runResult
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// runAll is the one command: every workload (or the named one) untraced
// then traced, every metric printed as "workload name value unit",
// BENCH.json written, non-zero exit on any correctness failure.
func runAll(only string, seed uint64, seconds int, out, baseline string) error {
	list := workloads
	if only != "" {
		w, ok := workloadByName(only)
		if !ok {
			return fmt.Errorf("unknown workload %q", only)
		}
		list = []workload{w}
	}
	file := benchFile{Env: currentEnv(seed, seconds), Workloads: map[string]*workloadEntry{}}
	var problems []string
	for _, w := range list {
		plain, err := spawn(w.Name, seed, seconds, false, out)
		if err != nil {
			return err
		}
		traced, err := spawn(w.Name, seed, seconds, true, out)
		if err != nil {
			return err
		}
		e := &workloadEntry{
			Digest: plain.Digest, Units: plain.Units, Samples: plain.Samples, TailPct: plain.TailPct,
			Attempted: plain.Attempted + traced.Attempted + 1, Failed: plain.Failed + traced.Failed,
			EndToEnd: plain.Metrics, PerLayer: traced.Metrics,
		}
		// The untraced and the traced run saw the same inputs.
		if plain.Digest != traced.Digest {
			e.Failed++
			problems = append(problems, fmt.Sprintf("%s: untraced digest %s != traced digest %s", w.Name, plain.Digest, traced.Digest))
		}
		e.FailedShare = ratio(float64(e.Failed), float64(e.Attempted))
		for _, p := range append(plain.Problems, traced.Problems...) {
			problems = append(problems, w.Name+": "+p)
		}
		file.Workloads[w.Name] = e
		printEntry(w.Name, e)
	}
	// Same inputs through both physical paths: the integrated data and
	// the execution ledger must not depend on the engine.
	if fed, pipe := file.Workloads["fed-d1"], file.Workloads["pipe-d1"]; fed != nil && pipe != nil && fed.Digest != pipe.Digest {
		problems = append(problems, fmt.Sprintf("fed-d1 digest %s != pipe-d1 digest %s", fed.Digest, pipe.Digest))
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(out, "BENCH.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	if baseline != "" {
		if err := diffBaseline(file, baseline); err != nil {
			return err
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("correctness checks failed:\n  %s", strings.Join(problems, "\n  "))
	}
	return nil
}

func printEntry(name string, e *workloadEntry) {
	for _, d := range endToEnd {
		note := ""
		switch d.Name {
		case "period_p50_s":
			note = fmt.Sprintf("  (n=%d, %d units)", e.Samples, e.Units)
		case "period_tail_s":
			note = fmt.Sprintf("  (p%.0f of n=%d)", e.TailPct, e.Samples)
		}
		fmt.Printf("%-13s %-34s %14.6g %s%s\n", name, d.Name, e.EndToEnd[d.Name].Value, d.Unit, note)
	}
	fmt.Printf("%-13s %-34s %14.6g share  (%d of %d)\n", name, "failed_share", e.FailedShare, e.Failed, e.Attempted)
	for _, d := range perLayer {
		fmt.Printf("%-13s %-34s %14.6g %s\n", name, d.Name, e.PerLayer[d.Name].Value, d.Unit)
	}
}

// worsening is how far b is worse than a, as a share of a, in the
// metric's own direction (negative when b is better).
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// diffBaseline prints each end-to-end metric against a committed
// baseline. One run against one run is an indication, not a verdict:
// section 8 of the choosing-metrics method (ten alternating pairs) is
// what accepts or rejects a change.
func diffBaseline(cur benchFile, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base benchFile
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Printf("\nagainst %s (commit %s, seed %d)\n", path, base.Env.Commit, base.Env.Seed)
	for _, w := range workloads {
		b, c := base.Workloads[w.Name], cur.Workloads[w.Name]
		if b == nil || c == nil {
			continue
		}
		for _, d := range endToEnd {
			bv, cv := b.EndToEnd[d.Name].Value, c.EndToEnd[d.Name].Value
			wors := worsening(d, bv, cv)
			verdict := "ok"
			if wors > d.Bound {
				verdict = "WORSE than bound"
			}
			fmt.Printf("%-13s %-22s %12.6g -> %12.6g  %+7.2f%% (bound %4.0f%%)  %s\n",
				w.Name, d.Name, bv, cv, 100*wors, 100*d.Bound, verdict)
		}
	}
	return nil
}

// runAA measures every workload untraced twice with the same binary —
// the second set in reverse order — and checks that the two sets agree
// within each metric's bound. A benchmark that fails its own A/A cannot
// resolve a change of the size of its bounds.
func runAA(seed uint64, seconds int, out string) error {
	sets := [2]map[string]*runResult{{}, {}}
	for s := range sets {
		for i := range workloads {
			w := workloads[i]
			if s == 1 {
				w = workloads[len(workloads)-1-i]
			}
			res, err := spawn(w.Name, seed, seconds, false, out)
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("%s: correctness check failed: %s", w.Name, strings.Join(res.Problems, "; "))
			}
			sets[s][w.Name] = res
		}
	}
	failed := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := sets[0][w.Name].Metrics[d.Name].Value, sets[1][w.Name].Metrics[d.Name].Value
			gap := math.Abs(worsening(d, a, b))
			verdict := "PASS"
			if gap > d.Bound {
				verdict = "FAIL"
				failed++
			}
			fmt.Printf("%-13s %-22s %12.6g %12.6g  gap %6.2f%% (bound %4.0f%%)  %s\n",
				w.Name, d.Name, a, b, 100*gap, 100*d.Bound, verdict)
		}
	}
	if failed > 0 {
		return fmt.Errorf("A/A: %d metric x workload pairs outside their bound", failed)
	}
	return nil
}

// printManifest writes BENCHMARK.json from the tables in this package.
func printManifest(w io.Writer) error {
	type nameWhy struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string  `json:"command"`
		Paths      []string  `json:"paths"`
		RunSeconds int       `json:"run_seconds"`
		Workloads  []nameWhy `json:"workloads"`
		EndToEnd   []e2e     `json:"end_to_end"`
		PerLayer   []layer   `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, wl := range workloads {
		m.Workloads = append(m.Workloads, nameWhy{wl.Name, wl.Why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		return err
	}
	_, err := w.Write(buf.Bytes())
	return err
}

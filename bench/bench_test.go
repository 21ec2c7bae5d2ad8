package main

import (
	"bytes"
	"net/http"
	"os"
	"regexp"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestManifestMatchesHarness pins BENCHMARK.json to the tables in this
// package: the committed file is exactly what -manifest prints, so the
// workload and metric names, units, directions and bounds cannot drift
// apart.
func TestManifestMatchesHarness(t *testing.T) {
	want, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := printManifest(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("BENCHMARK.json differs from `go run ./bench -manifest`:\n%s", got.String())
	}
}

func TestNames(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %s", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	for _, d := range endToEnd {
		check("end-to-end metric", d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, d := range perLayer {
		check("per-layer metric", d.Name)
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}
}

// TestEveryWorkloadEmitsEveryMetric runs each workload, shrunk to d=0.01
// and two periods, through the real measure path with in-process units:
// the untraced run must report exactly the end-to-end table, the traced
// run exactly the per-layer table, and both must pass their own
// correctness checks.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	const seed = 1 // no golden digest is pinned for it
	defer dropIdleConnections()()
	for _, w := range workloads {
		w.Datasize = 0.01
		w.Periods = 2
		for _, traced := range []bool{false, true} {
			res, err := measure(w, seed, 0, traced, t.TempDir(), launchInProcess)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct {
				t.Errorf("%s traced=%v: %v", w.Name, traced, res.Problems)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, d.Name)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, d.Name, v.Value)
				}
			}
		}
	}
}

// dropIdleConnections keeps closing http.DefaultTransport's idle
// connections until the returned stop function is called. Every Close of
// a topology may otherwise wait five seconds on a connection that was
// dialled and never used (README.md, "Findings") — even at d=0.01, and
// inside the tenants daemon where the test cannot reach — which would
// make this package's tests take a minute on an unlucky day. The
// measured benchmark never does this: there the wait is the program's
// and is reported as core.close_s.
func dropIdleConnections() (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				http.DefaultClient.CloseIdleConnections()
			}
		}
	}()
	return func() { close(quit); <-done }
}

func TestConsensus(t *testing.T) {
	for _, c := range []struct {
		digests   []string
		golden    string
		want      string
		divergent int
	}{
		{[]string{"a", "a", "a"}, "", "a", 0},
		{[]string{"a", "b", "a"}, "", "a", 1},
		{[]string{"b", "a"}, "", "b", 1},  // tie, nothing pinned: the earliest
		{[]string{"b", "a"}, "a", "a", 1}, // tie: the golden one
		{[]string{"b", "b", "a"}, "a", "b", 1},
		// Per tenant: two units that each saw another tenant diverge
		// still agree on the golden state.
		{[]string{"x,q", "p,y"}, "p,q", "p,q", 2},
	} {
		got, div := consensus(c.digests, c.golden)
		if got != c.want || div != c.divergent {
			t.Errorf("consensus(%v, %q) = %q, %d; want %q, %d", c.digests, c.golden, got, div, c.want, c.divergent)
		}
	}
}

func TestTailRank(t *testing.T) {
	for _, c := range []struct{ n, rank int }{
		{396, 357}, // capped at p90
		{100, 90},  // p90 either way
		{39, 29},   // p74: ten samples beyond
		{21, 11},   // rank n-10 still above the median
		{20, 10},   // below that the tail is the median
		{8, 4},
		{1, 1},
		{0, 0},
	} {
		if got := tailRank(c.n); got != c.rank {
			t.Errorf("tailRank(%d) = %d, want %d", c.n, got, c.rank)
		}
	}
	xs := make([]float64, 39)
	for i := range xs {
		xs[i] = float64(39 - i) // 39..1, unsorted on purpose
	}
	if v, pct := tail(xs); v != 29 || pct < 74 || pct > 75 {
		t.Errorf("tail of 1..39 = %v at p%.1f, want 29 at p74", v, pct)
	}
}

// TestRoundDecimals covers the one transformation the canonical digest
// adds to core's: summation-order noise disappears, everything else is
// left byte for byte.
func TestRoundDecimals(t *testing.T) {
	for in, want := range map[string]string{
		"2008|10|5000012|3|15307.390000000001": "2008|10|5000012|3|15307.39",
		"2008|10|5000012|3|15307.39":           "2008|10|5000012|3|15307.39",
		"28300.350000000002|x":                 "28300.35|x",
		"-0.30000000000000004":                 "-0.3",
		"2008-05-01|12345678901234|1.5":        "2008-05-01|12345678901234|1.5",
		"v1.2.3":                               "v1.2.3",
	} {
		if got := roundDecimals(in); got != want {
			t.Errorf("roundDecimals(%q) = %q, want %q", in, got, want)
		}
	}
	a := canonicalDigest("x|15307.390000000001", "l")
	b := canonicalDigest("x|15307.39", "l")
	if a != b {
		t.Error("canonical digests of summation-order twins differ")
	}
	if a == canonicalDigest("x|15307.40", "l") {
		t.Error("canonical digest ignores a real difference")
	}
}

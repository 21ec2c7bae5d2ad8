package dipbench

// Smoke tests keeping the runnable examples honest: each example must
// build, run to completion and print its expected signature output.
// Skipped under -short (they shell out to `go build`).

import (
	"context"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// runExample builds the example package args[0] into a temporary
// directory and runs the binary with args[1:]. Running the binary itself,
// not `go run`, means the timeout kills the process doing the work.
func runExample(t *testing.T, timeout time.Duration, args ...string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), filepath.Base(args[0]))
	if out, err := exec.Command("go", "build", "-o", bin, args[0]).CombinedOutput(); err != nil {
		t.Fatalf("build %s: %v\n%s", args[0], err, out)
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	out, err := exec.CommandContext(ctx, bin, args[1:]...).CombinedOutput()
	if ctx.Err() != nil {
		t.Fatalf("example %v timed out after %v", args, timeout)
	}
	if err != nil {
		t.Fatalf("example %v failed: %v\n%s", args, err, out)
	}
	return string(out)
}

func TestExampleQuickstart(t *testing.T) {
	if testing.Short() {
		t.Skip("examples skipped in -short mode")
	}
	out := runExample(t, 2*time.Minute, "./examples/quickstart")
	for _, want := range []string{"DIPBench Performance Report", "PASS", "NAVG+"} {
		if !strings.Contains(out, want) {
			t.Errorf("quickstart output missing %q", want)
		}
	}
	if strings.Contains(out, "FAIL") {
		t.Errorf("quickstart verification failed:\n%s", out)
	}
}

func TestExampleFederated(t *testing.T) {
	if testing.Short() {
		t.Skip("examples skipped in -short mode")
	}
	out := runExample(t, 4*time.Minute, "./examples/federated", "-periods", "1")
	for _, want := range []string{
		"d=0.05", "d=0.1", "observations", "serialized data-intensive",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("federated output missing %q", want)
		}
	}
}

func TestExampleComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("examples skipped in -short mode")
	}
	out := runExample(t, 4*time.Minute, "./examples/comparison", "-d", "0.01", "-periods", "1")
	for _, want := range []string{"federated", "pipeline", "eai", "etl", "wall time per run"} {
		if !strings.Contains(out, want) {
			t.Errorf("comparison output missing %q", want)
		}
	}
}

func TestExampleCustomProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("examples skipped in -short mode")
	}
	out := runExample(t, 2*time.Minute, "./examples/customprocess")
	if !strings.Contains(out, "custom process PX1") || !strings.Contains(out, "PX1") {
		t.Errorf("customprocess output:\n%s", out)
	}
}

func TestExampleWebServices(t *testing.T) {
	if testing.Short() {
		t.Skip("examples skipped in -short mode")
	}
	out := runExample(t, 2*time.Minute, "./examples/webservices")
	for _, want := range []string{
		"application server", "XSD_Beijing", "XSD_Seoul",
		"present in Seoul after exchange: true", "UNION DISTINCT",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("webservices output missing %q", want)
		}
	}
}

// Package exampletest runs an example's entry point in-process for its
// smoke test, so the examples stay honest without building or spawning
// any child process.
package exampletest

import (
	"bytes"
	"io"
	"testing"
	"time"
)

// Run calls run(w, args), skipping under -short, and returns everything
// it wrote. The test fails if run returns an error or is still running
// after timeout.
func Run(t *testing.T, timeout time.Duration, run func(io.Writer, []string) error, args ...string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("examples skipped in -short mode")
	}
	var out bytes.Buffer
	done := make(chan error, 1)
	go func() { done <- run(&out, args) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("example %v failed: %v\n%s", args, err, out.String())
		}
	case <-time.After(timeout):
		// A goroutine cannot be killed; the abandoned example ends when
		// the test binary exits.
		t.Fatalf("example %v timed out after %v", args, timeout)
	}
	return out.String()
}

package main

import (
	"strings"
	"testing"
	"time"

	"repro/examples/internal/exampletest"
)

func TestExampleComparison(t *testing.T) {
	out := exampletest.Run(t, 4*time.Minute, run, "-d", "0.01", "-periods", "1")
	for _, want := range []string{"federated", "pipeline", "eai", "etl", "wall time per run"} {
		if !strings.Contains(out, want) {
			t.Errorf("comparison output missing %q", want)
		}
	}
}

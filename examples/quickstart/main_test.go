package main

import (
	"strings"
	"testing"
	"time"

	"repro/examples/internal/exampletest"
)

func TestExampleQuickstart(t *testing.T) {
	out := exampletest.Run(t, 2*time.Minute, run)
	for _, want := range []string{"DIPBench Performance Report", "PASS", "NAVG+"} {
		if !strings.Contains(out, want) {
			t.Errorf("quickstart output missing %q", want)
		}
	}
	if strings.Contains(out, "FAIL") {
		t.Errorf("quickstart verification failed:\n%s", out)
	}
}

package main

import (
	"strings"
	"testing"
	"time"

	"repro/examples/internal/exampletest"
)

func TestExampleCustomProcess(t *testing.T) {
	out := exampletest.Run(t, 2*time.Minute, run)
	if !strings.Contains(out, "custom process PX1") || !strings.Contains(out, "PX1") {
		t.Errorf("customprocess output:\n%s", out)
	}
}

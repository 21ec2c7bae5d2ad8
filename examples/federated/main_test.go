package main

import (
	"strings"
	"testing"
	"time"

	"repro/examples/internal/exampletest"
)

func TestExampleFederated(t *testing.T) {
	out := exampletest.Run(t, 4*time.Minute, run, "-periods", "1")
	for _, want := range []string{
		"d=0.05", "d=0.1", "observations", "serialized data-intensive",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("federated output missing %q", want)
		}
	}
}

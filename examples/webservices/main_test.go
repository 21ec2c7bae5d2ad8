package main

import (
	"strings"
	"testing"
	"time"

	"repro/examples/internal/exampletest"
)

func TestExampleWebServices(t *testing.T) {
	out := exampletest.Run(t, 2*time.Minute, run)
	for _, want := range []string{
		"application server", "XSD_Beijing", "XSD_Seoul",
		"present in Seoul after exchange: true", "UNION DISTINCT",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("webservices output missing %q", want)
		}
	}
}

package core

import (
	"testing"

	"repro/internal/monitor"
)

// TestEndToEndRemoteDB runs the full benchmark with the database server
// behind the HTTP protocol boundary: every Invoke of every process crosses
// a real network round trip, as in the paper's three-machine setup. The
// functional results must be identical to the in-process run.
func TestEndToEndRemoteDB(t *testing.T) {
	b, err := New(Config{
		Datasize: 0.004, Periods: 1, Seed: 42,
		Engine: EnginePipeline, FastClock: true, Verify: true,
		RemoteDB: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if !b.Scenario().RemoteDB() {
		t.Fatal("remote protocol not active")
	}
	res, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Failures != 0 {
		t.Fatalf("failures: %d", res.Stats.Failures)
	}
	if !res.Stats.Verification.OK() {
		t.Fatalf("verification failed:\n%s", res.Stats.Verification)
	}
	// Communication costs must be visibly higher than in-process: compare
	// the run's total Cc against a local run. The total, not one process's
	// single instance, so a scheduling pause on a loaded host cannot
	// outweigh the network round trips.
	local, err := New(Config{
		Datasize: 0.004, Periods: 1, Seed: 42,
		Engine: EnginePipeline, FastClock: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	lres, err := local.Run()
	if err != nil {
		t.Fatal(err)
	}
	remoteCc, localCc := totalCc(res.Report), totalCc(lres.Report)
	if remoteCc <= localCc {
		t.Errorf("remote Cc %.3f tu not above local %.3f tu", remoteCc, localCc)
	}
}

// totalCc sums the communication cost of every instance in the report.
func totalCc(r *monitor.Report) float64 {
	total := 0.0
	for _, s := range r.Stats {
		total += float64(s.Instances) * s.AvgCc
	}
	return total
}

// TestRemoteAndLocalProduceIdenticalWarehouse compares final warehouse
// contents between the two transport modes.
func TestRemoteAndLocalProduceIdenticalWarehouse(t *testing.T) {
	counts := func(remote bool) (int, int, int) {
		b, err := New(Config{
			Datasize: 0.004, Periods: 1, Seed: 9,
			Engine: EnginePipeline, FastClock: true, RemoteDB: remote,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		if _, err := b.Run(); err != nil {
			t.Fatal(err)
		}
		dwh := b.Scenario().DB("DWH")
		return dwh.MustTable("Orders").Len(), dwh.MustTable("Orderline").Len(),
			dwh.MustTable("Customer").Len()
	}
	lo, ll, lc := counts(false)
	ro, rl, rc := counts(true)
	if lo != ro || ll != rl || lc != rc {
		t.Errorf("transport changes results: local (%d,%d,%d) vs remote (%d,%d,%d)",
			lo, ll, lc, ro, rl, rc)
	}
	if lo == 0 {
		t.Error("empty warehouse")
	}
}

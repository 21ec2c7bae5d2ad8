package core

import (
	"testing"

	"repro/internal/engine"
)

// TestStreamCDParallelStress runs a full verified period with intra-operator
// parallelism forced on (the single-core test machine would otherwise leave
// the presets sequential), exercising the vectorized morsel kernels under
// the real C/D stream workload. Running this test under -race is the
// stress test the parallel layer is gated on.
func TestStreamCDParallelStress(t *testing.T) {
	b, err := New(Config{
		Datasize: 0.02, Periods: 1, Seed: 7,
		Engine: EnginePipeline,
		EngineOptions: &engine.Options{
			PlanCache: true, Parallelism: 4, Columnar: true,
		},
		FastClock: true, Verify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	res, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Failures != 0 {
		t.Errorf("failures: %d", res.Stats.Failures)
	}
	if res.Stats.Verification == nil || !res.Stats.Verification.OK() {
		t.Fatalf("verification:\n%v", res.Stats.Verification)
	}
}

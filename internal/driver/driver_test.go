package driver

import (
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/monitor"
	"repro/internal/processes"
	rel "repro/internal/relational"
	"repro/internal/scenario"
	"repro/internal/schedule"
	"repro/internal/schema"
)

func testScale(d float64) schedule.ScaleFactors {
	return schedule.ScaleFactors{Datasize: d, Time: 1, Dist: datagen.Uniform}
}

type rig struct {
	s   *scenario.Scenario
	eng *engine.Engine
	mon *monitor.Monitor
}

func newRig(t *testing.T, federated bool) *rig {
	t.Helper()
	s, err := scenario.New(scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	mon := monitor.New(1)
	var e *engine.Engine
	if federated {
		e, err = engine.NewFederated(processes.MustNew(), s.Gateway(), mon)
	} else {
		e, err = engine.NewPipeline(processes.MustNew(), s.Gateway(), mon)
	}
	if err != nil {
		t.Fatal(err)
	}
	return &rig{s: s, eng: e, mon: mon}
}

func TestConfigValidation(t *testing.T) {
	r := newRig(t, false)
	bad := []Config{
		{Scale: testScale(0), Periods: 1},
		{Scale: testScale(0.01), Periods: 0},
		{Scale: testScale(0.01), Periods: schedule.Periods + 1},
	}
	for i, cfg := range bad {
		if _, err := NewClient(cfg, r.s, r.eng); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := NewClient(Config{Scale: testScale(0.01), Periods: 1}, nil, r.eng); err == nil {
		t.Error("nil scenario accepted")
	}
	if _, err := NewClient(Config{Scale: testScale(0.01), Periods: 1}, r.s, nil); err == nil {
		t.Error("nil engine accepted")
	}
}

func TestBenchmarkPhases(t *testing.T) {
	// Fig. 6: initialization happens per period; execution produces
	// monitor records; verification runs in the post phase.
	r := newRig(t, false)
	c, err := NewClient(Config{
		Scale: testScale(0.005), Periods: 1, Seed: 3,
		Clock: FastClock{}, Verify: true,
	}, r.s, r.eng)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Periods != 1 || stats.Events == 0 {
		t.Fatalf("stats: %+v", stats)
	}
	if stats.Failures != 0 {
		t.Errorf("failures: %d", stats.Failures)
	}
	if stats.Verification == nil {
		t.Fatal("verification missing")
	}
	if !stats.Verification.OK() {
		t.Fatalf("verification failed:\n%s", stats.Verification)
	}
	if len(r.mon.Records()) != stats.Events {
		t.Errorf("monitor records %d != events %d", len(r.mon.Records()), stats.Events)
	}
}

func TestFullPeriodWithFederatedEngine(t *testing.T) {
	r := newRig(t, true)
	c, err := NewClient(Config{
		Scale: testScale(0.005), Periods: 1, Seed: 3,
		Clock: FastClock{}, Verify: true,
	}, r.s, r.eng)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Failures != 0 {
		t.Errorf("failures: %d", stats.Failures)
	}
	if !stats.Verification.OK() {
		t.Fatalf("verification failed:\n%s", stats.Verification)
	}
}

func TestFullPeriodWithEAIAndETLEngines(t *testing.T) {
	for _, make := range []struct {
		name string
		fn   func(*processes.Definitions, *scenario.Scenario, *monitor.Monitor) (*engine.Engine, error)
	}{
		{"eai", func(d *processes.Definitions, s *scenario.Scenario, m *monitor.Monitor) (*engine.Engine, error) {
			return engine.NewEAI(d, s.Gateway(), m)
		}},
		{"etl", func(d *processes.Definitions, s *scenario.Scenario, m *monitor.Monitor) (*engine.Engine, error) {
			return engine.NewETL(d, s.Gateway(), m)
		}},
	} {
		t.Run(make.name, func(t *testing.T) {
			s, err := scenario.New(scenario.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			mon := monitor.New(1)
			e, err := make.fn(processes.MustNew(), s, mon)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			c, err := NewClient(Config{
				Scale: testScale(0.005), Periods: 1, Seed: 3,
				Clock: FastClock{}, Verify: true,
			}, s, e)
			if err != nil {
				t.Fatal(err)
			}
			stats, err := c.Run()
			if err != nil {
				t.Fatal(err)
			}
			if stats.Failures != 0 {
				t.Errorf("failures: %d", stats.Failures)
			}
			if !stats.Verification.OK() {
				t.Fatalf("verification failed:\n%s", stats.Verification)
			}
		})
	}
}

func TestPeriodStreamOrdering(t *testing.T) {
	// Stream C (P12/P13) must run only after streams A and B completed,
	// and D after C: check via monitor record timestamps.
	r := newRig(t, false)
	c, _ := NewClient(Config{
		Scale: testScale(0.005), Periods: 1, Seed: 3, Clock: FastClock{},
	}, r.s, r.eng)
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	var latestAB, earliestC, latestC, earliestD time.Time
	earliestC = time.Now().Add(time.Hour)
	earliestD = earliestC
	for _, rec := range r.mon.Records() {
		switch rec.Process {
		case "P12", "P13":
			if rec.Start.Before(earliestC) {
				earliestC = rec.Start
			}
			if rec.End.After(latestC) {
				latestC = rec.End
			}
		case "P14", "P15":
			if rec.Start.Before(earliestD) {
				earliestD = rec.Start
			}
		default:
			if rec.End.After(latestAB) {
				latestAB = rec.End
			}
		}
	}
	if earliestC.Before(latestAB) {
		t.Error("stream C started before A/B finished")
	}
	if earliestD.Before(latestC) {
		t.Error("stream D started before C finished")
	}
}

func TestCompletionDependenciesHold(t *testing.T) {
	// tau1 chains within stream B: P05 after all P04, P09 after all P08.
	r := newRig(t, false)
	c, _ := NewClient(Config{
		Scale: testScale(0.005), Periods: 1, Seed: 3, Clock: FastClock{},
	}, r.s, r.eng)
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	var lastP04, firstP05, lastP08, firstP09 time.Time
	firstP05 = time.Now().Add(time.Hour)
	firstP09 = firstP05
	for _, rec := range r.mon.Records() {
		switch rec.Process {
		case "P04":
			if rec.End.After(lastP04) {
				lastP04 = rec.End
			}
		case "P05":
			if rec.Start.Before(firstP05) {
				firstP05 = rec.Start
			}
		case "P08":
			if rec.End.After(lastP08) {
				lastP08 = rec.End
			}
		case "P09":
			if rec.Start.Before(firstP09) {
				firstP09 = rec.Start
			}
		}
	}
	if firstP05.Before(lastP04) {
		t.Error("P05 started before P04 completed")
	}
	if firstP09.Before(lastP08) {
		t.Error("P09 started before P08 completed")
	}
}

func TestMultiplePeriods(t *testing.T) {
	r := newRig(t, false)
	c, _ := NewClient(Config{
		Scale: testScale(0.003), Periods: 3, Seed: 5, Clock: FastClock{}, Verify: true,
	}, r.s, r.eng)
	stats, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Periods != 3 || stats.Failures != 0 {
		t.Fatalf("stats: %+v", stats)
	}
	if !stats.Verification.OK() {
		t.Fatalf("verification failed:\n%s", stats.Verification)
	}
	// Records span all three periods.
	periods := map[int]bool{}
	for _, rec := range r.mon.Records() {
		periods[rec.Period] = true
	}
	if len(periods) != 3 {
		t.Errorf("periods in records: %v", periods)
	}
}

func TestRealClockHonoursSchedule(t *testing.T) {
	// With t very large the run is fast but still real-time paced; with a
	// small period the elapsed time must be at least the last deadline.
	r := newRig(t, false)
	sf := schedule.ScaleFactors{Datasize: 0.001, Time: 100, Dist: datagen.Uniform}
	c, _ := NewClient(Config{Scale: sf, Periods: 1, Seed: 5, Clock: RealClock{}}, r.s, r.eng)
	start := time.Now()
	stats, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The latest deadline in stream B is P10's first event at 3000 tu =
	// 30 ms at t=100.
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Errorf("real clock too fast: %v", elapsed)
	}
	if stats.Failures != 0 {
		t.Errorf("failures: %d", stats.Failures)
	}
}

func TestRunSurvivesExternalSystemFailure(t *testing.T) {
	// Sabotage an external system: dropping the US_Eastcoast tables makes
	// P03 and P11 fail. The run must complete, count the failures, and
	// the failed instances must be visible in the monitor.
	r := newRig(t, false)
	us := r.s.DB(schema.SysUSEastcoast)
	for _, tab := range us.TableNames() {
		if err := us.DropTable(tab); err != nil {
			t.Fatal(err)
		}
	}
	c, _ := NewClient(Config{
		Scale: testScale(0.005), Periods: 1, Seed: 3, Clock: FastClock{},
	}, r.s, r.eng)
	stats, err := c.Run()
	if err != nil {
		t.Fatalf("run aborted instead of recording failures: %v", err)
	}
	if stats.Failures == 0 {
		t.Fatal("sabotage produced no failures")
	}
	failedProcs := map[string]bool{}
	for _, rec := range r.mon.Records() {
		if rec.Err != nil {
			failedProcs[rec.Process] = true
		}
	}
	if !failedProcs["P03"] || !failedProcs["P11"] {
		t.Errorf("expected P03 and P11 failures, got %v", failedProcs)
	}
	// Unrelated streams still succeeded.
	if failedProcs["P07"] || failedProcs["P09"] {
		t.Errorf("unrelated processes failed: %v", failedProcs)
	}
	// The report marks the failures per process type.
	rep := r.mon.Analyze()
	if rep.ByProcess("P03").Failures != 1 {
		t.Errorf("P03 failures: %d", rep.ByProcess("P03").Failures)
	}
}

func TestVerifyDetectsTampering(t *testing.T) {
	r := newRig(t, false)
	c, _ := NewClient(Config{
		Scale: testScale(0.005), Periods: 1, Seed: 3, Clock: FastClock{},
	}, r.s, r.eng)
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	gen := datagen.MustNew(datagen.Config{Seed: 3, Datasize: 0.005, Dist: datagen.Uniform, Period: 0})
	// Unmolested state verifies.
	v := Verify(r.s, gen, testScale(0.005))
	if !v.OK() {
		t.Fatalf("clean state fails verification:\n%s", v)
	}
	// Removing a warehouse order breaks it.
	dwh := r.s.DB(schema.SysDWH)
	ords := dwh.MustTable("Orders").Scan()
	if ords.Len() == 0 {
		t.Fatal("no orders to tamper with")
	}
	if _, err := dwh.MustTable("Orders").Delete(rel.ColEq("Ordkey", ords.Get(0, "Ordkey"))); err != nil {
		t.Fatal(err)
	}
	v = Verify(r.s, gen, testScale(0.005))
	if v.OK() {
		t.Fatal("verification missed the tampering")
	}
	if v.String() == "" {
		t.Error("empty verification report")
	}
}

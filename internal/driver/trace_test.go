package driver

import (
	"strings"
	"testing"

	"repro/internal/schedule"
)

func TestTraceRecordsEveryEvent(t *testing.T) {
	r := newRig(t, false)
	tr := NewTrace()
	c, err := NewClient(Config{
		Scale: testScale(0.005), Periods: 2, Seed: 3, Clock: FastClock{}, Trace: tr,
	}, r.s, r.eng)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != stats.Events {
		t.Fatalf("trace %d events, stats %d", tr.Len(), stats.Events)
	}
	// Per-process counts match the Table II plan.
	plan, _ := schedule.PeriodPlan(0, testScale(0.005))
	wantP04 := plan.CountByProcess()["P04"] * 2 // two periods
	if got := len(tr.ByProcess("P04")); got != wantP04 {
		t.Errorf("P04 trace events: %d, want %d", got, wantP04)
	}
	// No failures recorded.
	for _, e := range tr.Events() {
		if e.Failed {
			t.Fatalf("failed event: %+v", e)
		}
		if e.Completed < e.Dispatched {
			t.Fatalf("completion before dispatch: %+v", e)
		}
	}
	// Both periods appear.
	periods := map[int]bool{}
	for _, e := range tr.Events() {
		periods[e.Period] = true
	}
	if !periods[0] || !periods[1] {
		t.Errorf("periods: %v", periods)
	}
}

func TestTraceRealClockHonoursDeadlines(t *testing.T) {
	r := newRig(t, false)
	tr := NewTrace()
	sf := schedule.ScaleFactors{Datasize: 0.002, Time: 100, Dist: 0}
	c, _ := NewClient(Config{Scale: sf, Periods: 1, Seed: 3, Clock: RealClock{}, Trace: tr}, r.s, r.eng)
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	// Every timed event dispatched at or after its scheduled deadline.
	for _, e := range tr.Events() {
		deadline := sf.TU(e.ScheduledTU)
		if e.Dispatched < deadline {
			t.Fatalf("%s[%d] dispatched at %v before deadline %v", e.Process, e.Seq, e.Dispatched, deadline)
		}
	}
	// The schedule guarantees "not before the deadline", not a total
	// dispatch order between events whose deadlines are microseconds
	// apart (goroutine wake-up jitter); ordering is only required across
	// comfortably separated deadlines. Check it for P04 events at least
	// 10 tu (100 ms / t=100 -> 1 ms) apart.
	p04 := tr.ByProcess("P04")
	for i := 0; i < len(p04); i++ {
		for j := 0; j < len(p04); j++ {
			if p04[j].ScheduledTU >= p04[i].ScheduledTU+100 && p04[j].Dispatched < p04[i].Dispatched {
				t.Fatalf("P04 seq %d (deadline %g tu) dispatched before seq %d (deadline %g tu)",
					p04[j].Seq, p04[j].ScheduledTU, p04[i].Seq, p04[i].ScheduledTU)
			}
		}
	}
}

func TestTraceCSV(t *testing.T) {
	tr := NewTrace()
	tr.add(TraceEvent{Period: 0, Process: "P04", Seq: 1, ScheduledTU: 2})
	tr.add(TraceEvent{Period: 0, Process: "P10", Seq: 0, ScheduledTU: 3000, Failed: true})
	var b strings.Builder
	if err := tr.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "P04,1,2.00") || !strings.Contains(out, ",1\n") {
		t.Errorf("csv: %s", out)
	}
}

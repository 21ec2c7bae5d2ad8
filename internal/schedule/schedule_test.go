package schedule

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/datagen"
)

func sf(d, t float64) ScaleFactors {
	return ScaleFactors{Datasize: d, Time: t, Dist: datagen.Uniform}
}

func TestScaleFactorValidation(t *testing.T) {
	if err := sf(0.05, 1).Validate(); err != nil {
		t.Errorf("valid factors rejected: %v", err)
	}
	if err := sf(0, 1).Validate(); err == nil {
		t.Error("zero datasize accepted")
	}
	if err := sf(0.05, 0).Validate(); err == nil {
		t.Error("zero time accepted")
	}
	if _, err := PeriodPlan(0, sf(-1, 1)); err == nil {
		t.Error("PeriodPlan with bad factors")
	}
}

func TestTUConversion(t *testing.T) {
	// 1 tu = 1/t ms.
	if got := sf(1, 1).TU(5); got != 5*time.Millisecond {
		t.Errorf("t=1: %v", got)
	}
	if got := sf(1, 2).TU(5); got != 2500*time.Microsecond {
		t.Errorf("t=2: %v", got)
	}
	if got := sf(1, 0.5).TU(1); got != 2*time.Millisecond {
		t.Errorf("t=0.5: %v", got)
	}
}

func TestTableII_EventCounts(t *testing.T) {
	d := 0.05
	// P04: 1100*d+1 = 56; P08: 900*d+1 = 46; P10: 1050*d+1 = 53.
	if got := CountP04(d); got != 56 {
		t.Errorf("P04 count: %d", got)
	}
	if got := CountP08(d); got != 46 {
		t.Errorf("P08 count: %d", got)
	}
	if got := CountP10(d); got != 53 {
		t.Errorf("P10 count: %d", got)
	}
	// P01 decreases with k: (100-k)*d+1.
	if got := CountP01(0, d); got != 6 {
		t.Errorf("P01 count at k=0: %d", got)
	}
	if got := CountP01(99, d); got != 1 {
		t.Errorf("P01 count at k=99: %d", got)
	}
}

func TestTableII_P01DecreasesMonotonically(t *testing.T) {
	f := func(dRaw uint8) bool {
		d := float64(dRaw%100+1) / 100
		prev := CountP01(0, d)
		for k := 1; k < Periods; k++ {
			cur := CountP01(k, d)
			if cur > prev || cur < 1 {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTableII_PlanStructure(t *testing.T) {
	p, err := PeriodPlan(0, sf(0.05, 1))
	if err != nil {
		t.Fatal(err)
	}
	counts := p.CountByProcess()
	want := map[string]int{
		"P01": 6, "P02": 6, "P03": 1,
		"P04": 56, "P05": 1, "P06": 1, "P07": 1,
		"P08": 46, "P09": 1, "P10": 53, "P11": 1,
		"P12": 1, "P13": 1, "P14": 1, "P15": 1,
	}
	for id, n := range want {
		if counts[id] != n {
			t.Errorf("%s instances: %d, want %d", id, counts[id], n)
		}
	}
	if p.TotalEvents() != 6+6+1+56+3+46+1+53+1+2+2 {
		t.Errorf("total events: %d", p.TotalEvents())
	}
}

func TestTableII_Deadlines(t *testing.T) {
	p, _ := PeriodPlan(0, sf(0.05, 1))
	// P04 events every 2 tu from 0.
	var p04 []Instance
	for _, in := range p.Instances {
		if in.Process == "P04" {
			p04 = append(p04, in)
		}
	}
	for i, in := range p04 {
		if in.OffsetTU != 2*float64(i) || in.Seq != i {
			t.Fatalf("P04[%d]: offset %g seq %d", i, in.OffsetTU, in.Seq)
		}
	}
	// P08 starts at +2000 tu, every 3 tu.
	for _, in := range p.Instances {
		switch in.Process {
		case "P08":
			if in.OffsetTU != 2000+3*float64(in.Seq) {
				t.Fatalf("P08[%d]: offset %g", in.Seq, in.OffsetTU)
			}
		case "P10":
			if in.OffsetTU != 3000+2.5*float64(in.Seq) {
				t.Fatalf("P10[%d]: offset %g", in.Seq, in.OffsetTU)
			}
		case "P02":
			// P02 at 2m interleaves with P01 at 2(m-1).
			if in.OffsetTU != 2*float64(in.Seq+1) {
				t.Fatalf("P02[%d]: offset %g", in.Seq, in.OffsetTU)
			}
		case "P13":
			if in.OffsetTU != 10 {
				t.Fatalf("P13 offset %g", in.OffsetTU)
			}
		}
	}
}

func TestTableII_CompletionDependencies(t *testing.T) {
	p, _ := PeriodPlan(0, sf(0.05, 1))
	deps := map[string][]string{}
	for _, in := range p.Instances {
		if len(in.AfterAll) > 0 {
			deps[in.Process] = in.AfterAll
		}
	}
	wants := map[string][]string{
		"P03": {"P01", "P02"},
		"P05": {"P04", "P02"},
		"P06": {"P05"},
		"P07": {"P06"},
		"P09": {"P08", "P01"},
		"P11": {"P07", "P09", "P10", "P03"},
		"P13": {"P12"},
		"P15": {"P14"},
	}
	for id, want := range wants {
		got := deps[id]
		if len(got) != len(want) {
			t.Errorf("%s deps: %v, want %v", id, got, want)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s deps: %v, want %v", id, got, want)
			}
		}
	}
}

func TestStreamsAssignment(t *testing.T) {
	p, _ := PeriodPlan(0, sf(0.05, 1))
	streamOf := map[string]Stream{
		"P01": StreamA, "P02": StreamA, "P03": StreamA,
		"P04": StreamB, "P05": StreamB, "P06": StreamB, "P07": StreamB,
		"P08": StreamB, "P09": StreamB, "P10": StreamB, "P11": StreamB,
		"P12": StreamC, "P13": StreamC,
		"P14": StreamD, "P15": StreamD,
	}
	for _, in := range p.Instances {
		if in.Stream != streamOf[in.Process] {
			t.Errorf("%s in stream %s, want %s", in.Process, in.Stream, streamOf[in.Process])
		}
	}
	if len(p.ByStream(StreamC)) != 2 || len(p.ByStream(StreamD)) != 2 {
		t.Error("ByStream")
	}
	if StreamA.String() != "A" || Stream(9).String() != "?" {
		t.Error("Stream.String")
	}
}

func TestPeriodPlanRangeChecks(t *testing.T) {
	if _, err := PeriodPlan(-1, sf(0.05, 1)); err == nil {
		t.Error("negative period accepted")
	}
	if _, err := PeriodPlan(Periods, sf(0.05, 1)); err == nil {
		t.Error("period == Periods accepted")
	}
}

func TestDatasizeScalesEventCountsProperty(t *testing.T) {
	// Scaling d up never decreases any per-period event count.
	f := func(raw uint8) bool {
		d1 := float64(raw%50+1) / 100
		d2 := d1 * 2
		return CountP04(d2) >= CountP04(d1) &&
			CountP08(d2) >= CountP08(d1) &&
			CountP10(d2) >= CountP10(d1) &&
			CountP01(10, d2) >= CountP01(10, d1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFig8Left(t *testing.T) {
	series := Fig8Left(0.05)
	if len(series) != Periods {
		t.Fatalf("series length: %d", len(series))
	}
	if series[0] != 6 || series[99] != 1 {
		t.Errorf("endpoints: %d, %d", series[0], series[99])
	}
	// Strictly non-increasing (Fig. 8 left shows a decreasing staircase).
	for k := 1; k < Periods; k++ {
		if series[k] > series[k-1] {
			t.Fatalf("series increases at %d", k)
		}
	}
}

func TestFig8Right(t *testing.T) {
	// An increasing t* reduces the interval between successive events.
	slow := Fig8Right(1, 5)
	fast := Fig8Right(2, 5)
	if slow[1]-slow[0] != 2*time.Millisecond {
		t.Errorf("t=1 interval: %v", slow[1]-slow[0])
	}
	if fast[1]-fast[0] != time.Millisecond {
		t.Errorf("t=2 interval: %v", fast[1]-fast[0])
	}
	for i := range fast {
		if fast[i] > slow[i] {
			t.Fatal("larger t must compress the schedule")
		}
	}
}

// Package schedule implements the DIPBench execution schedule: the
// benchmark scheduling series of Table II, the four streams of a benchmark
// period (Fig. 7) and the three scale factors datasize (d), time (t) and
// distribution (f), including the Fig. 8 series showing their impact.
//
// The benchmark execution (phase "work") comprises 100 periods
// 0 <= k <= 99. Each period uninitializes all external systems,
// initializes the source systems and runs four streams: A and B are
// concurrent; C and then D are serialized afterwards to ensure correct
// results.
package schedule

import (
	"fmt"
	"math"
	"time"

	"repro/internal/datagen"
)

// Stream identifies one of the four per-period streams.
type Stream uint8

// Streams in execution order; A and B run concurrently.
const (
	StreamA Stream = iota // source system management
	StreamB               // data consolidation
	StreamC               // data warehouse update
	StreamD               // data mart update
)

// String names the stream.
func (s Stream) String() string {
	switch s {
	case StreamA:
		return "A"
	case StreamB:
		return "B"
	case StreamC:
		return "C"
	case StreamD:
		return "D"
	default:
		return "?"
	}
}

// Periods is the number of benchmark periods of a full run.
const Periods = 100

// ScaleFactors bundles the three scale factors of the benchmark's
// three-dimensional scale space.
type ScaleFactors struct {
	// Datasize d scales dataset sizes and E1 event counts.
	Datasize float64
	// Time t compresses the schedule: 1 tu = 1/t milliseconds.
	Time float64
	// Dist f selects the source-data value distribution.
	Dist datagen.Distribution
}

// Validate checks the scale factors.
func (s ScaleFactors) Validate() error {
	if s.Datasize <= 0 {
		return fmt.Errorf("schedule: datasize scale factor must be positive, got %g", s.Datasize)
	}
	if s.Time <= 0 {
		return fmt.Errorf("schedule: time scale factor must be positive, got %g", s.Time)
	}
	return nil
}

// TU converts abstract time units to wall-clock duration: 1 tu = 1/t ms.
func (s ScaleFactors) TU(tu float64) time.Duration {
	return time.Duration(tu / s.Time * float64(time.Millisecond))
}

// Event counts per period (Table II ranges). The m upper bounds follow the
// paper: P04 has 1100*d+1 events, P08 900*d+1, P10 1050*d+1; P01 and P02
// decrease linearly over the periods with (100-k)*d (Fig. 8 left),
// modelling "a realistic scaling of master data management".

// CountP01 is the number of P01 instances in period k.
func CountP01(k int, d float64) int {
	return int(math.Floor(float64(Periods-k)*d)) + 1
}

// CountP02 is the number of P02 instances in period k.
func CountP02(k int, d float64) int { return CountP01(k, d) }

// CountP04 is the number of P04 instances per period.
func CountP04(d float64) int { return int(math.Floor(1100*d)) + 1 }

// CountP08 is the number of P08 instances per period.
func CountP08(d float64) int { return int(math.Floor(900*d)) + 1 }

// CountP10 is the number of P10 instances per period.
func CountP10(d float64) int { return int(math.Floor(1050*d)) + 1 }

// Instance is one scheduled process-initiating event: the process type,
// the instance sequence number (message index for E1), the earliest start
// offset in tu relative to the stream start, and the completion
// dependencies that must be satisfied first.
type Instance struct {
	Process string
	Stream  Stream
	// Seq numbers the instances of one process type within the period,
	// starting at 0; E1 message generation is keyed by it.
	Seq int
	// OffsetTU is the scheduled deadline, in tu from the stream start.
	OffsetTU float64
	// AfterAll lists process type IDs whose every instance of this period
	// must complete before this instance may start (the tau_1 completion
	// triggers of Table II).
	AfterAll []string
}

// Plan is the full event schedule of one benchmark period.
type Plan struct {
	Period    int
	Instances []Instance
}

// PeriodPlan generates the Table II schedule of period k.
//
// Table II (with the OCR-damaged P01/P02 bounds reconstructed per Fig. 8,
// see DESIGN.md):
//
//	A P01: T0(A) + 2(m-1),        1 <= m <= (100-k)*d + 1
//	A P02: T0(A) + 2m,            1 <= m <= (100-k)*d + 1
//	A P03: tau1(P01) ^ tau1(P02)
//	B P04: T0(B) + 2(m-1),        1 <= m <= 1100*d + 1
//	B P05: tau1(P04)   [data-ready also after P02]
//	B P06: tau1(P05)
//	B P07: tau1(P06)
//	B P08: T0(B) + 2000 + 3(m-1), 1 <= m <= 900*d + 1
//	B P09: tau1(P08)   [data-ready also after P01]
//	B P10: T0(B) + 3000 + 2.5(m-1), 1 <= m <= 1050*d + 1
//	B P11: tau1(B)   [after P09 and P10; data-ready also after P03]
//	C P12: T0(C)
//	C P13: T0(C) + 10  [and after P12 — stream C is serialized]
//	D P14: T0(D)
//	D P15: tau1(P14)
func PeriodPlan(k int, sf ScaleFactors) (*Plan, error) {
	if err := sf.Validate(); err != nil {
		return nil, err
	}
	if k < 0 || k >= Periods {
		return nil, fmt.Errorf("schedule: period %d out of range [0,%d)", k, Periods)
	}
	// Instance counts are closed-form in (k, d); size the plan exactly so
	// the per-period hot path of the driver allocates once.
	nA := CountP01(k, sf.Datasize)
	total := 2*nA + 1 + // P01, P02, P03
		CountP04(sf.Datasize) + 3 + // P04, P05..P07
		CountP08(sf.Datasize) + 1 + // P08, P09
		CountP10(sf.Datasize) + 1 + // P10, P11
		2 + 2 // P12, P13; P14, P15
	p := &Plan{Period: k, Instances: make([]Instance, 0, total)}
	add := func(in Instance) { p.Instances = append(p.Instances, in) }

	// Stream A.
	for m := 1; m <= nA; m++ {
		add(Instance{Process: "P01", Stream: StreamA, Seq: m - 1, OffsetTU: 2 * float64(m-1)})
	}
	for m := 1; m <= CountP02(k, sf.Datasize); m++ {
		add(Instance{Process: "P02", Stream: StreamA, Seq: m - 1, OffsetTU: 2 * float64(m)})
	}
	add(Instance{Process: "P03", Stream: StreamA, AfterAll: []string{"P01", "P02"}})

	// Stream B. The regional time shifts (P08 at +2000 tu, P10 at
	// +3000 tu) model business hours that overlap across the regions.
	for m := 1; m <= CountP04(sf.Datasize); m++ {
		add(Instance{Process: "P04", Stream: StreamB, Seq: m - 1, OffsetTU: 2 * float64(m-1)})
	}
	// The extractions read sources that stream A writes: P02's master
	// data lands in Berlin/Paris and Trondheim (P05..P07), P01's in Seoul
	// (P09). On the real clock the offsets put those writes long before
	// the reads; the data-ready edges keep that order when the fast clock
	// collapses every offset to zero.
	add(Instance{Process: "P05", Stream: StreamB, AfterAll: []string{"P04", "P02"}})
	add(Instance{Process: "P06", Stream: StreamB, AfterAll: []string{"P05"}})
	add(Instance{Process: "P07", Stream: StreamB, AfterAll: []string{"P06"}})
	for m := 1; m <= CountP08(sf.Datasize); m++ {
		add(Instance{Process: "P08", Stream: StreamB, Seq: m - 1, OffsetTU: 2000 + 3*float64(m-1)})
	}
	add(Instance{Process: "P09", Stream: StreamB, AfterAll: []string{"P08", "P01"}})
	for m := 1; m <= CountP10(sf.Datasize); m++ {
		add(Instance{Process: "P10", Stream: StreamB, Seq: m - 1, OffsetTU: 3000 + 2.5*float64(m-1)})
	}
	// P11 ships US_Eastcoast (filled by P03 in stream A) to the CDB; it
	// closes stream B after the message streams and extractions are done.
	add(Instance{Process: "P11", Stream: StreamB,
		AfterAll: []string{"P07", "P09", "P10", "P03"}})

	// Stream C (starts after A and B complete; the driver enforces the
	// stream barrier).
	add(Instance{Process: "P12", Stream: StreamC})
	add(Instance{Process: "P13", Stream: StreamC, OffsetTU: 10, AfterAll: []string{"P12"}})

	// Stream D (starts after C completes).
	add(Instance{Process: "P14", Stream: StreamD})
	add(Instance{Process: "P15", Stream: StreamD, AfterAll: []string{"P14"}})

	return p, nil
}

// processTypes is the number of distinct process types a plan can contain.
const processTypes = 15

// CountByProcess tallies the plan's instances per process type.
func (p *Plan) CountByProcess() map[string]int {
	counts := make(map[string]int, processTypes)
	for _, in := range p.Instances {
		counts[in.Process]++
	}
	return counts
}

// ByStream returns the plan's instances of one stream, in schedule order.
// Two passes — count, then fill — allocate the result exactly once.
func (p *Plan) ByStream(s Stream) []Instance {
	n := 0
	for _, in := range p.Instances {
		if in.Stream == s {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]Instance, 0, n)
	for _, in := range p.Instances {
		if in.Stream == s {
			out = append(out, in)
		}
	}
	return out
}

// TotalEvents returns the number of scheduled instances in the plan.
func (p *Plan) TotalEvents() int { return len(p.Instances) }

// Fig8Left reproduces the left plot of Fig. 8: the number of executed P01
// process instances per benchmark period for a given datasize d.
func Fig8Left(d float64) []int {
	out := make([]int, Periods)
	for k := 0; k < Periods; k++ {
		out[k] = CountP01(k, d)
	}
	return out
}

// Fig8Right reproduces the right plot of Fig. 8: the wall-clock times of
// the first n P01 schedule events under time scale factor t. An
// increasing t reduces the interval between successive events.
func Fig8Right(t float64, n int) []time.Duration {
	sf := ScaleFactors{Datasize: 1, Time: t}
	out := make([]time.Duration, n)
	for m := 1; m <= n; m++ {
		out[m-1] = sf.TU(2 * float64(m-1))
	}
	return out
}

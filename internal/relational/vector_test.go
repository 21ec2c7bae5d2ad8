package relational

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// The vectorized kernels carry the same hard contract as the parallel
// ones: for every input, XxxVec must return the same rows, in the same
// order, with the same float bits, as the sequential row kernel — whether
// it ran columnar or fell back. These tests sweep input shapes across the
// vectorization threshold and the morsel boundary, drive every compiler
// path of vecpred.go, and pin the documented fallbacks.

// vectorSizes crosses the interesting shapes: below the vectorization
// threshold, between threshold and morsel size, exact boundaries, and
// multi-morsel.
var vectorSizes = []int{0, 1, vecMinRows - 1, vecMinRows, 1000, morselSize, morselSize + 1, 2*morselSize + 33}

var vectorDegrees = []int{1, 4}

// randVecRelation extends randMixed's shape with the remaining columnar
// types (BOOLEAN, TIMESTAMP) plus adversarial floats (NaN, ±Inf, -0).
func randVecRelation(rng *rand.Rand, n int, nullFrac float64) *Relation {
	s := MustSchema([]Column{
		Col("K", TypeInt),
		{Name: "G", Type: TypeInt, Nullable: true},
		{Name: "F", Type: TypeFloat, Nullable: true},
		Col("S", TypeString),
		{Name: "B", Type: TypeBool, Nullable: true},
		{Name: "T", Type: TypeTime, Nullable: true},
	})
	base := time.Date(2006, 1, 2, 15, 4, 5, 0, time.UTC)
	weird := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0}
	rows := make([]Row, n)
	for i := range rows {
		g, f, b, ts := Null, Null, Null, Null
		if rng.Float64() >= nullFrac {
			g = NewInt(int64(rng.Intn(40)))
		}
		if rng.Float64() >= nullFrac {
			if rng.Intn(10) == 0 {
				f = NewFloat(weird[rng.Intn(len(weird))])
			} else {
				f = NewFloat(rng.NormFloat64() * 100)
			}
		}
		if rng.Float64() >= nullFrac {
			b = NewBool(rng.Intn(2) == 0)
		}
		if rng.Float64() >= nullFrac {
			ts = NewTime(base.Add(time.Duration(rng.Intn(1000)) * time.Hour))
		}
		rows[i] = Row{
			NewInt(int64(rng.Intn(n/2 + 16))),
			g, f,
			NewString(fmt.Sprintf("s%02d", rng.Intn(25))),
			b, ts,
		}
	}
	return MustRelation(s, rows)
}

// vecPreds covers every compilable node kind: typed comparisons, mixed
// numeric promotion, column-vs-column, AND/OR trees, the OR-of-equals
// IN-list fast path, NOT over 3VL-collapsed leaves, NULL tests, LIKE,
// and constants.
func vecPreds(n int) map[string]Predicate {
	return map[string]Predicate{
		"int-lt":    Cmp("K", OpLt, NewInt(int64(n/4+8))),
		"int-ne":    Cmp("G", OpNe, NewInt(7)),
		"str-ge":    Cmp("S", OpGe, NewString("s12")),
		"float-gt":  Cmp("F", OpGt, NewFloat(-25)),
		"mixed-num": Cmp("F", OpLe, NewInt(10)),
		"int-float": Cmp("K", OpGt, NewFloat(3.5)),
		"bool-eq":   ColEq("B", NewBool(true)),
		"time-lt":   Cmp("T", OpLt, NewTime(time.Date(2006, 2, 1, 0, 0, 0, 0, time.UTC))),
		"col-col":   CmpCols("K", OpGt, "G"),
		"col-col-f": CmpCols("F", OpLe, "K"),
		"and": And(Cmp("K", OpGe, NewInt(4)),
			Cmp("S", OpLt, NewString("s20"))),
		"or": Or(Cmp("K", OpLt, NewInt(3)),
			Cmp("F", OpGt, NewFloat(120))),
		"inlist-int": Or(ColEq("G", NewInt(1)), ColEq("G", NewInt(5)),
			ColEq("G", NewInt(11)), ColEq("G", NewInt(33))),
		"inlist-str": Or(ColEq("S", NewString("s01")), ColEq("S", NewString("s07")),
			ColEq("S", NewString("s23"))),
		"not":       Not(Cmp("F", OpGt, NewFloat(0))),
		"not-null":  Not(IsNull("F")),
		"is-null":   IsNull("G"),
		"like":      Like("S", "s1%"),
		"like-int":  Like("K", "1%"), // non-string column: constant false
		"true":      True(),
		"and-empty": And(),
		"or-empty":  Or(),
		"nested": And(Or(Cmp("K", OpLt, NewInt(40)), IsNull("B")),
			Not(And(ColEq("S", NewString("s03")), Cmp("G", OpGe, NewInt(20))))),
		"type-mismatch": Cmp("S", OpLt, NewInt(5)), // string col vs int constant
	}
}

func TestFilterVecMatchesSelect(t *testing.T) {
	withWorkers(t, 8, func() {
		for _, n := range vectorSizes {
			r := randVecRelation(rand.New(rand.NewSource(int64(n)+11)), n, 0.3)
			for name, pred := range vecPreds(n) {
				seq, err := r.Select(pred)
				if err != nil {
					t.Fatalf("n=%d %s: Select: %v", n, name, err)
				}
				for _, par := range vectorDegrees {
					got, layout, err := r.FilterVec(par, pred)
					if err != nil {
						t.Fatalf("n=%d par=%d %s: FilterVec: %v", n, par, name, err)
					}
					if n >= vecMinRows && layout != LayoutColumnar {
						t.Fatalf("n=%d par=%d %s: layout = %v, want COLUMNAR", n, par, name, layout)
					}
					if n < vecMinRows && layout != LayoutRow {
						t.Fatalf("n=%d par=%d %s: layout = %v, want ROW below threshold", n, par, name, layout)
					}
					sameRelation(t, fmt.Sprintf("n=%d par=%d FilterVec(%s)", n, par, name), seq, got)
				}
			}
		}
	})
}

// TestFilterVecUncompilableFallsBack pins the fallback contract: a
// predicate the compiler cannot express (an opaque funcPred) must run the
// row kernel — identical output, identical errors, LayoutRow reported.
func TestFilterVecUncompilableFallsBack(t *testing.T) {
	r := randVecRelation(rand.New(rand.NewSource(3)), morselSize+100, 0.2)
	pred := PredicateFunc("odd K", func(_ *Schema, row Row) (bool, error) {
		return row[0].Int()%2 == 1, nil
	})
	seq, err := r.Select(pred)
	if err != nil {
		t.Fatal(err)
	}
	got, layout, err := r.FilterVec(4, pred)
	if err != nil {
		t.Fatal(err)
	}
	if layout != LayoutRow {
		t.Fatalf("funcPred layout = %v, want ROW", layout)
	}
	sameRelation(t, "FilterVec(funcPred)", seq, got)

	// Error identity: the row fallback must surface the globally first
	// error exactly as the sequential kernel does.
	fp := failingPred{trigger: 5}
	_, seqErr := r.Select(fp)
	_, _, vecErr := r.FilterVec(4, fp)
	if seqErr == nil || vecErr == nil || seqErr.Error() != vecErr.Error() {
		t.Fatalf("error mismatch: seq %v, vec %v", seqErr, vecErr)
	}
	// Unknown column: compilable node kind, unknown ordinal.
	if _, _, err := r.FilterVec(4, ColEq("Nope", NewInt(1))); err == nil {
		t.Fatal("FilterVec over unknown column did not fail")
	}
}

func TestProjectExtendVecMatchRow(t *testing.T) {
	withWorkers(t, 8, func() {
		for _, n := range vectorSizes {
			r := randVecRelation(rand.New(rand.NewSource(int64(n)+29)), n, 0.3)
			for _, par := range vectorDegrees {
				tag := fmt.Sprintf("n=%d par=%d", n, par)
				seq, err1 := r.Project("S", "K", "F")
				got, layout, err2 := r.ProjectVec(par, "S", "K", "F")
				if err1 != nil || err2 != nil {
					t.Fatalf("%s Project: %v / %v", tag, err1, err2)
				}
				if n >= vecMinRows && layout != LayoutColumnar {
					t.Fatalf("%s ProjectVec layout = %v", tag, layout)
				}
				sameRelation(t, tag+" ProjectVec", seq, got)
			}
		}
		// Unknown projection column: same error behavior as the row kernel.
		r := randVecRelation(rand.New(rand.NewSource(1)), vecMinRows, 0)
		if _, _, err := r.ProjectVec(2, "Nope"); err == nil {
			t.Fatal("ProjectVec of unknown column did not fail")
		}
	})
}

func TestHashJoinVecMatchesJoin(t *testing.T) {
	withWorkers(t, 8, func() {
		for _, n := range vectorSizes {
			rng := rand.New(rand.NewSource(int64(n) + 47))
			r := randVecRelation(rng, n, 0.3)
			// Right sides keyed by each eligible type, with duplicate keys
			// and NULLs on both sides.
			mkRight := func(col Column, gen func(i int) Value) *Relation {
				rows := make([]Row, n/3+7)
				for i := range rows {
					k := Null
					if rng.Float64() >= 0.15 {
						k = gen(i)
					}
					rows[i] = Row{k, NewInt(int64(i))}
				}
				s := MustSchema([]Column{col, Col("Pay", TypeInt)})
				return MustRelation(s, rows)
			}
			intRight := mkRight(Column{Name: "RK", Type: TypeInt, Nullable: true},
				func(int) Value { return NewInt(int64(rng.Intn(n/2 + 16))) })
			strRight := mkRight(Column{Name: "RS", Type: TypeString, Nullable: true},
				func(int) Value { return NewString(fmt.Sprintf("s%02d", rng.Intn(25))) })
			for _, par := range vectorDegrees {
				tag := fmt.Sprintf("n=%d par=%d", n, par)

				seq, err1 := r.Join(intRight, "K", "RK", "r_")
				got, layout, err2 := r.HashJoinVec(par, intRight, "K", "RK", "r_")
				if err1 != nil || err2 != nil {
					t.Fatalf("%s int join: %v / %v", tag, err1, err2)
				}
				if n >= vecMinRows && layout != LayoutColumnar {
					t.Fatalf("%s int join layout = %v", tag, layout)
				}
				sameRelation(t, tag+" HashJoinVec(int)", seq, got)

				seq, err1 = r.Join(strRight, "S", "RS", "r_")
				got, layout, err2 = r.HashJoinVec(par, strRight, "S", "RS", "r_")
				if err1 != nil || err2 != nil {
					t.Fatalf("%s str join: %v / %v", tag, err1, err2)
				}
				if n >= vecMinRows && layout != LayoutColumnar {
					t.Fatalf("%s str join layout = %v", tag, layout)
				}
				sameRelation(t, tag+" HashJoinVec(str)", seq, got)
			}
		}
	})
}

// TestHashJoinVecFloatKeyFallsBack: float keys have no typed table (NaN
// and ±0 equality under Compare diverge from raw-bits map keys), so the
// kernel must run the row join and say so.
func TestHashJoinVecFloatKeyFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := vecMinRows * 2
	ls := MustSchema([]Column{Col("A", TypeFloat), Col("X", TypeInt)})
	rs := MustSchema([]Column{Col("B", TypeFloat), Col("Y", TypeInt)})
	weird := []float64{math.NaN(), math.Copysign(0, -1), 0, 1.5}
	mk := func(s *Schema) *Relation {
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = Row{NewFloat(weird[rng.Intn(len(weird))]), NewInt(int64(i))}
		}
		return MustRelation(s, rows)
	}
	l, r := mk(ls), mk(rs)
	seq, err1 := l.Join(r, "A", "B", "r_")
	got, layout, err2 := l.HashJoinVec(4, r, "A", "B", "r_")
	if err1 != nil || err2 != nil {
		t.Fatalf("join: %v / %v", err1, err2)
	}
	if layout != LayoutRow {
		t.Fatalf("float-keyed join layout = %v, want ROW", layout)
	}
	sameRelation(t, "HashJoinVec(float keys)", seq, got)
}

// groupAggVec runs the vectorized grouped fold production uses,
// GroupAggExtVec, with an empty extension, so it is a plain grouped
// aggregation over r.
func groupAggVec(r *Relation, par int, groupCols []string, aggs []AggSpec) (*Relation, Layout, error) {
	return r.GroupAggExtVec(par, nil, func(Row, []Value) {}, groupCols, aggs)
}

func TestGroupAggVecMatchesGroupBy(t *testing.T) {
	withWorkers(t, 8, func() {
		aggs := []AggSpec{
			{Func: "count", As: "N"},
			{Func: "count", Col: "F", As: "NF"},
			{Func: "sum", Col: "F", As: "SF"},
			{Func: "sum", Col: "K", As: "SK"},
			{Func: "avg", Col: "F", As: "AF"},
			{Func: "avg", Col: "K", As: "AK"},
			{Func: "min", Col: "F", As: "MinF"},
			{Func: "max", Col: "F", As: "MaxF"},
			{Func: "min", Col: "K", As: "MinK"},
			{Func: "max", Col: "T", As: "MaxT"},
			{Func: "min", Col: "B", As: "MinB"},
			{Func: "max", Col: "S", As: "MaxS"},
		}
		groupings := [][]string{{"G"}, {"G", "S"}, {"B"}, {"T", "G"}}
		for _, n := range vectorSizes {
			r := randVecRelation(rand.New(rand.NewSource(int64(n)+83)), n, 0.3)
			for _, by := range groupings {
				seq, err := r.GroupBy(by, aggs)
				if err != nil {
					t.Fatalf("n=%d by=%v: GroupBy: %v", n, by, err)
				}
				for _, par := range vectorDegrees {
					// No layout assertion here: the adversarial floats in F
					// legitimately push SUM/AVG lanes back to the row kernel
					// (NaN-payload determinism); identity must hold either way.
					got, _, err := groupAggVec(r, par, by, aggs)
					if err != nil {
						t.Fatalf("n=%d par=%d by=%v: GroupAggVec: %v", n, par, by, err)
					}
					sameRelation(t, fmt.Sprintf("n=%d par=%d GroupAggVec(%v)", n, par, by), seq, got)
				}
			}
		}
		// With finite floats the vectorized path must actually engage.
		r := randMixed(rand.New(rand.NewSource(5)), vecMinRows*2, 0.3)
		_, layout, err := groupAggVec(r, 4, []string{"G"}, aggs[:9])
		if err != nil {
			t.Fatal(err)
		}
		if layout != LayoutColumnar {
			t.Fatalf("finite-float grouping layout = %v, want COLUMNAR", layout)
		}
	})
}

// TestGroupAggVecNonFiniteSumFallsBack pins the NaN-payload guard: a
// single ±Inf or NaN in a float SUM lane must push the whole call to the
// row kernel, and the results must still match bit for bit.
func TestGroupAggVecNonFiniteSumFallsBack(t *testing.T) {
	n := 2 * morselSize
	s := MustSchema([]Column{Col("G", TypeInt), Col("F", TypeFloat)})
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{NewInt(int64(i % 4)), NewFloat(float64(i))}
	}
	rows[n/2] = Row{NewInt(1), NewFloat(math.Inf(-1))}
	rows[n/2+9] = Row{NewInt(1), NewFloat(math.Inf(1))}
	rows[n-5] = Row{NewInt(1), NewFloat(math.NaN())}
	r := MustRelation(s, rows)
	aggs := []AggSpec{{Func: "sum", Col: "F", As: "S"}}
	seq, err := r.GroupBy([]string{"G"}, aggs)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range vectorDegrees {
		got, layout, err := groupAggVec(r, par, []string{"G"}, aggs)
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		if layout != LayoutRow {
			t.Fatalf("par=%d: non-finite sum layout = %v, want ROW", par, layout)
		}
		sameRelation(t, fmt.Sprintf("par=%d GroupAggVec(non-finite sum)", par), seq, got)
	}
}

// TestGroupAggVecFloatSumBitIdentical drives the fused float accumulator
// hard: few groups, many rows per group, so any reassociation of the
// additions would flip low-order bits.
func TestGroupAggVecFloatSumBitIdentical(t *testing.T) {
	withWorkers(t, 8, func() {
		rng := rand.New(rand.NewSource(42))
		n := 3 * morselSize
		s := MustSchema([]Column{Col("G", TypeInt), Col("F", TypeFloat)})
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = Row{NewInt(int64(i % 5)), NewFloat(rng.NormFloat64() * 1e6)}
		}
		r := MustRelation(s, rows)
		aggs := []AggSpec{{Func: "sum", Col: "F", As: "S"}, {Func: "avg", Col: "F", As: "A"}}
		seq, err := r.GroupBy([]string{"G"}, aggs)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 2, 7} {
			got, layout, err := groupAggVec(r, par, []string{"G"}, aggs)
			if err != nil {
				t.Fatal(err)
			}
			if layout != LayoutColumnar {
				t.Fatalf("par=%d: layout = %v", par, layout)
			}
			sameRelation(t, fmt.Sprintf("par=%d", par), seq, got)
		}
	})
}

// TestGroupAggVecFloatKeyFallsBack: float group keys would need Compare
// equality (NaN groups with NaN, -0 with +0) that no typed table
// reproduces — the kernel must run GroupBy instead.
func TestGroupAggVecFloatKeyFallsBack(t *testing.T) {
	n := vecMinRows * 2
	s := MustSchema([]Column{Col("F", TypeFloat), Col("V", TypeInt)})
	weird := []float64{math.NaN(), math.Copysign(0, -1), 0, 2.5}
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{NewFloat(weird[i%len(weird)]), NewInt(int64(i))}
	}
	r := MustRelation(s, rows)
	aggs := []AggSpec{{Func: "sum", Col: "V", As: "S"}}
	seq, err := r.GroupBy([]string{"F"}, aggs)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range vectorDegrees {
		got, layout, err := groupAggVec(r, par, []string{"F"}, aggs)
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		if layout != LayoutRow {
			t.Fatalf("par=%d: float-keyed grouping layout = %v, want ROW", par, layout)
		}
		sameRelation(t, fmt.Sprintf("par=%d GroupAggVec(float keys)", par), seq, got)
	}
}

// TestVecRogueTypesFallBack: operator-built relations skip CheckRow, so a
// cell's runtime type can disagree with the declared column type. The
// typed kernels must detect that during their scans and surrender to the
// row kernels wholesale.
func TestVecRogueTypesFallBack(t *testing.T) {
	n := 2 * morselSize
	s := MustSchema([]Column{Col("K", TypeInt), Col("V", TypeInt)})
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{NewInt(int64(i % 50)), NewInt(int64(i))}
	}
	// A single string where an int is declared, deep in the second morsel
	// (bypassing validation exactly as operator output does).
	rows[n-3] = Row{NewString("rogue"), NewInt(1)}
	r := &Relation{schema: s, rows: rows}

	aggs := []AggSpec{{Func: "count", As: "N"}}
	seq, err := r.GroupBy([]string{"K"}, aggs)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range vectorDegrees {
		got, layout, err := groupAggVec(r, par, []string{"K"}, aggs)
		if err != nil {
			t.Fatalf("par=%d group: %v", par, err)
		}
		if layout != LayoutRow {
			t.Fatalf("par=%d: rogue-typed grouping layout = %v, want ROW", par, layout)
		}
		sameRelation(t, fmt.Sprintf("par=%d GroupAggVec(rogue)", par), seq, got)
	}

	right := MustRelation(MustSchema([]Column{Col("RK", TypeInt), Col("P", TypeInt)}),
		func() []Row {
			rr := make([]Row, 40)
			for i := range rr {
				rr[i] = Row{NewInt(int64(i)), NewInt(int64(i * 2))}
			}
			return rr
		}())
	seq, err1 := r.Join(right, "K", "RK", "r_")
	got, layout, err2 := r.HashJoinVec(4, right, "K", "RK", "r_")
	if err1 != nil || err2 != nil {
		t.Fatalf("join: %v / %v", err1, err2)
	}
	if layout != LayoutRow {
		t.Fatalf("rogue-typed probe layout = %v, want ROW", layout)
	}
	sameRelation(t, "HashJoinVec(rogue probe)", seq, got)

	// Rogue value on the build side.
	seq, err1 = right.Join(r, "RK", "K", "l_")
	got, layout, err2 = right.HashJoinVec(4, r, "RK", "K", "l_")
	if err1 != nil || err2 != nil {
		t.Fatalf("join: %v / %v", err1, err2)
	}
	if layout != LayoutRow {
		t.Fatalf("rogue-typed build layout = %v, want ROW", layout)
	}
	sameRelation(t, "HashJoinVec(rogue build)", seq, got)
}

func TestColSetRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 100, morselSize + 5} {
		r := randVecRelation(rand.New(rand.NewSource(int64(n)+3)), n, 0.35)
		cs, err := ToColSet(r)
		if err != nil {
			t.Fatal(err)
		}
		if cs.Len() != n || !cs.Schema().Equal(r.Schema()) {
			t.Fatalf("n=%d: Len/Schema mismatch", n)
		}
		sameRelation(t, fmt.Sprintf("n=%d round trip", n), r, cs.ToRelation())
	}
	// The degenerate NULL-typed column has no columnar representation.
	bad := MustRelation(MustSchema([]Column{{Name: "N", Type: TypeNull, Nullable: true}}),
		[]Row{{Null}})
	if _, err := ToColSet(bad); err == nil {
		t.Fatal("ToColSet accepted a NULL-typed column")
	}
}

// TestVectorKernelsFuzzedIdentity is the quick.Check twin of the parallel
// fuzz test: tiled fuzzed keys past the threshold, identity across the
// three order-sensitive vectorized kernels.
func TestVectorKernelsFuzzedIdentity(t *testing.T) {
	withWorkers(t, 8, func() {
		f := func(keys []int64, pivot int64) bool {
			if len(keys) == 0 {
				keys = []int64{3}
			}
			tiled := make([]Row, 0, morselSize*3/2+len(keys))
			s := MustSchema([]Column{Col("K", TypeInt), Col("V", TypeInt)})
			for len(tiled) < morselSize*3/2 {
				for _, k := range keys {
					tiled = append(tiled, Row{NewInt(k), NewInt(k * 7)})
				}
			}
			r := MustRelation(s, tiled)

			pred := Cmp("K", OpGe, NewInt(pivot))
			s1, err1 := r.Select(pred)
			s2, _, err2 := r.FilterVec(3, pred)
			if err1 != nil || err2 != nil || !relationsIdentical(s1, s2) {
				return false
			}
			g1, err1 := r.GroupBy([]string{"K"}, []AggSpec{{Func: "sum", Col: "V", As: "S"}})
			g2, _, err2 := groupAggVec(r, 3, []string{"K"}, []AggSpec{{Func: "sum", Col: "V", As: "S"}})
			if err1 != nil || err2 != nil || !relationsIdentical(g1, g2) {
				return false
			}
			uniq, err := g1.RenameAll(map[string]string{"S": "W"})
			if err != nil {
				return false
			}
			j1, err1 := r.Join(uniq, "K", "K", "r_")
			j2, _, err2 := r.HashJoinVec(3, uniq, "K", "K", "r_")
			return err1 == nil && err2 == nil && relationsIdentical(j1, j2)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
			t.Error(err)
		}
	})
}

// finiteVecRelation is randVecRelation without the adversarial float
// payloads: finite float lanes stay on the vectorized path, so the
// parallel kernels' ordered float replay is actually exercised instead
// of surrendering to the row kernels.
func finiteVecRelation(rng *rand.Rand, n int) *Relation {
	s := MustSchema([]Column{
		Col("K", TypeInt),
		{Name: "G", Type: TypeInt, Nullable: true},
		{Name: "F", Type: TypeFloat, Nullable: true},
		Col("S", TypeString),
		{Name: "T", Type: TypeTime, Nullable: true},
	})
	base := time.Date(2006, 1, 2, 15, 4, 5, 0, time.UTC)
	rows := make([]Row, n)
	for i := range rows {
		g, f, ts := Null, Null, Null
		if rng.Float64() >= 0.2 {
			g = NewInt(int64(rng.Intn(40)))
		}
		if rng.Float64() >= 0.2 {
			f = NewFloat(rng.NormFloat64() * 100)
		}
		if rng.Float64() >= 0.2 {
			ts = NewTime(base.Add(time.Duration(rng.Intn(1000)) * time.Hour))
		}
		rows[i] = Row{
			NewInt(int64(rng.Intn(500))), g, f,
			NewString(fmt.Sprintf("s%02d", rng.Intn(60))), ts,
		}
	}
	return &Relation{schema: s, rows: rows}
}

// TestGroupAggVecExactLaneMerge pins the parallel grouped aggregation's
// two phase-2 modes against the sequential row kernel: an all-exact
// aggregate set (COUNT, int SUM/MIN/MAX, string MIN/MAX) merges the
// per-morsel states directly and never revisits a row, while adding one
// finite float SUM keeps the index lists and replays only that lane in
// global row order. Both must be bit-identical to GroupBy.
func TestGroupAggVecExactLaneMerge(t *testing.T) {
	withWorkers(t, 8, func() {
		r := finiteVecRelation(rand.New(rand.NewSource(4117)), 2*morselSize+451)
		by := []string{"G"}
		exactAggs := []AggSpec{
			{Func: "count", As: "N"},
			{Func: "count", Col: "F", As: "NF"},
			{Func: "sum", Col: "K", As: "SK"},
			{Func: "min", Col: "K", As: "MNK"},
			{Func: "max", Col: "K", As: "MXK"},
			{Func: "min", Col: "S", As: "MNS"},
			{Func: "max", Col: "S", As: "MXS"},
		}
		mixedAggs := append(append([]AggSpec(nil), exactAggs...),
			AggSpec{Func: "sum", Col: "F", As: "SF"},
			AggSpec{Func: "avg", Col: "K", As: "AK"})
		for _, tc := range []struct {
			tag  string
			aggs []AggSpec
		}{{"exact-only", exactAggs}, {"mixed-replay", mixedAggs}} {
			want, err := r.GroupBy(by, tc.aggs)
			if err != nil {
				t.Fatalf("%s: GroupBy: %v", tc.tag, err)
			}
			for _, par := range []int{2, 4, 8} {
				got, layout, err := groupAggVec(r, par, by, tc.aggs)
				if err != nil {
					t.Fatalf("%s par=%d: GroupAggVec: %v", tc.tag, par, err)
				}
				if layout != LayoutColumnar {
					t.Fatalf("%s par=%d: layout = %v, want COLUMNAR", tc.tag, par, layout)
				}
				sameRelation(t, fmt.Sprintf("%s par=%d", tc.tag, par), want, got)
			}
		}
	})
}

// TestGroupAggExtVecParallelFused pins the parallel fused extend+group
// path — phase-1 extension into per-worker scratch rows, direct merge of
// the exact lanes, fn re-run during the ordered float replay — against
// the materializing row pipeline, with finite floats so the vectorized
// path actually runs.
func TestGroupAggExtVecParallelFused(t *testing.T) {
	withWorkers(t, 8, func() {
		r := finiteVecRelation(rand.New(rand.NewSource(9311)), 2*morselSize+89)
		ord := r.Schema().MustOrdinal("T")
		cols := []Column{
			{Name: "Y", Type: TypeInt, Nullable: true},
			{Name: "M", Type: TypeInt, Nullable: true},
		}
		fn := func(row Row, out []Value) {
			if row[ord].IsNull() {
				out[0], out[1] = Null, Null
				return
			}
			d := row[ord].Time()
			out[0] = NewInt(int64(d.Year()))
			out[1] = NewInt(int64(d.Month()))
		}
		by := []string{"Y", "M", "G"}
		aggs := []AggSpec{
			{Func: "count", As: "N"},
			{Func: "sum", Col: "K", As: "SK"},
			{Func: "sum", Col: "F", As: "SF"},
			{Func: "avg", Col: "F", As: "AF"},
		}
		ext, err := r.ExtendMany(cols, fn)
		if err != nil {
			t.Fatalf("ExtendMany: %v", err)
		}
		want, err := ext.GroupBy(by, aggs)
		if err != nil {
			t.Fatalf("GroupBy: %v", err)
		}
		for _, par := range []int{2, 4, 8} {
			got, layout, err := r.GroupAggExtVec(par, cols, fn, by, aggs)
			if err != nil {
				t.Fatalf("par=%d: GroupAggExtVec: %v", par, err)
			}
			if layout != LayoutColumnar {
				t.Fatalf("par=%d: layout = %v, want COLUMNAR (fused parallel)", par, layout)
			}
			sameRelation(t, fmt.Sprintf("par=%d fused", par), want, got)
		}
	})
}

// TestGroupAggExtVecMatchesRowPipeline pins the fused extend+group
// kernel — the ComputeOrdersMV shape — against the row pipeline it
// replaces (ExtendMany followed by GroupBy), across sizes,
// degrees and NULL-bearing time columns.
func TestGroupAggExtVecMatchesRowPipeline(t *testing.T) {
	withWorkers(t, 8, func() {
		cols := []Column{
			{Name: "Y", Type: TypeInt, Nullable: true},
			{Name: "M", Type: TypeInt, Nullable: true},
		}
		mkFn := func(r *Relation) func(Row, []Value) {
			ord := r.Schema().MustOrdinal("T")
			return func(row Row, out []Value) {
				if row[ord].IsNull() {
					out[0], out[1] = Null, Null
					return
				}
				d := row[ord].Time()
				out[0] = NewInt(int64(d.Year()))
				out[1] = NewInt(int64(d.Month()))
			}
		}
		by := []string{"Y", "M", "G"}
		aggs := []AggSpec{
			{Func: "count", As: "N"},
			{Func: "sum", Col: "K", As: "SK"},
			{Func: "sum", Col: "F", As: "SF"},
		}
		for _, n := range vectorSizes {
			r := randVecRelation(rand.New(rand.NewSource(int64(n)+907)), n, 0.3)
			fn := mkFn(r)
			ext, err := r.ExtendMany(cols, fn)
			if err != nil {
				t.Fatalf("n=%d: ExtendMany: %v", n, err)
			}
			want, err := ext.GroupBy(by, aggs)
			if err != nil {
				t.Fatalf("n=%d: GroupBy: %v", n, err)
			}
			for _, par := range vectorDegrees {
				// No layout assertion: the adversarial floats in F push the
				// SUM lane back to the row kernels (NaN-payload determinism);
				// identity must hold on every path — fused sequential,
				// materialized parallel, and the row fallback.
				got, _, err := r.GroupAggExtVec(par, cols, fn, by, aggs)
				if err != nil {
					t.Fatalf("n=%d par=%d: GroupAggExtVec: %v", n, par, err)
				}
				sameRelation(t, fmt.Sprintf("n=%d par=%d GroupAggExtVec", n, par), want, got)
			}
		}
		// With no float aggregate lane (count + int sum) the adversarial
		// floats in F are never touched, so both executions must report
		// the vectorized layout: par=1 exercises the fused single pass,
		// par=4 the parallel fused partition with direct exact-lane merge.
		r := randVecRelation(rand.New(rand.NewSource(31)), morselSize+77, 0.3)
		fn := mkFn(r)
		for _, par := range []int{1, 4} {
			_, layout, err := r.GroupAggExtVec(par, cols, fn, by, aggs[:2])
			if err != nil {
				t.Fatal(err)
			}
			if layout != LayoutColumnar {
				t.Fatalf("par=%d fused grouping layout = %v, want COLUMNAR", par, layout)
			}
		}
		// Grouping by a float key is ineligible and must fall back whole.
		_, layout, err := r.GroupAggExtVec(1, cols, fn, []string{"F"}, aggs[:2])
		if err != nil {
			t.Fatal(err)
		}
		if layout != LayoutRow {
			t.Fatalf("float-keyed fused grouping layout = %v, want ROW", layout)
		}
	})
}

package relational

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/sched"
)

// UnionDistinctPar's hard contract is bit-identity: for every input —
// empty, single-morsel, NULL-heavy, multi-morsel — it must return the same
// rows, in the same order, as the sequential UnionDistinct. The tests force
// par > 1 explicitly (on a single-core machine the engine presets would
// keep everything sequential) and widen the worker gate so goroutines
// actually spawn. The vectorized kernels' twins live in vector_test.go.

// withWorkers runs fn with the process-wide scheduler's worker bound set
// to n.
func withWorkers(t *testing.T, n int, fn func()) {
	t.Helper()
	sched.Default().SetMaxWorkers(n)
	defer sched.Default().SetMaxWorkers(runtime.GOMAXPROCS(0))
	fn()
}

// valueBits compares two values for bit identity: a float payload is
// held as its IEEE-754 bits, so e.g. -0 and +0 differ.
func valueBits(a, b Value) bool {
	return a.typ == b.typ && a.i == b.i && a.s == b.s
}

// sameRelation fails unless want and got agree row-for-row, bit-for-bit.
func sameRelation(t *testing.T, op string, want, got *Relation) {
	t.Helper()
	if !want.schema.Equal(got.schema) {
		t.Fatalf("%s: schema mismatch:\n  seq %s\n  par %s", op, want.schema, got.schema)
	}
	if len(want.rows) != len(got.rows) {
		t.Fatalf("%s: row count: seq %d, par %d", op, len(want.rows), len(got.rows))
	}
	for i := range want.rows {
		if len(want.rows[i]) != len(got.rows[i]) {
			t.Fatalf("%s: row %d width: seq %d, par %d", op, i, len(want.rows[i]), len(got.rows[i]))
		}
		for j := range want.rows[i] {
			if !valueBits(want.rows[i][j], got.rows[i][j]) {
				t.Fatalf("%s: row %d col %d: seq %v, par %v", op, i, j,
					want.rows[i][j], got.rows[i][j])
			}
		}
	}
}

// randMixed builds an n-row relation with int, nullable int, nullable
// float and string columns; nullFrac of the nullable cells are NULL.
func randMixed(rng *rand.Rand, n int, nullFrac float64) *Relation {
	s := MustSchema([]Column{
		Col("K", TypeInt),
		{Name: "G", Type: TypeInt, Nullable: true},
		{Name: "F", Type: TypeFloat, Nullable: true},
		Col("S", TypeString),
	})
	rows := make([]Row, n)
	for i := range rows {
		g, f := Null, Null
		if rng.Float64() >= nullFrac {
			g = NewInt(int64(rng.Intn(40)))
		}
		if rng.Float64() >= nullFrac {
			f = NewFloat(rng.NormFloat64() * 100)
		}
		rows[i] = Row{
			NewInt(int64(rng.Intn(n/2 + 16))),
			g, f,
			NewString(fmt.Sprintf("s%02d", rng.Intn(25))),
		}
	}
	return MustRelation(s, rows)
}

// parallelSizes crosses the interesting input shapes: empty, one row, a
// fraction of a morsel, exact morsel boundaries and several morsels.
var parallelSizes = []int{0, 1, 100, morselSize, morselSize + 1, 3*morselSize + 17}

var parallelDegrees = []int{2, 3, 8}

func TestParallelKernelsMatchSequential(t *testing.T) {
	withWorkers(t, 8, func() {
		for _, n := range parallelSizes {
			rng := rand.New(rand.NewSource(int64(n) + 1))
			r := randMixed(rng, n, 0.3)
			other := randMixed(rng, n/2+3, 0.3)
			for _, par := range parallelDegrees {
				tag := fmt.Sprintf("n=%d par=%d", n, par)

				seq, err1 := r.UnionDistinct([]string{"K"}, other)
				got, err2 := r.UnionDistinctPar(par, []string{"K"}, other)
				if err1 != nil || err2 != nil {
					t.Fatalf("%s UnionDistinct: %v / %v", tag, err1, err2)
				}
				sameRelation(t, tag+" UnionDistinct", seq, got)

				seq, err1 = r.UnionDistinct(nil, other) // whole-row keys
				got, err2 = r.UnionDistinctPar(par, nil, other)
				if err1 != nil || err2 != nil {
					t.Fatalf("%s UnionDistinct(all): %v / %v", tag, err1, err2)
				}
				sameRelation(t, tag+" UnionDistinct(all)", seq, got)
			}
		}
	})
}

// failingPred errors on rows whose first column equals the trigger value,
// exercising the error path of the columnar filter's row fallback.
type failingPred struct{ trigger int64 }

func (p failingPred) Eval(_ *Schema, row Row) (bool, error) {
	if row[0].Int() == p.trigger {
		return false, fmt.Errorf("boom at %d", p.trigger)
	}
	return true, nil
}

func (p failingPred) String() string { return "FAILING" }

// TestParallelKernelsFuzzedIdentity tiles fuzzed keys past the morsel
// threshold so the parallel path genuinely engages, then checks identity
// of the union-distinct first-occurrence order.
func TestParallelKernelsFuzzedIdentity(t *testing.T) {
	withWorkers(t, 8, func() {
		f := func(keys []int64) bool {
			if len(keys) == 0 {
				keys = []int64{3}
			}
			// Tile to ~1.5 morsels so the kernel takes the parallel path.
			tiled := make([]Row, 0, morselSize*3/2+len(keys))
			s := MustSchema([]Column{Col("K", TypeInt), Col("V", TypeInt)})
			for len(tiled) < morselSize*3/2 {
				for _, k := range keys {
					tiled = append(tiled, Row{NewInt(k), NewInt(k * 7)})
				}
			}
			r := MustRelation(s, tiled)
			u1, err1 := r.UnionDistinct([]string{"K"})
			u2, err2 := r.UnionDistinctPar(3, []string{"K"})
			return err1 == nil && err2 == nil && relationsIdentical(u1, u2)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
			t.Error(err)
		}
	})
}

// relationsIdentical is the bool form of sameRelation for quick.Check.
func relationsIdentical(a, b *Relation) bool {
	if !a.schema.Equal(b.schema) || len(a.rows) != len(b.rows) {
		return false
	}
	for i := range a.rows {
		if len(a.rows[i]) != len(b.rows[i]) {
			return false
		}
		for j := range a.rows[i] {
			if !valueBits(a.rows[i][j], b.rows[i][j]) {
				return false
			}
		}
	}
	return true
}

package relational

import (
	"runtime"
	"testing"
	"unsafe"
)

// Allocation budgets for the hash tables under table indexes and kernels:
// a key that is unique under its hash costs no heap object of its own, so
// the count of objects a bulk load or a deduplicating kernel allocates
// does not grow with the number of keys it files.

// allocRows returns n rows (k, k, "s<k%3>") for k in [0, n): a unique
// BIGINT key, a unique BIGINT second column and a low-cardinality string.
func allocRows(n int) *Relation {
	s := MustSchema([]Column{Col("K", TypeInt), Col("V", TypeInt), Col("S", TypeString)}, "K")
	rows := make([]Row, n)
	for i := range rows {
		k := int64(i)
		rows[i] = Row{NewInt(k), NewInt(k), NewString(sOf(k))}
	}
	return MustRelation(s, rows)
}

func TestInsertAllAllocBudget(t *testing.T) {
	// A constant: the same budget holds at every row count.
	const budget = 64
	for _, n := range []int{1024, 4096} {
		rel := allocRows(n)
		allocs := testing.AllocsPerRun(5, func() {
			tbl := NewTable("T", rel.Schema())
			if err := tbl.CreateIndex("V"); err != nil {
				t.Fatal(err)
			}
			if err := tbl.InsertAll(rel); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > budget {
			t.Errorf("InsertAll of %d rows with a unique secondary index: %.0f allocations, budget %d",
				n, allocs, budget)
		}
	}
}

func TestUnionDistinctParAllocBudget(t *testing.T) {
	withWorkers(t, 4, func() {
		// Five morsels of distinct keys, the second operand repeating
		// the first: every key survives once.
		rel := allocRows(5 * morselSize)
		keys := rel.Len()
		allocs := testing.AllocsPerRun(3, func() {
			out, err := rel.UnionDistinctPar(4, []string{"K"}, rel)
			if err != nil || out.Len() != keys {
				t.Fatalf("UnionDistinctPar: %v, %d rows", err, out.Len())
			}
		})
		if allocs >= float64(keys) {
			t.Errorf("UnionDistinctPar over %d keys: %.0f allocations, want fewer than one per key",
				keys, allocs)
		}
	})
}

// A cell costs one type tag, one payload word and a string header.
func TestValueAllocSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 32", got)
	}
}

// allocBytes returns the heap bytes f allocates per call, averaged over
// runs calls.
func allocBytes(runs int, f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// rowHeader is the bytes one Row slice header takes in a []Row.
const rowHeader = int(unsafe.Sizeof(Row(nil)))

// The vectorized kernels carve their output rows from value arenas, so
// their bytes are the output cells at 32 B each plus the row headers that
// index them, plus a small constant for the call's own bookkeeping.
func TestProjectVecAllocBytes(t *testing.T) {
	withWorkers(t, 4, func() {
		rel := allocRows(4 * morselSize)
		cols := []string{"S", "K", "V"}
		var rows, cells int
		got := allocBytes(3, func() {
			out, layout, err := rel.ProjectVec(4, cols...)
			if err != nil || layout != LayoutColumnar {
				t.Fatalf("ProjectVec: %v, layout %v", err, layout)
			}
			rows, cells = out.Len(), out.Len()*len(cols)
		})
		budget := float64(32*cells + rowHeader*rows + 16<<10)
		if got > budget {
			t.Errorf("ProjectVec of %d rows x %d columns: %.0f B, budget %.0f B (%.1f B per cell)",
				rows, len(cols), got, budget, got/float64(cells))
		}
	})
}

func TestHashJoinVecAllocBytes(t *testing.T) {
	withWorkers(t, 4, func() {
		// Every left row matches exactly one of three right rows, so the
		// build table stays tiny and the bytes are the output's.
		left := allocRows(4 * morselSize)
		rs := MustSchema([]Column{Col("RS", TypeString), Col("X", TypeInt), Col("Y", TypeFloat)}, "RS")
		right := MustRelation(rs, []Row{
			{NewString(sOf(0)), NewInt(0), NewFloat(0.5)},
			{NewString(sOf(1)), NewInt(1), NewFloat(1.5)},
			{NewString(sOf(2)), NewInt(2), NewFloat(2.5)},
		})
		var rows, cells int
		got := allocBytes(3, func() {
			out, layout, err := left.HashJoinVec(4, right, "S", "RS", "R_")
			if err != nil || layout != LayoutColumnar || out.Len() != left.Len() {
				t.Fatalf("HashJoinVec: %v, layout %v, %d rows", err, layout, out.Len())
			}
			rows, cells = out.Len(), out.Len()*len(out.Schema().Columns)
		})
		// Two row headers per output row: the per-morsel lists and the
		// concatenated result.
		budget := float64(32*cells + 2*rowHeader*rows + 16<<10)
		if got > budget {
			t.Errorf("HashJoinVec to %d rows, %d cells: %.0f B, budget %.0f B (%.1f B per cell)",
				rows, cells, got, budget, got/float64(cells))
		}
	})
}

// A Delete without an AFTER DELETE trigger keeps no list of the rows it
// removed: its allocation count does not grow with the rows deleted, and
// its bytes are the free list's.
func TestDeleteWithoutTriggerAllocBudget(t *testing.T) {
	const budget = 20
	all := PredicateFunc("all", func(*Schema, Row) (bool, error) { return true, nil })
	for _, n := range []int{1024, 4096} {
		tbl := NewTable("T", allocRows(n).Schema())
		if err := tbl.InsertAll(allocRows(n)); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := tbl.Delete(all)
		runtime.ReadMemStats(&after)
		if err != nil || got != n {
			t.Fatalf("Delete: %d rows, %v", got, err)
		}
		allocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
		if allocs > budget {
			t.Errorf("Delete of %d rows: %d allocations, budget %d", n, allocs, budget)
		}
		if bytes > uint64(16*n) {
			t.Errorf("Delete of %d rows: %d B, want at most 16 B per row", n, bytes)
		}
	}
}

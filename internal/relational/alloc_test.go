package relational

import "testing"

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

func TestGroupAggExtVecParallelAllocBudget(t *testing.T) {
	withWorkers(t, 4, func() {
		// Five morsels, two rows per group; COUNT and an integer SUM are
		// order-exact lanes, so no group keeps a replay index list.
		rel := allocRows(5 * morselSize)
		groups := rel.Len() / 2
		cols := []Column{Col("G", TypeInt)}
		fn := func(row Row, out []Value) { out[0] = NewInt(row[0].i / 2) }
		aggs := []AggSpec{{Func: "count", As: "N"}, {Func: "sum", Col: "V", As: "SV"}}
		allocs := testing.AllocsPerRun(3, func() {
			out, layout, err := rel.GroupAggExtVec(4, cols, fn, []string{"G"}, aggs)
			if err != nil || layout != LayoutColumnar || out.Len() != groups {
				t.Fatalf("GroupAggExtVec: %v, layout %v, %d groups", err, layout, out.Len())
			}
		})
		if allocs >= float64(groups) {
			t.Errorf("parallel GroupAggExtVec over %d groups: %.0f allocations, want fewer than one per group",
				groups, allocs)
		}
	})
}

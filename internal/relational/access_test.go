package relational

import (
	"testing"
	"testing/quick"
)

// accessTable builds a keyed table (PRIMARY KEY (K)) with an optional
// secondary index on V, loaded with rows (k, k%7, "s<k%3>") for k in keys.
func accessTable(t *testing.T, indexed bool, keys ...int64) *Table {
	t.Helper()
	s := MustSchema([]Column{
		Col("K", TypeInt), Col("V", TypeInt), Col("S", TypeString),
	}, "K")
	tbl := NewTable("T", s)
	if indexed {
		if err := tbl.CreateIndex("V"); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys {
		if err := tbl.Insert(Row{NewInt(k), NewInt(k % 7), NewString(sOf(k))}); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func sOf(k int64) string { return string(rune('a' + byte(((k%3)+3)%3))) }

func seqKeys(n int) []int64 {
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(i)
	}
	return keys
}

func TestExplainChoosesAccessPath(t *testing.T) {
	tbl := accessTable(t, true, seqKeys(10)...)
	cases := []struct {
		name string
		pred Predicate
		want AccessPath
	}{
		{"pk equality", ColEq("K", NewInt(3)), AccessPath{Kind: AccessPKProbe}},
		{"pk equality in AND", And(ColEq("K", NewInt(3)), Cmp("V", OpGt, NewInt(0))),
			AccessPath{Kind: AccessPKProbe}},
		{"secondary equality", ColEq("V", NewInt(2)), AccessPath{Kind: AccessIndexProbe, Column: "V"}},
		{"secondary equality case-insensitive", ColEq("v", NewInt(2)),
			AccessPath{Kind: AccessIndexProbe, Column: "V"}},
		{"non-indexed equality", ColEq("S", NewString("a")), AccessPath{Kind: AccessScan}},
		{"range on pk", Cmp("K", OpLt, NewInt(5)), AccessPath{Kind: AccessScan}},
		{"OR disables probing", Or(ColEq("K", NewInt(1)), ColEq("K", NewInt(2))),
			AccessPath{Kind: AccessScan}},
		// Compare equates BIGINT 3 and DOUBLE 3.0 but the hash index is
		// typed, so a mixed-type constant must fall back to the scan.
		{"type-mismatched constant", ColEq("K", NewFloat(3)), AccessPath{Kind: AccessScan}},
		{"null constant", ColEq("K", Null), AccessPath{Kind: AccessScan}},
	}
	for _, c := range cases {
		if got := tbl.Explain(c.pred); got != c.want {
			t.Errorf("%s: Explain = %v, want %v", c.name, got, c.want)
		}
	}
	// Composite keys probe only under full-key equality.
	comp := NewTable("C", MustSchema([]Column{Col("A", TypeInt), Col("B", TypeInt)}, "A", "B"))
	if got := comp.Explain(ColEq("A", NewInt(1))); got.Kind != AccessScan {
		t.Errorf("partial composite key: Explain = %v, want SCAN", got)
	}
	full := And(ColEq("B", NewInt(2)), ColEq("A", NewInt(1)))
	if got := comp.Explain(full); got.Kind != AccessPKProbe {
		t.Errorf("full composite key: Explain = %v, want PK PROBE", got)
	}
}

func TestSelectWherePKProbe(t *testing.T) {
	tbl := accessTable(t, false, seqKeys(50)...)
	got, err := tbl.SelectWhere(ColEq("K", NewInt(17)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 || got.Get(0, "K").Int() != 17 {
		t.Fatalf("pk probe returned %d rows", got.Len())
	}
	scans, pk, idx := tbl.AccessStats()
	if scans != 0 || pk != 1 || idx != 0 {
		t.Errorf("AccessStats = (%d,%d,%d), want (0,1,0)", scans, pk, idx)
	}
	// The probe is a superset filter: residual conjuncts still apply.
	got, err = tbl.SelectWhere(And(ColEq("K", NewInt(17)), ColEq("S", NewString("zzz"))))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatalf("residual filter ignored: %d rows", got.Len())
	}
}

func TestSelectWhereIndexProbe(t *testing.T) {
	tbl := accessTable(t, true, seqKeys(70)...)
	want, err := tbl.Scan().Select(ColEq("V", NewInt(3)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := tbl.SelectWhere(ColEq("V", NewInt(3)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() || got.Len() == 0 {
		t.Fatalf("index probe: %d rows, scan: %d", got.Len(), want.Len())
	}
	for i := 0; i < got.Len(); i++ {
		if !got.Row(i).Equal(want.Row(i)) {
			t.Fatalf("row %d: probe %v vs scan %v (order must match the scan)", i, got.Row(i), want.Row(i))
		}
	}
	_, _, idx := tbl.AccessStats()
	if idx != 1 {
		t.Errorf("indexProbes = %d, want 1", idx)
	}
}

func TestSelectWhereScanFallback(t *testing.T) {
	tbl := accessTable(t, true, seqKeys(20)...)
	got, err := tbl.SelectWhere(ColEq("S", NewString("a")))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() == 0 {
		t.Fatal("empty fallback selection")
	}
	scans, _, _ := tbl.AccessStats()
	if scans != 1 {
		t.Errorf("scans = %d, want 1", scans)
	}
	// Unknown columns still surface an error through the scan path.
	if _, err := tbl.SelectWhere(ColEq("Nope", NewInt(1))); err == nil {
		t.Error("expected unknown-column error")
	}
}

// TestIndexMaintenanceAcrossMutations drives one table through Update,
// Delete and Truncate and asserts the probe paths always see the current
// state.
func TestIndexMaintenanceAcrossMutations(t *testing.T) {
	tbl := accessTable(t, true, seqKeys(21)...)
	probe := func(v int64) *Relation {
		t.Helper()
		r, err := tbl.SelectWhere(ColEq("V", NewInt(v)))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	if n := probe(6).Len(); n != 3 { // 6, 13, 20
		t.Fatalf("initial probe: %d rows, want 3", n)
	}
	// Update moves rows between buckets: V 6 -> 99 for K >= 13.
	n, err := tbl.Update(And(ColEq("V", NewInt(6)), Cmp("K", OpGe, NewInt(13))), func(r Row) Row {
		r[1] = NewInt(99)
		return r
	})
	if err != nil || n != 2 {
		t.Fatalf("update: n=%d err=%v", n, err)
	}
	if got := tbl.Explain(And(ColEq("V", NewInt(6)), Cmp("K", OpGe, NewInt(13)))); got.Kind != AccessIndexProbe {
		t.Errorf("update predicate used %v", got)
	}
	if n := probe(6).Len(); n != 1 {
		t.Errorf("after update: old bucket holds %d rows, want 1", n)
	}
	if n := probe(99).Len(); n != 2 {
		t.Errorf("after update: new bucket holds %d rows, want 2", n)
	}
	// Delete drops rows out of their buckets (probed via the PK here).
	if n, err := tbl.Delete(ColEq("K", NewInt(13))); err != nil || n != 1 {
		t.Fatalf("delete: n=%d err=%v", n, err)
	}
	if n := probe(99).Len(); n != 1 {
		t.Errorf("after delete: bucket holds %d rows, want 1", n)
	}
	if r := tbl.Lookup(NewInt(13)); r != nil {
		t.Error("deleted row still in PK index")
	}
	// Truncate empties every bucket; the table stays usable.
	tbl.Truncate()
	if n := probe(99).Len(); n != 0 {
		t.Errorf("after truncate: bucket holds %d rows", n)
	}
	if err := tbl.Insert(Row{NewInt(1), NewInt(99), NewString("x")}); err != nil {
		t.Fatal(err)
	}
	if n := probe(99).Len(); n != 1 {
		t.Errorf("after reinsert: bucket holds %d rows, want 1", n)
	}
}

// TestIndexedAndScanPathsAgreeProperty fuzzes equality selections and
// deletes over an indexed and an unindexed copy of the same data: both
// paths must produce identical relations.
func TestIndexedAndScanPathsAgreeProperty(t *testing.T) {
	equalRel := func(a, b *Relation) bool {
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !a.Row(i).Equal(b.Row(i)) {
				return false
			}
		}
		return true
	}
	f := func(keys []int64, probeKey, probeVal int64) bool {
		seen := map[int64]bool{}
		uniq := keys[:0]
		for _, k := range keys {
			if !seen[k] {
				seen[k] = true
				uniq = append(uniq, k)
			}
		}
		indexed := accessTable(t, true, uniq...)
		plain := accessTable(t, false, uniq...)
		for _, pred := range []Predicate{
			ColEq("K", NewInt(probeKey)),
			ColEq("V", NewInt(((probeVal%7)+7)%7)),
			And(ColEq("V", NewInt(((probeVal%7)+7)%7)), Cmp("K", OpGt, NewInt(probeKey))),
		} {
			a, err1 := indexed.SelectWhere(pred)
			b, err2 := plain.SelectWhere(pred)
			if err1 != nil || err2 != nil || !equalRel(a, b) {
				return false
			}
		}
		// Deletes through both paths leave identical relations behind.
		del := ColEq("V", NewInt(((probeVal%7)+7)%7))
		n1, err1 := indexed.Delete(del)
		n2, err2 := plain.Delete(del)
		if err1 != nil || err2 != nil || n1 != n2 {
			return false
		}
		return equalRel(indexed.Scan(), plain.Scan())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}

	// Interleaved mutations over a unique index (U) and a two-value index
	// (B): after every step, each PK Lookup and each index probe equals a
	// scan of the same table, and the indexed table equals an unindexed
	// twin driven through the same steps.
	const keys = 24
	s := MustSchema([]Column{
		Col("K", TypeInt), Col("U", TypeInt), Col("B", TypeInt), Col("S", TypeString),
	}, "K")
	agrees := func(tbl *Table) bool {
		scan := tbl.Scan()
		for k := int64(0); k < keys; k++ {
			want, err := scan.Select(ColEq("K", NewInt(k)))
			if err != nil {
				return false
			}
			got := tbl.Lookup(NewInt(k))
			if (got == nil) != (want.Len() == 0) || (got != nil && !got.Equal(want.Row(0))) {
				return false
			}
		}
		preds := []Predicate{ColEq("U", NewInt(-1)), ColEq("B", NewInt(0)), ColEq("B", NewInt(1))}
		for i := 0; i < scan.Len(); i++ {
			preds = append(preds, ColEq("U", scan.Row(i)[1]))
		}
		for _, pred := range preds {
			want, err1 := scan.Select(pred)
			got, err2 := tbl.SelectWhere(pred)
			if err1 != nil || err2 != nil || !equalRel(got, want) {
				return false
			}
		}
		return true
	}
	g := func(ops []uint16) bool {
		indexed, plain := NewTable("T", s), NewTable("T", s)
		for _, col := range []string{"U", "B"} {
			if err := indexed.CreateIndex(col); err != nil {
				t.Fatal(err)
			}
		}
		for step, op := range ops {
			k := int64(op>>3) % keys
			// U is step*keys+K: unique over every row ever written.
			u := func(k int64) Value { return NewInt(int64(step+1)*keys + k) }
			for _, tbl := range []*Table{indexed, plain} {
				var err error
				switch op & 7 {
				case 0, 1, 2:
					err = tbl.Upsert(Row{NewInt(k), u(k), NewInt(k % 2), NewString(sOf(k))})
				case 3, 4:
					pred := ColEq("B", NewInt(k%2))
					if op&7 == 4 {
						pred = ColEq("K", NewInt(k))
					}
					_, err = tbl.Update(pred, func(r Row) Row {
						r[1] = u(r[0].Int())
						r[2] = NewInt(1 - r[2].Int())
						return r
					})
				case 5:
					_, err = tbl.Delete(ColEq("K", NewInt(k)))
				case 6:
					// Delete through the unique index, by the key's current U.
					del := ColEq("U", NewInt(-1))
					if row := plain.Lookup(NewInt(k)); row != nil {
						del = ColEq("U", row[1])
					}
					_, err = tbl.Delete(del)
				case 7:
					if op&8 == 0 {
						tbl.Truncate()
					} else {
						rows, v := tbl.snapshotRows()
						err = tbl.RestoreSnapshot(rows, v)
					}
				}
				if err != nil {
					t.Fatalf("step %d (op %d): %v", step, op&7, err)
				}
			}
			if !agrees(indexed) || !agrees(plain) || !equalRel(indexed.Scan(), plain.Scan()) {
				t.Logf("step %d (op %d) leaves the probes and the scan apart", step, op&7)
				return false
			}
		}
		return true
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

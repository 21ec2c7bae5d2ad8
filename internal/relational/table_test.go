package relational

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func newOrdersTable() *Table {
	return NewTable("Orders", ordersSchema())
}

func TestTableInsertAndScan(t *testing.T) {
	tbl := newOrdersTable()
	for i := 1; i <= 5; i++ {
		err := tbl.Insert(Row{NewInt(int64(i)), NewInt(int64(i * 10)), NewString("OPEN"), NewFloat(float64(i))})
		if err != nil {
			t.Fatal(err)
		}
	}
	if tbl.Len() != 5 {
		t.Fatalf("Len = %d, want 5", tbl.Len())
	}
	rel := tbl.Scan()
	if rel.Len() != 5 {
		t.Fatalf("Scan = %d rows, want 5", rel.Len())
	}
}

func TestTablePrimaryKeyEnforced(t *testing.T) {
	tbl := newOrdersTable()
	row := Row{NewInt(1), NewInt(10), NewString("OPEN"), NewFloat(1)}
	if err := tbl.Insert(row); err != nil {
		t.Fatal(err)
	}
	err := tbl.Insert(row)
	var ke *KeyError
	if !errors.As(err, &ke) {
		t.Fatalf("expected KeyError, got %v", err)
	}
	if ke.Table != "Orders" {
		t.Errorf("KeyError table = %q", ke.Table)
	}
}

func TestTableInsertValidatesSchema(t *testing.T) {
	tbl := newOrdersTable()
	if err := tbl.Insert(Row{NewInt(1)}); err == nil {
		t.Fatal("expected arity error")
	}
	if err := tbl.Insert(Row{NewString("x"), NewInt(1), NewString("s"), NewFloat(1)}); err == nil {
		t.Fatal("expected type error")
	}
}

func TestTableInsertClonesRow(t *testing.T) {
	tbl := newOrdersTable()
	row := Row{NewInt(1), NewInt(10), NewString("OPEN"), NewFloat(1)}
	if err := tbl.Insert(row); err != nil {
		t.Fatal(err)
	}
	row[2] = NewString("MUTATED")
	if got := tbl.Lookup(NewInt(1)); got[2].Str() != "OPEN" {
		t.Error("table row aliased caller's slice")
	}
}

func TestTableLookup(t *testing.T) {
	tbl := newOrdersTable()
	_ = tbl.Insert(Row{NewInt(7), NewInt(70), NewString("OPEN"), NewFloat(7)})
	if got := tbl.Lookup(NewInt(7)); got == nil || got[1].Int() != 70 {
		t.Errorf("Lookup(7) = %v", got)
	}
	if got := tbl.Lookup(NewInt(8)); got != nil {
		t.Errorf("Lookup(8) = %v, want nil", got)
	}
}

func TestTableUpsert(t *testing.T) {
	tbl := newOrdersTable()
	_ = tbl.Insert(Row{NewInt(1), NewInt(10), NewString("OPEN"), NewFloat(1)})
	err := tbl.Upsert(Row{NewInt(1), NewInt(10), NewString("CLOSED"), NewFloat(2)})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 1 {
		t.Fatalf("Len after upsert = %d", tbl.Len())
	}
	if got := tbl.Lookup(NewInt(1)); got[2].Str() != "CLOSED" {
		t.Errorf("upsert did not replace: %v", got)
	}
	// Upsert of a new key inserts.
	if err := tbl.Upsert(Row{NewInt(2), NewInt(20), NewString("OPEN"), NewFloat(3)}); err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 2 {
		t.Fatalf("Len after second upsert = %d", tbl.Len())
	}
	ins, upd, _ := tbl.Stats()
	if ins != 2 || upd != 1 {
		t.Errorf("stats: inserts=%d updates=%d", ins, upd)
	}
}

func TestTableDelete(t *testing.T) {
	tbl := newOrdersTable()
	for i := 1; i <= 10; i++ {
		_ = tbl.Insert(Row{NewInt(int64(i)), NewInt(int64(i % 3)), NewString("S"), NewFloat(0)})
	}
	n, err := tbl.Delete(ColEq("Custkey", NewInt(0)))
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 { // 3, 6, 9
		t.Fatalf("Delete removed %d, want 3", n)
	}
	if tbl.Len() != 7 {
		t.Fatalf("Len after delete = %d", tbl.Len())
	}
	// Deleted keys are reusable.
	if err := tbl.Insert(Row{NewInt(3), NewInt(1), NewString("S"), NewFloat(0)}); err != nil {
		t.Fatalf("re-insert of deleted key: %v", err)
	}
}

func TestTableUpdate(t *testing.T) {
	tbl := newOrdersTable()
	_ = tbl.Insert(Row{NewInt(1), NewInt(10), NewString("OPEN"), NewFloat(1)})
	_ = tbl.Insert(Row{NewInt(2), NewInt(20), NewString("OPEN"), NewFloat(2)})
	n, err := tbl.Update(ColEq("Ordkey", NewInt(2)), func(r Row) Row {
		r[2] = NewString("SHIPPED")
		return r
	})
	if err != nil || n != 1 {
		t.Fatalf("Update: n=%d err=%v", n, err)
	}
	if got := tbl.Lookup(NewInt(2)); got[2].Str() != "SHIPPED" {
		t.Errorf("update result: %v", got)
	}
}

func TestTableUpdateRejectsKeyChange(t *testing.T) {
	tbl := newOrdersTable()
	_ = tbl.Insert(Row{NewInt(1), NewInt(10), NewString("OPEN"), NewFloat(1)})
	_, err := tbl.Update(True(), func(r Row) Row {
		r[0] = NewInt(99)
		return r
	})
	if err == nil {
		t.Fatal("expected key-change rejection")
	}
}

func TestTableTruncate(t *testing.T) {
	tbl := newOrdersTable()
	for i := 0; i < 5; i++ {
		_ = tbl.Insert(Row{NewInt(int64(i)), NewInt(1), NewString("S"), NewFloat(0)})
	}
	tbl.Truncate()
	if tbl.Len() != 0 {
		t.Fatalf("Len after truncate = %d", tbl.Len())
	}
	// Keys reusable after truncate.
	if err := tbl.Insert(Row{NewInt(0), NewInt(1), NewString("S"), NewFloat(0)}); err != nil {
		t.Fatal(err)
	}
}

func TestInsertTriggerFires(t *testing.T) {
	tbl := newOrdersTable()
	var fired []int64
	tbl.AddTrigger(OnInsert, func(_ *Table, old, new Row) error {
		if old != nil {
			t.Error("insert trigger got old row")
		}
		fired = append(fired, new[0].Int())
		return nil
	})
	_ = tbl.Insert(Row{NewInt(1), NewInt(10), NewString("OPEN"), NewFloat(1)})
	_ = tbl.Insert(Row{NewInt(2), NewInt(20), NewString("OPEN"), NewFloat(2)})
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 2 {
		t.Errorf("trigger fired = %v", fired)
	}
}

func TestTriggerErrorPropagates(t *testing.T) {
	tbl := newOrdersTable()
	tbl.AddTrigger(OnInsert, func(_ *Table, _, _ Row) error {
		return fmt.Errorf("boom")
	})
	err := tbl.Insert(Row{NewInt(1), NewInt(10), NewString("OPEN"), NewFloat(1)})
	if err == nil || !contains(err.Error(), "boom") {
		t.Fatalf("trigger error not propagated: %v", err)
	}
}

func TestDeleteTriggerFires(t *testing.T) {
	tbl := newOrdersTable()
	var deleted []int64
	tbl.AddTrigger(OnDelete, func(_ *Table, old, new Row) error {
		if new != nil {
			t.Error("delete trigger got new row")
		}
		deleted = append(deleted, old[0].Int())
		return nil
	})
	_ = tbl.Insert(Row{NewInt(1), NewInt(10), NewString("OPEN"), NewFloat(1)})
	_, _ = tbl.Delete(True())
	if len(deleted) != 1 || deleted[0] != 1 {
		t.Errorf("delete trigger fired = %v", deleted)
	}
}

func TestDeleteTriggerGetsEveryRowInSlotOrder(t *testing.T) {
	const n = 4096
	tbl := NewTable("T", allocRows(n).Schema())
	if err := tbl.CreateIndex("S"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.InsertAll(allocRows(n)); err != nil {
		t.Fatal(err)
	}
	// Free low slots and refill them with high keys, so slot order is not
	// key order.
	low := PredicateFunc("K<100", func(_ *Schema, r Row) (bool, error) { return r[0].Int() < 100, nil })
	if _, err := tbl.Delete(low); err != nil {
		t.Fatal(err)
	}
	for k := int64(n); k < n+100; k++ {
		if err := tbl.Insert(Row{NewInt(k), NewInt(k), NewString(sOf(k))}); err != nil {
			t.Fatal(err)
		}
	}
	var fired []int64
	tbl.AddTrigger(OnDelete, func(_ *Table, old, new Row) error {
		if new != nil {
			t.Error("delete trigger got a new row")
		}
		fired = append(fired, old[0].Int())
		return nil
	})
	even := PredicateFunc("K%2=0", func(_ *Schema, r Row) (bool, error) { return r[0].Int()%2 == 0, nil })
	for _, pred := range []Predicate{even, ColEq("S", NewString(sOf(1)))} {
		var want []int64
		for _, row := range tbl.Scan().Rows() {
			if ok, _ := pred.Eval(tbl.Schema(), row); ok {
				want = append(want, row[0].Int())
			}
		}
		fired = fired[:0]
		got, err := tbl.Delete(pred)
		if err != nil || got != len(want) {
			t.Fatalf("Delete(%s): %d rows, %v; want %d", pred, got, err, len(want))
		}
		if !slices.Equal(fired, want) {
			t.Errorf("Delete(%s): trigger saw %d keys, want %d in slot order", pred, len(fired), len(want))
		}
	}
}

func TestTriggerMayAccessTable(t *testing.T) {
	// Fig. 9 pattern: the insert trigger on the queue table reads the table.
	tbl := newOrdersTable()
	tbl.AddTrigger(OnInsert, func(tab *Table, _, _ Row) error {
		_ = tab.Scan() // must not deadlock
		return nil
	})
	if err := tbl.Insert(Row{NewInt(1), NewInt(10), NewString("OPEN"), NewFloat(1)}); err != nil {
		t.Fatal(err)
	}
}

func TestSecondaryIndexLookup(t *testing.T) {
	tbl := newOrdersTable()
	if err := tbl.CreateIndex("Custkey"); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 100; i++ {
		_ = tbl.Insert(Row{NewInt(int64(i)), NewInt(int64(i % 10)), NewString("S"), NewFloat(0)})
	}
	rel, err := tbl.SelectWhere(ColEq("Custkey", NewInt(3)))
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 10 {
		t.Fatalf("index lookup: %d rows, want 10", rel.Len())
	}
	for i := 0; i < rel.Len(); i++ {
		if rel.Get(i, "Custkey").Int() != 3 {
			t.Errorf("wrong row from index: %v", rel.Row(i))
		}
	}
}

func TestSecondaryIndexMaintainedOnDeleteAndUpdate(t *testing.T) {
	tbl := newOrdersTable()
	_ = tbl.CreateIndex("Custkey")
	for i := 1; i <= 10; i++ {
		_ = tbl.Insert(Row{NewInt(int64(i)), NewInt(1), NewString("S"), NewFloat(0)})
	}
	_, _ = tbl.Delete(Cmp("Ordkey", OpLe, NewInt(5)))
	rel, _ := tbl.SelectWhere(ColEq("Custkey", NewInt(1)))
	if rel.Len() != 5 {
		t.Fatalf("after delete: %d rows via index, want 5", rel.Len())
	}
	_, _ = tbl.Update(ColEq("Ordkey", NewInt(6)), func(r Row) Row {
		r[1] = NewInt(2)
		return r
	})
	rel, _ = tbl.SelectWhere(ColEq("Custkey", NewInt(1)))
	if rel.Len() != 4 {
		t.Fatalf("after update: %d rows via index, want 4", rel.Len())
	}
	rel, _ = tbl.SelectWhere(ColEq("Custkey", NewInt(2)))
	if rel.Len() != 1 {
		t.Fatalf("after update: %d rows for new value, want 1", rel.Len())
	}
}

func TestIndexOnExistingRows(t *testing.T) {
	tbl := newOrdersTable()
	for i := 1; i <= 10; i++ {
		_ = tbl.Insert(Row{NewInt(int64(i)), NewInt(int64(i % 2)), NewString("S"), NewFloat(0)})
	}
	if err := tbl.CreateIndex("Custkey"); err != nil {
		t.Fatal(err)
	}
	rel, _ := tbl.SelectWhere(ColEq("Custkey", NewInt(0)))
	if rel.Len() != 5 {
		t.Fatalf("index built over existing rows: %d, want 5", rel.Len())
	}
}

func TestIndexUnknownColumn(t *testing.T) {
	if err := newOrdersTable().CreateIndex("Nope"); err == nil {
		t.Fatal("expected error")
	}
}

func TestConcurrentInsertsDistinctKeys(t *testing.T) {
	tbl := newOrdersTable()
	const workers = 8
	const per = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				key := int64(w*per + i)
				if err := tbl.Insert(Row{NewInt(key), NewInt(key % 7), NewString("S"), NewFloat(0)}); err != nil {
					t.Errorf("insert %d: %v", key, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if tbl.Len() != workers*per {
		t.Fatalf("Len = %d, want %d", tbl.Len(), workers*per)
	}
}

func TestConcurrentInsertsSameKeyOnlyOneWins(t *testing.T) {
	tbl := newOrdersTable()
	const workers = 16
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- tbl.Insert(Row{NewInt(1), NewInt(1), NewString("S"), NewFloat(0)})
		}()
	}
	wg.Wait()
	close(errs)
	ok, dup := 0, 0
	for err := range errs {
		if err == nil {
			ok++
		} else {
			dup++
		}
	}
	if ok != 1 || dup != workers-1 {
		t.Fatalf("ok=%d dup=%d", ok, dup)
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	tbl := newOrdersTable()
	done := make(chan struct{})
	go func() {
		for i := 0; i < 500; i++ {
			_ = tbl.Insert(Row{NewInt(int64(i)), NewInt(int64(i % 5)), NewString("S"), NewFloat(0)})
		}
		close(done)
	}()
	for {
		select {
		case <-done:
			if tbl.Len() != 500 {
				t.Fatalf("final Len = %d", tbl.Len())
			}
			return
		default:
			_ = tbl.Scan()
			_, _ = tbl.SelectWhere(ColEq("Custkey", NewInt(2)))
		}
	}
}

// TestInsertAllAmortizedGrowth loads 1,000 one-row batches into a keyed
// table. The row store must grow geometrically (a few dozen
// reallocations, not one per batch), and the table must end up exactly
// like a twin loaded row at a time — rows in slot order, PK lookups,
// version, and free-slot reuse after deletes.
func TestInsertAllAmortizedGrowth(t *testing.T) {
	const batches = 1000
	bulk, twin := newOrdersTable(), newOrdersTable()
	row := func(i int) Row {
		return Row{NewInt(int64(i)), NewInt(int64(i % 7)), NewString("OPEN"), NewFloat(float64(i) / 3)}
	}
	rowsCap, rowsGrew := cap(bulk.rows), 0
	for i := 0; i < batches; i++ {
		if err := bulk.InsertAll(MustRelation(bulk.Schema(), []Row{row(i)})); err != nil {
			t.Fatal(err)
		}
		if err := twin.Insert(row(i)); err != nil {
			t.Fatal(err)
		}
		if c := cap(bulk.rows); c != rowsCap {
			rowsGrew, rowsCap = rowsGrew+1, c
		}
	}
	if rowsGrew > 25 {
		t.Errorf("%d one-row batches reallocated the row store %d times, want <= 25",
			batches, rowsGrew)
	}
	assertSameTable(t, bulk, twin)

	// Free the slots of one customer's orders, then reload as many new
	// orders in one batch: the batch must land in the freed slots.
	for _, tbl := range []*Table{bulk, twin} {
		if _, err := tbl.Delete(ColEq("Custkey", NewInt(3))); err != nil {
			t.Fatal(err)
		}
	}
	freed := len(bulk.free)
	if freed == 0 {
		t.Fatal("delete freed no slots")
	}
	slots := len(bulk.rows)
	reload := make([]Row, freed)
	for i := range reload {
		reload[i] = row(batches + i)
		if err := twin.Insert(reload[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := bulk.InsertAll(MustRelation(bulk.Schema(), reload)); err != nil {
		t.Fatal(err)
	}
	if len(bulk.rows) != slots || len(bulk.free) != 0 {
		t.Errorf("reload of %d rows grew the row store %d -> %d slots (%d still free), want freed slots reused",
			freed, slots, len(bulk.rows), len(bulk.free))
	}
	assertSameTable(t, bulk, twin)
}

// assertSameTable checks that two tables hold the same rows in the same
// slot order, answer the same PK lookups and carry the same version.
func assertSameTable(t *testing.T, got, want *Table) {
	t.Helper()
	g, w := got.Scan(), want.Scan()
	if g.Len() != w.Len() {
		t.Fatalf("scan: %d rows, want %d", g.Len(), w.Len())
	}
	for i := 0; i < g.Len(); i++ {
		if !sameRow(g.Row(i), w.Row(i)) {
			t.Fatalf("scan row %d: %v, want %v", i, g.Row(i), w.Row(i))
		}
		if l := got.Lookup(w.Row(i)[0]); !sameRow(l, w.Row(i)) {
			t.Fatalf("lookup %v: %v, want %v", w.Row(i)[0], l, w.Row(i))
		}
	}
	if gv, wv := got.Version(), want.Version(); gv != wv {
		t.Fatalf("version %d, want %d", gv, wv)
	}
}

func sameRow(a, b Row) bool { return slices.EqualFunc(a, b, Value.Equal) }

// TestScanSnapshotCache pins the copy-on-write contract: repeated scans
// of a quiet table share one materialization, and any mutation swaps in
// a fresh one without disturbing handed-out snapshots.
func TestScanSnapshotCache(t *testing.T) {
	tab := newOrdersTable()
	row := func(k int64) Row { return Row{NewInt(k), NewInt(k % 3), NewString("a"), NewFloat(float64(k))} }
	for k := int64(0); k < 4; k++ {
		if err := tab.Insert(row(k)); err != nil {
			t.Fatal(err)
		}
	}
	s1 := tab.Scan()
	s2 := tab.Scan()
	if s1 != s2 {
		t.Fatal("scans of an unchanged table should share the cached snapshot")
	}
	all, err := tab.SelectWhere(True())
	if err != nil {
		t.Fatal(err)
	}
	if all != s1 {
		t.Fatal("SelectWhere(True) should reuse the cached snapshot")
	}
	if err := tab.Insert(row(100)); err != nil {
		t.Fatal(err)
	}
	s3 := tab.Scan()
	if s3 == s1 {
		t.Fatal("mutation must invalidate the cached snapshot")
	}
	if s1.Len() != 4 || s3.Len() != 5 {
		t.Fatalf("old snapshot must stay frozen: len %d/%d", s1.Len(), s3.Len())
	}
}

// TestReplacedRowsAreReleased stores rows and replaces them three ways:
// Truncate, a Delete without triggers and an Upsert overwrite. Once the
// table has moved on, none of the replaced rows may stay reachable from
// it. InsertAll stores the test-built rows themselves, and a finalizer on
// each row's first cell (the start of its backing array) counts the rows
// the collector has freed.
func TestReplacedRowsAreReleased(t *testing.T) {
	const n = 64
	cases := []struct {
		name     string
		replace  func(*Table) error
		released int // rows the replacement must free
	}{
		{"truncate", func(tbl *Table) error { tbl.Truncate(); return nil }, n},
		{"delete", func(tbl *Table) error {
			_, err := tbl.Delete(Cmp("Ordkey", OpLt, NewInt(n/2)))
			return err
		}, n / 2},
		{"upsert", func(tbl *Table) error {
			for k := int64(0); k < n/4; k++ {
				if err := tbl.Upsert(Row{NewInt(k), NewInt(0), NewString("NEW"), NewFloat(0)}); err != nil {
					return err
				}
			}
			return nil
		}, n / 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var freed atomic.Int64
			tbl := newOrdersTable()
			if err := tbl.InsertAll(trackedRows(tbl.Schema(), n, &freed)); err != nil {
				t.Fatal(err)
			}
			_ = tbl.Scan() // a cached snapshot must not pin the rows either
			if err := c.replace(tbl); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 100 && freed.Load() < int64(c.released); i++ {
				runtime.GC()
				time.Sleep(time.Millisecond)
			}
			if got := freed.Load(); got != int64(c.released) {
				t.Errorf("%s freed %d of the %d replaced rows (%d stored)", c.name, got, c.released, n)
			}
			runtime.KeepAlive(tbl)
		})
	}
}

// trackedRows builds n fresh order rows whose first cells carry a
// finalizer that counts into freed.
func trackedRows(s *Schema, n int, freed *atomic.Int64) *Relation {
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{NewInt(int64(i)), NewInt(int64(i % 3)), NewString("OPEN"), NewFloat(float64(i))}
		runtime.SetFinalizer(&rows[i][0], func(*Value) { freed.Add(1) })
	}
	return MustRelation(s, rows)
}

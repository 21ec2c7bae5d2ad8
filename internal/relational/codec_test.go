package relational

import (
	"math"
	"testing"
	"time"
)

func populateSnapshotDB(t *testing.T, db *Database) {
	t.Helper()
	s, err := NewSchema([]Column{
		{Name: "Id", Type: TypeInt},
		{Name: "Name", Type: TypeString, Nullable: true},
		{Name: "Amount", Type: TypeFloat},
		{Name: "Active", Type: TypeBool},
		{Name: "Seen", Type: TypeTime},
	}, "Id")
	if err != nil {
		t.Fatal(err)
	}
	tb, err := db.CreateTable("Items", s)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.CreateIndex("Name"); err != nil {
		t.Fatal(err)
	}
	base := time.Unix(0, 1700000000000000000)
	for i := 0; i < 50; i++ {
		row := Row{NewInt(int64(i)), NewString("n"), NewFloat(float64(i) * 1.5), NewBool(i%2 == 0), NewTime(base)}
		if i%7 == 0 {
			row[1] = Value{} // NULL
		}
		if err := tb.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	// Mix in deletes and updates so slots, indexes and version move.
	del := PredicateFunc("Id%10=3", func(s *Schema, r Row) (bool, error) { return r[0].Int()%10 == 3, nil })
	if _, err := tb.Delete(del); err != nil {
		t.Fatal(err)
	}
	upd := PredicateFunc("Id%5=0", func(s *Schema, r Row) (bool, error) { return r[0].Int()%5 == 0, nil })
	if _, err := tb.Update(upd, func(r Row) Row {
		nr := r.Clone()
		nr[2] = NewFloat(r[2].Float() + 100)
		return nr
	}); err != nil {
		t.Fatal(err)
	}
}

func snapshotTestDB(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase("snaptest")
	populateSnapshotDB(t, db)
	return db
}

func relEqual(t *testing.T, a, b *Relation) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("row counts differ: %d vs %d", a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		ra, rb := a.Row(i), b.Row(i)
		if len(ra) != len(rb) {
			t.Fatalf("row %d widths differ", i)
		}
		for c := range ra {
			if !ra[c].Equal(rb[c]) {
				t.Fatalf("row %d col %d: %s vs %s", i, c, ra[c], rb[c])
			}
		}
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	src := snapshotTestDB(t)
	blob, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	dst := snapshotTestDB(t)
	// Perturb the destination so restore has real work to do.
	if err := dst.MustTable("Items").Insert(Row{NewInt(999), NewString("x"), NewFloat(0), NewBool(false), NewTime(time.Unix(0, 1))}); err != nil {
		t.Fatal(err)
	}
	n, err := dst.Restore(blob)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := src.MustTable("Items").snapshotRows()
	if n != len(want) {
		t.Fatalf("restored %d rows, want %d", n, len(want))
	}
	relEqual(t, src.MustTable("Items").Scan(), dst.MustTable("Items").Scan())
	if sv, dv := src.MustTable("Items").Version(), dst.MustTable("Items").Version(); sv != dv {
		t.Fatalf("versions differ after restore: %d vs %d", sv, dv)
	}
	// Indexes were rebuilt: an indexed lookup must find the same rows.
	got, err := dst.MustTable("Items").SelectWhere(ColEq("Name", NewString("n")))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := src.MustTable("Items").SelectWhere(ColEq("Name", NewString("n")))
	if err != nil {
		t.Fatal(err)
	}
	relEqual(t, ref, got)
	// The PK was rebuilt: inserting a duplicate key must fail...
	if err := dst.MustTable("Items").Insert(Row{NewInt(1), NewString("dup"), NewFloat(0), NewBool(false), NewTime(time.Unix(0, 1))}); err == nil {
		t.Fatal("duplicate key accepted after restore")
	}
	// ...and new non-duplicate mutations work normally.
	if err := dst.MustTable("Items").Insert(Row{NewInt(1000), NewString("new"), NewFloat(1), NewBool(true), NewTime(time.Unix(0, 2))}); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreResetsJournal(t *testing.T) {
	src := snapshotTestDB(t)
	blob, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	dst := snapshotTestDB(t)
	if _, err := dst.Restore(blob); err != nil {
		t.Fatal(err)
	}
	tb := dst.MustTable("Items")
	v := tb.Version()
	// A watermark from before the restored version cannot be served
	// incrementally; the reader must get the loud delta-unavailable error
	// and fall back to a Reset snapshot.
	if _, err := tb.ChangesSince(v - 1); err == nil {
		t.Fatal("pre-restore watermark must not be served from an empty journal")
	}
	d, err := tb.DeltaSince(v)
	if err != nil {
		t.Fatal(err)
	}
	if d.Reset {
		t.Fatal("watermark at the restored version must read an empty incremental delta")
	}
	// Post-restore changes journal normally.
	if err := tb.Insert(Row{NewInt(5000), NewString("j"), NewFloat(0), NewBool(true), NewTime(time.Unix(0, 3))}); err != nil {
		t.Fatal(err)
	}
	d2, err := tb.DeltaSince(v)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Reset || d2.Inserts.Len() != 1 {
		t.Fatalf("post-restore delta: reset=%v inserts=%d", d2.Reset, d2.Inserts.Len())
	}
}

func TestRestoreRejectsDrift(t *testing.T) {
	src := snapshotTestDB(t)
	blob, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewSchema([]Column{{Name: "K", Type: TypeInt}}, "K")
	if err != nil {
		t.Fatal(err)
	}
	// Different catalog: extra table.
	dst := snapshotTestDB(t)
	if _, err := dst.CreateTable("Other", s2); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.Restore(blob); err == nil {
		t.Fatal("restore into a wider catalog must fail")
	}
	// Different schema on the same table name.
	dst2 := NewDatabase("snaptest")
	if _, err := dst2.CreateTable("Items", s2); err != nil {
		t.Fatal(err)
	}
	if _, err := dst2.Restore(blob); err == nil {
		t.Fatal("restore across schema drift must fail")
	}
	// Truncated blob.
	src2 := snapshotTestDB(t)
	if _, err := src2.Restore(blob[:len(blob)/2]); err == nil {
		t.Fatal("restore of truncated blob must fail")
	}
	if _, err := src2.Restore([]byte("JUNKMAGIC")); err == nil {
		t.Fatal("restore of junk must fail")
	}
}

func TestConnSnapshotRestore(t *testing.T) {
	srv := NewServer(0)
	db := srv.CreateInstance("snaptest")
	populateSnapshotDB(t, db)
	conn := srv.MustConnect("snaptest")
	blob, err := conn.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.MustTable("Items").Insert(Row{NewInt(7777), NewString("z"), NewFloat(0), NewBool(false), NewTime(time.Unix(0, 9))}); err != nil {
		t.Fatal(err)
	}
	before := db.MustTable("Items").Len()
	n, err := conn.Restore(blob)
	if err != nil {
		t.Fatal(err)
	}
	if db.MustTable("Items").Len() != before-1 {
		t.Fatalf("restore did not roll back the extra row: %d rows, restored %d", db.MustTable("Items").Len(), n)
	}
}

// FuzzValueCodec checks that every typed cell survives the checkpoint
// value codec bit for bit, float payloads (signed zeros, NaN payloads,
// subnormals) included. The seed corpus is the pinned float edge cases.
func FuzzValueCodec(f *testing.F) {
	for _, e := range floatEdges {
		f.Add(uint8(TypeFloat), int64(e.bits), "")
	}
	f.Add(uint8(TypeNull), int64(0), "")
	f.Add(uint8(TypeInt), int64(math.MinInt64), "")
	f.Add(uint8(TypeString), int64(0), "héllo\x00")
	f.Add(uint8(TypeBool), int64(1), "")
	f.Add(uint8(TypeTime), int64(1700000000000000000), "")
	f.Fuzz(func(t *testing.T, tag uint8, word int64, s string) {
		var v Value
		switch Type(tag % 6) {
		case TypeInt:
			v = NewInt(word)
		case TypeFloat:
			v = NewFloat(math.Float64frombits(uint64(word)))
		case TypeString:
			v = NewString(s)
		case TypeBool:
			v = NewBool(word&1 == 1)
		case TypeTime:
			v = NewTime(time.Unix(0, word))
		}
		d := &snapDecoder{b: appendValue(nil, v)}
		got := d.value()
		if d.err != nil || len(d.b) != 0 {
			t.Fatalf("decode %v: err %v, %d bytes left", v, d.err, len(d.b))
		}
		if !valueBits(got, v) {
			t.Fatalf("round trip: got %v (%s, %#x), want %v (%s, %#x)", got, got.typ, got.i, v, v.typ, v.i)
		}
	})
}

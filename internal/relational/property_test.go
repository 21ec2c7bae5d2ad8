package relational

import (
	"testing"
	"testing/quick"
)

// genRelation builds a two-column relation from fuzzed keys; values derive
// from keys so duplicates are true duplicates.
func genRelation(keys []int64) *Relation {
	s := MustSchema([]Column{Col("K", TypeInt), Col("V", TypeInt)})
	rows := make([]Row, len(keys))
	for i, k := range keys {
		rows[i] = Row{NewInt(k), NewInt(k * 7)}
	}
	return MustRelation(s, rows)
}

func TestUnionDistinctProducesUniqueKeysProperty(t *testing.T) {
	f := func(a, b []int64) bool {
		ra, rb := genRelation(a), genRelation(b)
		u, err := ra.UnionDistinct([]string{"K"}, rb)
		if err != nil {
			return false
		}
		seen := map[int64]bool{}
		for i := 0; i < u.Len(); i++ {
			k := u.Get(i, "K").Int()
			if seen[k] {
				return false
			}
			seen[k] = true
		}
		// Every input key is present.
		for _, k := range append(a, b...) {
			if !seen[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnionDistinctOperandOrderIrrelevantForKeySet(t *testing.T) {
	f := func(a, b []int64) bool {
		ra, rb := genRelation(a), genRelation(b)
		u1, err1 := ra.UnionDistinct([]string{"K"}, rb)
		u2, err2 := rb.UnionDistinct([]string{"K"}, ra)
		if err1 != nil || err2 != nil {
			return false
		}
		return u1.Len() == u2.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJoinCardinalityBoundProperty(t *testing.T) {
	f := func(a, b []int64) bool {
		if len(a) > 50 {
			a = a[:50]
		}
		if len(b) > 50 {
			b = b[:50]
		}
		ra := genRelation(a)
		rb, err := genRelation(b).RenameAll(map[string]string{"V": "W"})
		if err != nil {
			return false
		}
		j, err := ra.Join(rb, "K", "K", "r_")
		if err != nil {
			return false
		}
		return j.Len() <= ra.Len()*rb.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJoinSymmetricCardinalityProperty(t *testing.T) {
	f := func(a, b []int64) bool {
		if len(a) > 40 {
			a = a[:40]
		}
		if len(b) > 40 {
			b = b[:40]
		}
		ra := genRelation(a)
		rb, err := genRelation(b).RenameAll(map[string]string{"V": "W"})
		if err != nil {
			return false
		}
		j1, err1 := ra.Join(rb, "K", "K", "r_")
		j2, err2 := rb.Join(ra, "K", "K", "l_")
		if err1 != nil || err2 != nil {
			return false
		}
		return j1.Len() == j2.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSortIdempotentProperty(t *testing.T) {
	f := func(keys []int64) bool {
		r := genRelation(keys)
		s1, err := r.Sort("K")
		if err != nil {
			return false
		}
		s2, err := s1.Sort("K")
		if err != nil {
			return false
		}
		for i := 0; i < s1.Len(); i++ {
			if !s1.Row(i).Equal(s2.Row(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSelectPartitionProperty(t *testing.T) {
	// select(p) ∪ select(not p) == r for NULL-free data.
	f := func(keys []int64, pivot int64) bool {
		r := genRelation(keys)
		p := Cmp("K", OpLt, NewInt(pivot))
		yes, err := r.Select(p)
		if err != nil {
			return false
		}
		no, err := r.Select(Not(p))
		if err != nil {
			return false
		}
		return yes.Len()+no.Len() == r.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTableInsertScanRoundTripProperty(t *testing.T) {
	f := func(keys []int64) bool {
		seen := map[int64]bool{}
		tbl := NewTable("T", MustSchema([]Column{Col("K", TypeInt)}, "K"))
		inserted := 0
		for _, k := range keys {
			if seen[k] {
				continue
			}
			seen[k] = true
			if err := tbl.Insert(Row{NewInt(k)}); err != nil {
				return false
			}
			inserted++
		}
		if tbl.Len() != inserted {
			return false
		}
		for k := range seen {
			if tbl.Lookup(NewInt(k)) == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSQLInsertSelectRoundTripProperty(t *testing.T) {
	f := func(vals []int16) bool {
		db := NewDatabase("prop")
		tbl := db.MustCreateTable("T", MustSchema([]Column{Col("K", TypeInt)}, "K"))
		seen := map[int16]bool{}
		n := 0
		for _, v := range vals {
			if seen[v] {
				continue
			}
			seen[v] = true
			if _, err := db.Exec("INSERT INTO T VALUES (" + NewInt(int64(v)).String() + ")"); err != nil {
				return false
			}
			n++
		}
		return tbl.Len() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

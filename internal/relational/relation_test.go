package relational

import (
	"testing"
	"testing/quick"
)

func ordersSchema() *Schema {
	return MustSchema([]Column{
		Col("Ordkey", TypeInt),
		Col("Custkey", TypeInt),
		Col("Status", TypeString),
		Col("Total", TypeFloat),
	}, "Ordkey")
}

func sampleOrders() *Relation {
	return MustRelation(ordersSchema(), []Row{
		{NewInt(1), NewInt(10), NewString("OPEN"), NewFloat(100)},
		{NewInt(2), NewInt(20), NewString("SHIPPED"), NewFloat(250)},
		{NewInt(3), NewInt(10), NewString("OPEN"), NewFloat(75)},
		{NewInt(4), NewInt(30), NewString("CLOSED"), NewFloat(50)},
	})
}

func TestNewRelationValidatesRows(t *testing.T) {
	s := ordersSchema()
	_, err := NewRelation(s, []Row{{NewInt(1), NewInt(2), NewString("X")}})
	if err == nil {
		t.Fatal("expected arity error")
	}
	_, err = NewRelation(s, []Row{{NewString("bad"), NewInt(2), NewString("X"), NewFloat(1)}})
	if err == nil {
		t.Fatal("expected type error")
	}
	_, err = NewRelation(s, []Row{{Null, NewInt(2), NewString("X"), NewFloat(1)}})
	if err == nil {
		t.Fatal("expected null-in-non-nullable error")
	}
}

func TestSelect(t *testing.T) {
	r := sampleOrders()
	got, err := r.Select(ColEq("Status", NewString("OPEN")))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("Select: got %d rows, want 2", got.Len())
	}
	for i := 0; i < got.Len(); i++ {
		if got.Get(i, "Status").Str() != "OPEN" {
			t.Errorf("row %d has status %v", i, got.Get(i, "Status"))
		}
	}
}

func TestSelectUnknownColumnErrors(t *testing.T) {
	if _, err := sampleOrders().Select(ColEq("Nope", NewInt(1))); err == nil {
		t.Fatal("expected error for unknown column")
	}
}

func TestProject(t *testing.T) {
	r := sampleOrders()
	got, err := r.Project("Custkey", "Total")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Schema().Columns) != 2 {
		t.Fatalf("Project schema: %s", got.Schema())
	}
	if got.Get(0, "Custkey").Int() != 10 || got.Get(0, "Total").Float() != 100 {
		t.Errorf("Project row 0: %v", got.Row(0))
	}
	// Key should be dropped since Ordkey is projected away.
	if got.Schema().HasKey() {
		t.Error("projected schema should not keep a broken key")
	}
}

func TestProjectKeepsKeyWhenKeySurvives(t *testing.T) {
	got, err := sampleOrders().Project("Ordkey", "Status")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Schema().HasKey() {
		t.Error("key column survived, key should be kept")
	}
}

func TestRename(t *testing.T) {
	got, err := sampleOrders().Rename("Custkey", "CustomerID")
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema().Ordinal("CustomerID") != 1 || got.Schema().Ordinal("Custkey") >= 0 {
		t.Errorf("Rename schema: %s", got.Schema())
	}
}

func TestRenameAll(t *testing.T) {
	got, err := sampleOrders().RenameAll(map[string]string{
		"Ordkey": "OrderID", "Total": "Amount",
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"OrderID", "Amount", "Custkey", "Status"} {
		if got.Schema().Ordinal(name) < 0 {
			t.Errorf("missing column %q after RenameAll", name)
		}
	}
}

func TestUnionDistinctByKey(t *testing.T) {
	a := sampleOrders()
	b := MustRelation(ordersSchema(), []Row{
		{NewInt(3), NewInt(99), NewString("DUP"), NewFloat(0)}, // dup key 3
		{NewInt(5), NewInt(40), NewString("NEW"), NewFloat(10)},
	})
	got, err := a.UnionDistinct([]string{"Ordkey"}, b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 5 {
		t.Fatalf("UnionDistinct: got %d rows, want 5", got.Len())
	}
	// First occurrence wins: key 3 keeps status OPEN from a.
	for i := 0; i < got.Len(); i++ {
		if got.Get(i, "Ordkey").Int() == 3 && got.Get(i, "Status").Str() != "OPEN" {
			t.Errorf("duplicate resolution: got %v", got.Row(i))
		}
	}
}

func TestUnionDistinctWholeRow(t *testing.T) {
	a := sampleOrders()
	got, err := a.UnionDistinct(nil, a)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != a.Len() {
		t.Fatalf("self union distinct: got %d, want %d", got.Len(), a.Len())
	}
}

func TestUnionDistinctIncompatibleSchemas(t *testing.T) {
	other := MustRelation(MustSchema([]Column{Col("X", TypeInt)}), nil)
	if _, err := sampleOrders().UnionDistinct(nil, other); err == nil {
		t.Fatal("expected schema mismatch error")
	}
}

func TestUnionDistinctIdempotentProperty(t *testing.T) {
	// union(r, r) == r for any generated relation (by whole-row identity).
	f := func(keys []int64) bool {
		s := MustSchema([]Column{Col("K", TypeInt)})
		rows := make([]Row, len(keys))
		for i, k := range keys {
			rows[i] = Row{NewInt(k)}
		}
		r := MustRelation(s, rows)
		u1, err := r.UnionDistinct(nil)
		if err != nil {
			return false
		}
		u2, err := u1.UnionDistinct(nil, u1)
		if err != nil {
			return false
		}
		return u1.Len() == u2.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSelectionCommutesWithProjectionProperty(t *testing.T) {
	// σ(π(r)) == π(σ(r)) when the predicate only references kept columns.
	f := func(vals []int64) bool {
		s := MustSchema([]Column{Col("A", TypeInt), Col("B", TypeInt)})
		rows := make([]Row, len(vals))
		for i, v := range vals {
			rows[i] = Row{NewInt(v), NewInt(v * 2)}
		}
		r := MustRelation(s, rows)
		pred := Cmp("A", OpGt, NewInt(0))
		p1, err := r.Project("A")
		if err != nil {
			return false
		}
		left, err := p1.Select(pred)
		if err != nil {
			return false
		}
		s1, err := r.Select(pred)
		if err != nil {
			return false
		}
		right, err := s1.Project("A")
		if err != nil {
			return false
		}
		if left.Len() != right.Len() {
			return false
		}
		for i := 0; i < left.Len(); i++ {
			if !left.Row(i).Equal(right.Row(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJoin(t *testing.T) {
	customers := MustRelation(MustSchema([]Column{
		Col("Custkey", TypeInt), Col("Name", TypeString),
	}, "Custkey"), []Row{
		{NewInt(10), NewString("Ada")},
		{NewInt(20), NewString("Bob")},
	})
	got, err := sampleOrders().Join(customers, "Custkey", "Custkey", "c_")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 { // orders with custkey 10,20,10 match; 30 does not
		t.Fatalf("Join: got %d rows, want 3", got.Len())
	}
	if got.Schema().Ordinal("Name") < 0 {
		t.Fatalf("join schema missing Name: %s", got.Schema())
	}
	for i := 0; i < got.Len(); i++ {
		ck := got.Get(i, "Custkey").Int()
		name := got.Get(i, "Name").Str()
		if (ck == 10 && name != "Ada") || (ck == 20 && name != "Bob") {
			t.Errorf("join row %d: custkey %d name %s", i, ck, name)
		}
	}
}

func TestJoinClashPrefix(t *testing.T) {
	left := MustRelation(MustSchema([]Column{
		Col("K", TypeInt), Col("Name", TypeString),
	}), []Row{{NewInt(1), NewString("l")}})
	right := MustRelation(MustSchema([]Column{
		Col("K", TypeInt), Col("Name", TypeString),
	}), []Row{{NewInt(1), NewString("r")}})
	got, err := left.Join(right, "K", "K", "r_")
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema().Ordinal("r_Name") < 0 {
		t.Fatalf("expected clash prefix, schema %s", got.Schema())
	}
	if got.Get(0, "Name").Str() != "l" || got.Get(0, "r_Name").Str() != "r" {
		t.Errorf("clash values: %v", got.Row(0))
	}
	// Without a prefix the clash must error.
	if _, err := left.Join(right, "K", "K", ""); err == nil {
		t.Fatal("expected ambiguous column error")
	}
}

func TestJoinSkipsNullKeys(t *testing.T) {
	left := MustRelation(MustSchema([]Column{NullableCol("K", TypeInt)}), []Row{{Null}})
	right := MustRelation(MustSchema([]Column{NullableCol("K", TypeInt)}), []Row{{Null}})
	got, err := left.Join(right, "K", "K", "r_")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Errorf("NULL keys must not join, got %d rows", got.Len())
	}
}

func TestSort(t *testing.T) {
	got, err := sampleOrders().Sort("Custkey", "Ordkey")
	if err != nil {
		t.Fatal(err)
	}
	var prev Row
	for i := 0; i < got.Len(); i++ {
		row := got.Row(i)
		if prev != nil {
			c := prev[1].Compare(row[1])
			if c > 0 || (c == 0 && prev[0].Compare(row[0]) > 0) {
				t.Fatalf("not sorted at %d: %v after %v", i, row, prev)
			}
		}
		prev = row
	}
}

func TestExtend(t *testing.T) {
	cols := []Column{NullableCol("Doubled", TypeFloat), NullableCol("Big", TypeBool)}
	src := sampleOrders()
	got, err := src.ExtendMany(cols, func(r Row, out []Value) {
		out[0] = NewFloat(r[3].Float() * 2)
		out[1] = NewBool(r[3].Float() > 150)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Get(0, "Doubled").Float() != 200 || got.Get(0, "Big").Bool() || !got.Get(1, "Big").Bool() {
		t.Errorf("ExtendMany: %v / %v", got.Row(0), got.Row(1))
	}
	// Source relation untouched.
	if len(src.Schema().Columns) != 4 || len(src.Row(0)) != 4 {
		t.Error("source relation mutated")
	}
	if _, err := src.ExtendMany([]Column{Col("Total", TypeInt)}, func(Row, []Value) {}); err == nil {
		t.Error("duplicate column name accepted")
	}
}

func TestGroupBy(t *testing.T) {
	got, err := sampleOrders().GroupBy([]string{"Custkey"}, []AggSpec{
		{Func: "count", As: "N"},
		{Func: "sum", Col: "Total", As: "SumTotal"},
		{Func: "min", Col: "Total", As: "MinTotal"},
		{Func: "max", Col: "Total", As: "MaxTotal"},
		{Func: "avg", Col: "Total", As: "AvgTotal"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 {
		t.Fatalf("GroupBy: got %d groups, want 3", got.Len())
	}
	byKey := map[int64]Row{}
	for i := 0; i < got.Len(); i++ {
		byKey[got.Get(i, "Custkey").Int()] = got.Row(i)
	}
	g10 := byKey[10]
	if g10 == nil {
		t.Fatal("missing group 10")
	}
	s := got.Schema()
	if g10[s.MustOrdinal("N")].Int() != 2 {
		t.Errorf("count for 10: %v", g10)
	}
	if g10[s.MustOrdinal("SumTotal")].Float() != 175 {
		t.Errorf("sum for 10: %v", g10)
	}
	if g10[s.MustOrdinal("MinTotal")].Float() != 75 || g10[s.MustOrdinal("MaxTotal")].Float() != 100 {
		t.Errorf("min/max for 10: %v", g10)
	}
	if g10[s.MustOrdinal("AvgTotal")].Float() != 87.5 {
		t.Errorf("avg for 10: %v", g10)
	}
}

func TestGroupByIntSum(t *testing.T) {
	s := MustSchema([]Column{Col("G", TypeString), Col("V", TypeInt)})
	r := MustRelation(s, []Row{
		{NewString("a"), NewInt(1)},
		{NewString("a"), NewInt(2)},
		{NewString("b"), NewInt(5)},
	})
	got, err := r.GroupBy([]string{"G"}, []AggSpec{{Func: "sum", Col: "V", As: "S"}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < got.Len(); i++ {
		g := got.Get(i, "G").Str()
		sum := got.Get(i, "S")
		if sum.Type() != TypeInt {
			t.Fatalf("int sum should stay int, got %s", sum.Type())
		}
		if (g == "a" && sum.Int() != 3) || (g == "b" && sum.Int() != 5) {
			t.Errorf("group %s sum %v", g, sum)
		}
	}
}

func TestGroupByCountMatchesLenProperty(t *testing.T) {
	f := func(vals []int64) bool {
		s := MustSchema([]Column{Col("V", TypeInt)})
		rows := make([]Row, len(vals))
		for i, v := range vals {
			rows[i] = Row{NewInt(v % 4)} // few groups
		}
		r := MustRelation(s, rows)
		g, err := r.GroupBy([]string{"V"}, []AggSpec{{Func: "count", As: "N"}})
		if err != nil {
			return false
		}
		total := int64(0)
		for i := 0; i < g.Len(); i++ {
			total += g.Get(i, "N").Int()
		}
		return total == int64(len(vals))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		s, pat string
		want   bool
	}{
		{"hello", "hello", true},
		{"hello", "he%", true},
		{"hello", "%lo", true},
		{"hello", "%ell%", true},
		{"hello", "h%o", true},
		{"hello", "x%", false},
		{"hello", "%x", false},
		{"hello", "h%x%o", false},
		{"", "%", true},
		{"abc", "a%b%c", true},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.pat); got != c.want {
			t.Errorf("likeMatch(%q,%q) = %v, want %v", c.s, c.pat, got, c.want)
		}
	}
}

func TestPredicateCombinators(t *testing.T) {
	r := sampleOrders()
	got, err := r.Select(And(
		Cmp("Total", OpGe, NewFloat(75)),
		Or(ColEq("Status", NewString("OPEN")), ColEq("Status", NewString("SHIPPED"))),
		Not(ColEq("Ordkey", NewInt(1))),
	))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 { // orders 2 and 3
		t.Fatalf("combined predicate: got %d rows, want 2", got.Len())
	}
}

func TestPredicateStringRendering(t *testing.T) {
	p := And(ColEq("A", NewString("x'y")), Or(IsNull("B"), Like("C", "a%")))
	s := p.String()
	for _, want := range []string{"A = 'x''y'", "B IS NULL", "C LIKE 'a%'"} {
		if !contains(s, want) {
			t.Errorf("predicate string %q missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestCmpColsPredicate(t *testing.T) {
	s := MustSchema([]Column{Col("A", TypeInt), Col("B", TypeInt)})
	r := MustRelation(s, []Row{
		{NewInt(1), NewInt(2)},
		{NewInt(3), NewInt(3)},
		{NewInt(5), NewInt(4)},
	})
	got, err := r.Select(CmpCols("A", OpLt, "B"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 || got.Get(0, "A").Int() != 1 {
		t.Errorf("CmpCols: %v", got)
	}
}

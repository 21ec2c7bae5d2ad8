package relational

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestParsePredicateBasics(t *testing.T) {
	s := ordersSchema()
	rows := []Row{
		{NewInt(1), NewInt(10), NewString("OPEN"), NewFloat(100)},
		{NewInt(2), NewInt(20), NewString("CLOSED"), NewFloat(50)},
	}
	cases := []struct {
		expr string
		want []bool
	}{
		{"TRUE", []bool{true, true}},
		{"FALSE", []bool{false, false}},
		{"Ordkey = 1", []bool{true, false}},
		{"Total >= 60", []bool{true, false}},
		{"Status = 'OPEN' OR Status = 'CLOSED'", []bool{true, true}},
		{"Status LIKE 'OP%'", []bool{true, false}},
		{"NOT (Ordkey = 1)", []bool{false, true}},
		{"Custkey IS NOT NULL", []bool{true, true}},
		{"Ordkey IN (2, 3)", []bool{false, true}},
		{"Ordkey = Custkey", []bool{false, false}},
	}
	for _, c := range cases {
		pred, err := ParsePredicate(c.expr)
		if err != nil {
			t.Errorf("%q: %v", c.expr, err)
			continue
		}
		for i, row := range rows {
			got, err := pred.Eval(s, row)
			if err != nil {
				t.Errorf("%q row %d: %v", c.expr, i, err)
				continue
			}
			if got != c.want[i] {
				t.Errorf("%q row %d: %v, want %v", c.expr, i, got, c.want[i])
			}
		}
	}
}

func TestParsePredicateErrors(t *testing.T) {
	for _, expr := range []string{"", "Ordkey =", "AND", "Ordkey = 1 extra"} {
		if _, err := ParsePredicate(expr); err == nil {
			t.Errorf("accepted %q", expr)
		}
	}
}

// TestPredicateStringRoundTrip checks the wire-transport contract: for the
// predicate constructors the benchmark processes use, parsing String()
// yields an equivalent predicate.
func TestPredicateStringRoundTrip(t *testing.T) {
	s := ordersSchema()
	rows := []Row{
		{NewInt(1), NewInt(10), NewString("OPEN"), NewFloat(100)},
		{NewInt(2), NewInt(20), NewString("SHIPPED"), NewFloat(250)},
		{NewInt(3), NewInt(30), NewString("O'Neil"), NewFloat(75)},
	}
	preds := []Predicate{
		True(),
		Or(), // FALSE
		ColEq("Ordkey", NewInt(2)),
		Cmp("Total", OpGe, NewFloat(100)),
		Cmp("Status", OpNe, NewString("OPEN")),
		ColEq("Status", NewString("O'Neil")), // quote escaping
		And(ColEq("Custkey", NewInt(10)), Cmp("Total", OpLt, NewFloat(200))),
		Or(ColEq("Ordkey", NewInt(1)), ColEq("Ordkey", NewInt(3))),
		Not(ColEq("Ordkey", NewInt(2))),
		IsNotNull("Custkey"),
		IsNull("Custkey"),
		Like("Status", "O%"),
		CmpCols("Ordkey", OpLt, "Custkey"),
		ColEq("Integrated", NewBool(false)),
	}
	boolSchema := MustSchema([]Column{Col("Integrated", TypeBool)})
	boolRow := Row{NewBool(false)}
	for _, p := range preds {
		parsed, err := ParsePredicate(p.String())
		if err != nil {
			t.Errorf("parse %q: %v", p.String(), err)
			continue
		}
		for i, row := range rows {
			schemaFor, rowFor := s, row
			if p.String() == "Integrated = true" || p.String() == "Integrated = false" {
				schemaFor, rowFor = boolSchema, boolRow
			}
			want, err1 := p.Eval(schemaFor, rowFor)
			got, err2 := parsed.Eval(schemaFor, rowFor)
			if (err1 == nil) != (err2 == nil) {
				t.Errorf("%q row %d: error mismatch %v vs %v", p.String(), i, err1, err2)
				continue
			}
			if want != got {
				t.Errorf("%q row %d: %v, want %v", p.String(), i, got, want)
			}
		}
	}
}

func TestPredicateTimeValuesNotWireTransportable(t *testing.T) {
	// Timestamp literals render as RFC3339, which the SQL lexer does not
	// accept as a literal; the remote protocol must not rely on them.
	p := ColEq("Orderdate", NewTime(time.Date(2008, 4, 7, 0, 0, 0, 0, time.UTC)))
	if _, err := ParsePredicate(p.String()); err == nil {
		t.Skip("timestamp predicates became parseable; relax this pin")
	}
}

func TestParsePredicateRoundTripProperty(t *testing.T) {
	f := func(key int64, total float64) bool {
		if math.IsNaN(total) || math.IsInf(total, 0) {
			return true // not representable as SQL literals
		}
		p := And(
			ColEq("Ordkey", NewInt(key)),
			Cmp("Total", OpGt, NewFloat(total)),
		)
		parsed, err := ParsePredicate(p.String())
		if err != nil {
			return false
		}
		s := ordersSchema()
		row := Row{NewInt(key), NewInt(0), NewString("X"), NewFloat(total + 1)}
		want, _ := p.Eval(s, row)
		got, _ := parsed.Eval(s, row)
		return want == got
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// whereKeys inserts rows into a fresh Orders table, filters it with the
// parsed WHERE expression the way the dbproto server does, and returns
// the matching Ordkeys in ascending order.
func whereKeys(t *testing.T, insert, expr string) []int64 {
	t.Helper()
	db := newTestDB(t)
	mustExec(t, db, insert)
	pred, err := ParsePredicate(expr)
	if err != nil {
		t.Fatalf("%q: %v", expr, err)
	}
	got, err := db.Table("Orders").SelectWhere(pred)
	if err != nil {
		t.Fatalf("%q: %v", expr, err)
	}
	got, err = got.Sort("Ordkey")
	if err != nil {
		t.Fatal(err)
	}
	keys := []int64{}
	for i := 0; i < got.Len(); i++ {
		keys = append(keys, got.Get(i, "Ordkey").Int())
	}
	return keys
}

func wantKeys(t *testing.T, expr string, got []int64, want ...int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%q: keys %v, want %v", expr, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%q: keys %v, want %v", expr, got, want)
		}
	}
}

func TestSQLWherePrecedence(t *testing.T) {
	ins := `INSERT INTO Orders VALUES
		(1, 10, 'OPEN', 10), (2, 10, 'CLOSED', 20),
		(3, 20, 'OPEN', 30), (4, 20, 'CLOSED', 40)`
	// AND binds tighter than OR: matches (custkey=10 AND status=OPEN) or ordkey=4.
	for _, c := range []struct {
		expr string
		want []int64
	}{
		{`Custkey = 10 AND Status = 'OPEN' OR Ordkey = 4`, []int64{1, 4}},
		{`Custkey = 10 AND (Status = 'OPEN' OR Ordkey = 4)`, []int64{1}}, // parentheses override
		{`NOT Custkey = 10 AND Status = 'OPEN'`, []int64{3}},             // NOT binds tightest
	} {
		wantKeys(t, c.expr, whereKeys(t, ins, c.expr), c.want...)
	}
}

func TestSQLNullHandling(t *testing.T) {
	ins := `INSERT INTO Orders VALUES (1, NULL, 'A', 1), (2, 5, 'B', 2)`
	wantKeys(t, "IS NULL", whereKeys(t, ins, `Custkey IS NULL`), 1)
	wantKeys(t, "IS NOT NULL", whereKeys(t, ins, `Custkey IS NOT NULL`), 2)
	// NULL never compares equal or unequal.
	wantKeys(t, "= with NULL present", whereKeys(t, ins, `Custkey = 5`), 2)
	wantKeys(t, "<> with NULL present", whereKeys(t, ins, `Custkey <> 5`))
}

func TestSQLLike(t *testing.T) {
	ins := `INSERT INTO Orders VALUES (1,1,'OPEN',1),(2,2,'REOPENED',2),(3,3,'CLOSED',3)`
	wantKeys(t, "LIKE", whereKeys(t, ins, `Status LIKE '%OPEN%'`), 1, 2)
	wantKeys(t, "LIKE prefix", whereKeys(t, ins, `Status LIKE 'OP%'`), 1)
	if _, err := ParsePredicate(`Status LIKE 5`); err == nil {
		t.Error("non-string LIKE pattern accepted")
	}
}

func TestSQLStringEscaping(t *testing.T) {
	ins := `INSERT INTO Orders VALUES (1, 1, 'O''Brien', 1), (2, 2, 'OBrien', 2)`
	wantKeys(t, "escaped string", whereKeys(t, ins, `Status = 'O''Brien'`), 1)
}

func TestSQLNegativeNumbers(t *testing.T) {
	ins := `INSERT INTO Orders VALUES (1, -5, 'A', -1.5), (2, 5, 'B', 1.5)`
	wantKeys(t, "negative int", whereKeys(t, ins, `Custkey = -5`), 1)
	wantKeys(t, "negative float", whereKeys(t, ins, `Total < -1.0`), 1)
}

func TestSQLColumnColumnComparison(t *testing.T) {
	ins := `INSERT INTO Orders VALUES (1, 1, 'A', 1), (2, 99, 'B', 2)`
	wantKeys(t, "col=col", whereKeys(t, ins, `Ordkey = Custkey`), 1)
	wantKeys(t, "col<col", whereKeys(t, ins, `Ordkey < Custkey`), 2)
}

func TestSQLInPredicate(t *testing.T) {
	ins := `INSERT INTO Orders VALUES (1,1,'A',1),(2,2,'B',2),(3,3,'C',3),(4,4,'D',4)`
	wantKeys(t, "IN", whereKeys(t, ins, `Ordkey IN (1, 3)`), 1, 3)
	wantKeys(t, "string IN", whereKeys(t, ins, `Status IN ('B', 'D', 'Z')`), 2, 4)
	wantKeys(t, "NOT IN via NOT", whereKeys(t, ins, `NOT Ordkey IN (1, 2, 3)`), 4)
	for _, bad := range []string{`Ordkey IN ()`, `Ordkey IN (1, 2`} {
		if _, err := ParsePredicate(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestSQLCaseInsensitiveKeywordsAndColumns(t *testing.T) {
	ins := `insert into Orders values (1, 1, 'A', 1), (2, 2, 'B', 2)`
	wantKeys(t, "case insensitivity", whereKeys(t, ins, `ORDKEY = 1 and custkey is not null`), 1)
}

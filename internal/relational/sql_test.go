package relational

import (
	"strings"
	"testing"
)

func newTestDB(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase("test")
	db.MustCreateTable("Orders", MustSchema([]Column{
		Col("Ordkey", TypeInt),
		NullableCol("Custkey", TypeInt),
		NullableCol("Status", TypeString),
		NullableCol("Total", TypeFloat),
	}, "Ordkey"))
	return db
}

// mustExec runs one INSERT and fails the test on error.
func mustExec(t *testing.T, db *Database, sql string) *Relation {
	t.Helper()
	r, err := db.Exec(sql)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSQLCreateInsertSelect(t *testing.T) {
	db := newTestDB(t)
	r := mustExec(t, db, `INSERT INTO Orders VALUES (1, 10, 'OPEN', 100.5), (2, 20, 'SHIPPED', 50);`)
	if r.Get(0, "affected").Int() != 2 {
		t.Fatalf("insert affected = %v", r.Get(0, "affected"))
	}
	got, err := db.Table("Orders").SelectWhere(ColEq("Status", NewString("OPEN")))
	if err != nil || got.Len() != 1 || got.Get(0, "Ordkey").Int() != 1 {
		t.Fatalf("select: %v (%v)", got, err)
	}
	// The int literal 50 lands in the DOUBLE column as a float.
	if v := db.Table("Orders").Lookup(NewInt(2))[3]; v.Type() != TypeFloat || v.Float() != 50 {
		t.Fatalf("int->DOUBLE coercion: %v", v)
	}
}

func TestSQLPrimaryKeyViolation(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `INSERT INTO Orders VALUES (1,1,'A',1)`)
	if _, err := db.Exec(`INSERT INTO Orders VALUES (1,2,'B',2)`); err == nil {
		t.Fatal("expected duplicate key error")
	}
}

func TestSQLErrors(t *testing.T) {
	db := newTestDB(t)
	bad := []string{
		`INSERT INTO Missing VALUES (1)`,
		`INSERT INTO Orders VALUES (1)`,
		`INSERT INTO Orders VALUES (1, 2, 'x', 'not-a-float')`,
		`INSERT INTO Orders VALUES (1, 2, 'x', 1.5) TRAILING GARBAGE`,
		`INSERT INTO Orders VALUES (1, 2, 'x', 1.5`,
		`INSERT Orders VALUES (1, 2, 'x', 1.5)`,
		`INSERT INTO Orders (1, 2, 'x', 1.5)`,
		`BOGUS STATEMENT`,
		``,
	}
	for _, q := range bad {
		if _, err := db.Exec(q); err == nil {
			t.Errorf("expected error for %q", q)
		}
	}
}

// TestSQLRemovedStatementsUnsupported pins the INSERT-only surface: every
// other statement kind is rejected before it touches the database.
func TestSQLRemovedStatementsUnsupported(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `INSERT INTO Orders VALUES (1, 10, 'OPEN', 100)`)
	db.RegisterProcedure("sp_echo", func(*Database, []Value) (*Relation, error) { return nil, nil })
	for _, q := range []string{
		`SELECT * FROM Orders`,
		`SELECT count(*) FROM Orders GROUP BY Custkey ORDER BY Custkey LIMIT 1`,
		`UPDATE Orders SET Status = 'CLOSED'`,
		`DELETE FROM Orders`,
		`CREATE TABLE T (A BIGINT)`,
		`DROP TABLE Orders`,
		`TRUNCATE TABLE Orders`,
		`CALL sp_echo(42)`,
	} {
		_, err := db.Exec(q)
		if err == nil || !strings.Contains(err.Error(), "unsupported statement") {
			t.Errorf("%q: err = %v, want unsupported statement", q, err)
		}
	}
	if db.Table("Orders") == nil || db.Table("Orders").Len() != 1 || db.Table("T") != nil {
		t.Fatalf("a rejected statement changed the database: %v", db.TableNames())
	}
}

func TestSQLUnterminatedString(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.Exec(`INSERT INTO Orders VALUES (1, 1, 'oops, 1)`); err == nil ||
		!strings.Contains(err.Error(), "unterminated") {
		t.Fatalf("unterminated string: %v", err)
	}
}

func TestSQLTimestampCoercion(t *testing.T) {
	db := NewDatabase("t3")
	db.MustCreateTable("E", MustSchema([]Column{
		Col("ID", TypeInt), NullableCol("At", TypeTime),
	}, "ID"))
	mustExec(t, db, `INSERT INTO E VALUES (1, '2008-04-07T12:00:00Z')`)
	if at := db.Table("E").Lookup(NewInt(1))[1]; at.Type() != TypeTime || at.Time().Year() != 2008 {
		t.Fatalf("timestamp coercion: %v", at)
	}
}

package xmlmsg

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/relational"
)

func sampleRelation() *relational.Relation {
	s := relational.MustSchema([]relational.Column{
		relational.Col("Ordkey", relational.TypeInt),
		relational.NullableCol("Custkey", relational.TypeInt),
		relational.Col("Status", relational.TypeString),
		relational.Col("Total", relational.TypeFloat),
	}, "Ordkey")
	return relational.MustRelation(s, []relational.Row{
		{relational.NewInt(1), relational.NewInt(10), relational.NewString("OPEN"), relational.NewFloat(99.5)},
		{relational.NewInt(2), relational.Null, relational.NewString("CLOSED"), relational.NewFloat(0)},
	})
}

func TestResultSetRoundTrip(t *testing.T) {
	r := sampleRelation()
	doc := FromRelation("Orders", r)
	if doc.Attr("name") != "Orders" {
		t.Errorf("result set name: %q", doc.Attr("name"))
	}
	got, err := ToRelation(doc)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Schema().Equal(r.Schema()) {
		t.Fatalf("schema mismatch: %s vs %s", got.Schema(), r.Schema())
	}
	if got.Len() != r.Len() {
		t.Fatalf("row count: %d vs %d", got.Len(), r.Len())
	}
	for i := 0; i < r.Len(); i++ {
		if !got.Row(i).Equal(r.Row(i)) {
			t.Errorf("row %d: %v vs %v", i, got.Row(i), r.Row(i))
		}
	}
	// Primary key metadata survives.
	if !got.Schema().HasKey() || got.Schema().KeyNames()[0] != "Ordkey" {
		t.Errorf("key metadata lost: %v", got.Schema().KeyNames())
	}
}

func TestResultSetValidatesAgainstGenericSchema(t *testing.T) {
	doc := FromRelation("Orders", sampleRelation())
	if errs := ResultSetSchema.Validate(doc); len(errs) != 0 {
		t.Fatalf("generated result set invalid: %v", errs)
	}
}

func TestResultSetXMLSerializationRoundTrip(t *testing.T) {
	doc := FromRelation("Orders", sampleRelation())
	parsed, err := ParseString(doc.String())
	if err != nil {
		t.Fatal(err)
	}
	got, err := ToRelation(parsed)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 || !got.Row(0).Equal(sampleRelation().Row(0)) {
		t.Errorf("serialized round trip: %v", got)
	}
	// NULL survives serialization.
	if !got.Row(1)[1].IsNull() {
		t.Errorf("NULL lost in serialization: %v", got.Row(1))
	}
}

func TestResultSetEmptyRelation(t *testing.T) {
	s := relational.MustSchema([]relational.Column{relational.Col("K", relational.TypeInt)})
	doc := FromRelation("Empty", relational.Empty(s))
	got, err := ToRelation(doc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Errorf("empty relation round trip: %d rows", got.Len())
	}
}

func TestToRelationErrors(t *testing.T) {
	if _, err := ToRelation(nil); err == nil {
		t.Error("nil doc")
	}
	if _, err := ToRelation(New("NotAResultSet")); err == nil {
		t.Error("wrong root")
	}
	if _, err := ToRelation(New("ResultSet")); err == nil {
		t.Error("missing metadata")
	}
	// Arity mismatch.
	doc := FromRelation("X", sampleRelation())
	doc.Child("Rows").Children[0].Children = doc.Child("Rows").Children[0].Children[:1]
	if _, err := ToRelation(doc); err == nil {
		t.Error("arity mismatch accepted")
	}
	// Unknown type.
	doc2 := FromRelation("X", sampleRelation())
	doc2.Child("Metadata").Children[0].SetAttr("type", "BLOB")
	if _, err := ToRelation(doc2); err == nil {
		t.Error("unknown type accepted")
	}
	// Unparsable cell.
	doc3 := FromRelation("X", sampleRelation())
	doc3.Child("Rows").Children[0].Children[0].Text = "not-an-int"
	if _, err := ToRelation(doc3); err == nil {
		t.Error("bad cell accepted")
	}
}

func TestResultSetRoundTripProperty(t *testing.T) {
	f := func(keys []int64, names []string) bool {
		s := relational.MustSchema([]relational.Column{
			relational.Col("K", relational.TypeInt),
			relational.Col("N", relational.TypeString),
		})
		n := len(keys)
		if len(names) < n {
			n = len(names)
		}
		rows := make([]relational.Row, 0, n)
		for i := 0; i < n; i++ {
			// Normalize the string the same way the XML parser does.
			name := normalizeXMLText(names[i])
			rows = append(rows, relational.Row{relational.NewInt(keys[i]), relational.NewString(name)})
		}
		r := relational.MustRelation(s, rows)
		parsed, err := ParseString(FromRelation("T", r).String())
		if err != nil {
			return false
		}
		got, err := ToRelation(parsed)
		if err != nil || got.Len() != r.Len() {
			return false
		}
		for i := 0; i < r.Len(); i++ {
			if !got.Row(i).Equal(r.Row(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func normalizeXMLText(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		if r >= 0x20 && r != 0xFFFE && r != 0xFFFF {
			out = append(out, r)
		}
	}
	fields := []rune{}
	space := false
	started := false
	for _, r := range out {
		if r == ' ' {
			space = started
			continue
		}
		if space {
			fields = append(fields, ' ')
			space = false
		}
		fields = append(fields, r)
		started = true
	}
	// The parser trims all Unicode white space (U+3000, U+00A0, ...), not
	// only ' '.
	return strings.TrimSpace(string(fields))
}

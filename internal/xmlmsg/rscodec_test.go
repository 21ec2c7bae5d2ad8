package xmlmsg

import (
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"repro/internal/relational"
)

// nastyStrings are cell texts and names the codec must escape and trim
// exactly like the tree path; degradedStrings are written as U+FFFD, which
// sends the decode down the tree path.
var (
	nastyStrings = []string{
		"", " ", "plain", " lead", "trail ", "\tboth\n", "NULL", "true",
		`& < > " '`, "a\tb\nc\rd", "\r\n", "]]>", "x]]>y", "ümlaut € 漢",
		"&amp;", "&#65;", "<V>", "</Rows>", "<Row>",
	}
	degradedStrings = []string{"\xff\xfe", "bad\x80utf8", "\x00", "\x1f", "\uFFFE", "\uFFFD"}
)

func nastyString(rng *rand.Rand) string {
	if rng.Intn(20) == 0 {
		return degradedStrings[rng.Intn(len(degradedStrings))]
	}
	return nastyStrings[rng.Intn(len(nastyStrings))]
}

var nastyFloats = []float64{
	0, math.Copysign(0, -1), 1, -1.5, 0.1, 1e300, -1e-300, 5e-324,
	math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
}

// randomRelation builds a relation over every column type, NULL included:
// zero to five columns, zero to six rows, random keys and nullability, and
// the awkward strings, floats, integers and timestamps above.
func randomRelation(rng *rand.Rand) (string, *relational.Relation) {
	types := []relational.Type{relational.TypeNull, relational.TypeInt, relational.TypeFloat,
		relational.TypeString, relational.TypeBool, relational.TypeTime}
	cols := make([]relational.Column, rng.Intn(6))
	var keys []string
	for i := range cols {
		name := nastyString(rng) + "c" + strconv.Itoa(i)
		cols[i] = relational.Column{Name: name, Type: types[1+rng.Intn(len(types)-1)], Nullable: rng.Intn(3) == 0}
		if rng.Intn(20) == 0 {
			cols[i].Type = types[0] // a column ToRelation rejects
		}
		if cols[i].Type == relational.TypeNull {
			cols[i].Nullable = true // the only value it can hold
		}
		if rng.Intn(3) == 0 {
			keys = append(keys, name)
		}
	}
	schema := relational.MustSchema(cols, keys...)
	rows := make([]relational.Row, rng.Intn(7))
	for i := range rows {
		row := make(relational.Row, len(cols))
		for j, c := range cols {
			if c.Nullable && rng.Intn(4) == 0 {
				continue
			}
			row[j] = randomValue(rng, c.Type)
		}
		rows[i] = row
	}
	return nastyString(rng), relational.MustRelation(schema, rows)
}

func randomValue(rng *rand.Rand, t relational.Type) relational.Value {
	switch t {
	case relational.TypeInt:
		return relational.NewInt([]int64{0, -1, 42, math.MaxInt64, math.MinInt64, rng.Int63()}[rng.Intn(6)])
	case relational.TypeFloat:
		return relational.NewFloat(nastyFloats[rng.Intn(len(nastyFloats))])
	case relational.TypeString:
		return relational.NewString(nastyString(rng))
	case relational.TypeBool:
		return relational.NewBool(rng.Intn(2) == 0)
	case relational.TypeTime:
		return relational.NewTime(time.Unix(rng.Int63n(1<<33)-1<<32, rng.Int63n(1e9)*int64(rng.Intn(2))))
	}
	return relational.Null
}

// treeDecode is the reference DecodeResultSet must equal.
func treeDecode(b []byte) (string, *relational.Relation, error) {
	doc, err := ParseBytes(b)
	if err != nil {
		return "", nil, err
	}
	r, err := ToRelation(doc)
	if err != nil {
		return "", nil, err
	}
	return doc.Attr("name"), r, nil
}

// sameDecode reports how two decodes differ, or "" when they give the same
// error text, or the same name, schema and rows; values compare by type
// and String() so NaN equals NaN.
func sameDecode(name1 string, r1 *relational.Relation, err1 error, name2 string, r2 *relational.Relation, err2 error) string {
	if (err1 == nil) != (err2 == nil) {
		return "error " + strconv.Quote(errText(err1)) + " vs " + strconv.Quote(errText(err2))
	}
	if err1 != nil {
		if err1.Error() != err2.Error() {
			return "error text " + strconv.Quote(err1.Error()) + " vs " + strconv.Quote(err2.Error())
		}
		return ""
	}
	if name1 != name2 {
		return "name " + strconv.Quote(name1) + " vs " + strconv.Quote(name2)
	}
	s1, s2 := r1.Schema(), r2.Schema()
	if !reflect.DeepEqual(s1.Columns, s2.Columns) || !reflect.DeepEqual(s1.Key, s2.Key) {
		return "schema " + s1.String() + " vs " + s2.String()
	}
	if r1.Len() != r2.Len() {
		return "row count " + strconv.Itoa(r1.Len()) + " vs " + strconv.Itoa(r2.Len())
	}
	for i := 0; i < r1.Len(); i++ {
		for j, v := range r1.Row(i) {
			w := r2.Row(i)[j]
			if v.Type() != w.Type() || v.String() != w.String() {
				return "row " + strconv.Itoa(i) + ": " + strconv.Quote(v.String()) + " vs " + strconv.Quote(w.String())
			}
		}
	}
	return ""
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// mutate applies one to three random byte edits to a copy of b.
func mutate(rng *rand.Rand, b []byte) []byte {
	snippets := []string{"<", ">", "&", "&amp;", "&#x9;", "&#xD;", "&bogus;", " ", "\n", "\r", `"`,
		"<V>", "</V>", `<V null="true"></V>`, "<Row>", "</Row>", "]]>", "\xff", "<!-- c -->", `<?xml version="1.0"?>`}
	out := append([]byte(nil), b...)
	for n := 1 + rng.Intn(3); n > 0; n-- {
		i := rng.Intn(len(out) + 1)
		switch rng.Intn(4) {
		case 0: // insert a snippet
			s := snippets[rng.Intn(len(snippets))]
			out = append(out[:i], append([]byte(s), out[i:]...)...)
		case 1: // delete a short range
			j := min(len(out), i+1+rng.Intn(8))
			out = append(out[:i], out[j:]...)
		case 2: // overwrite one byte
			if i < len(out) {
				out[i] = byte(rng.Intn(256))
			}
		case 3: // swap two bytes
			if len(out) > 1 {
				j := rng.Intn(len(out))
				if i < len(out) {
					out[i], out[j] = out[j], out[i]
				}
			}
		}
	}
	return out
}

// TestAppendResultSetMatchesTree pins the codec's bytes: AppendResultSet
// writes exactly what FromRelation's tree serializes to.
func TestAppendResultSetMatchesTree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		name, r := randomRelation(rng)
		want := FromRelation(name, r).AppendXML(nil)
		if got := AppendResultSet(nil, name, r); string(got) != string(want) {
			t.Fatalf("relation %d:\n got %q\nwant %q", i, got, want)
		}
		// Appending keeps what dst held.
		if got := AppendResultSet([]byte("<X>"), name, r); string(got) != "<X>"+string(want) {
			t.Fatalf("relation %d: prefix lost: %q", i, got)
		}
	}
}

// TestDecodeResultSetMatchesTree checks DecodeResultSet against
// ToRelation(ParseBytes(b)) on codec output and on byte-mutated copies of
// it: the same error text, or the same name, schema and rows. Codec output
// the tree accepts must take the scan, not the fallback.
func TestDecodeResultSetMatchesTree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var scanned [2]int // codec output, mutated copies
	for i := 0; i < 2000; i++ {
		name, r := randomRelation(rng)
		b := AppendResultSet(nil, name, r)
		inputs := [][]byte{b}
		for k := 0; k < 5; k++ {
			inputs = append(inputs, mutate(rng, b))
		}
		for k, in := range inputs {
			n1, r1, err1 := DecodeResultSet(in)
			n2, r2, err2 := treeDecode(in)
			if diff := sameDecode(n1, r1, err1, n2, r2, err2); diff != "" {
				t.Fatalf("relation %d input %d %q: %s", i, k, in, diff)
			}
			_, _, rest, ok := ScanResultSet(string(in))
			if ok && rest == "" {
				scanned[min(k, 1)]++
			}
			// U+FFFD, which the escaper writes for invalid UTF-8, is the one
			// character the tree parser's fast path declines, and so does
			// the scan.
			if k == 0 && ok != (err2 == nil) && !strings.ContainsRune(string(in), utf8.RuneError) {
				t.Fatalf("relation %d: scan ok=%v, tree error %v on codec output %q", i, ok, err2, in)
			}
		}
	}
	// Enough of both kinds take the scan for the comparison to test it.
	if scanned[0] < 1000 || scanned[1] < 50 {
		t.Fatalf("only %d codec outputs and %d mutated copies took the scan", scanned[0], scanned[1])
	}
}

// TestScanResultSetRest checks that a scan stops right after </ResultSet>,
// so documents that embed result sets can read them in sequence, and that
// the rows share one cap-limited slab.
func TestScanResultSetRest(t *testing.T) {
	r := sampleRelation()
	b := AppendResultSet(nil, "a", r)
	b = AppendResultSet(b, "b", r)
	name, got, rest, ok := ScanResultSet(string(b) + "</Delta>")
	if !ok || name != "a" || got.Len() != r.Len() {
		t.Fatalf("first scan: ok=%v name=%q", ok, name)
	}
	if name, _, rest, ok = ScanResultSet(rest); !ok || name != "b" || rest != "</Delta>" {
		t.Fatalf("second scan: ok=%v name=%q rest=%q", ok, name, rest)
	}
	for i := 0; i < got.Len(); i++ {
		if row := got.Row(i); cap(row) != len(row) {
			t.Fatalf("row %d: cap %d, len %d", i, cap(row), len(row))
		}
	}
	if _, _, rest, ok := ScanResultSet(" " + string(b)); ok || rest != " "+string(b) {
		t.Fatalf("leading space: ok=%v", ok)
	}
}

// FuzzDecodeResultSet holds DecodeResultSet to the tree path on arbitrary
// input.
func FuzzDecodeResultSet(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 8; i++ {
		name, r := randomRelation(rng)
		f.Add(AppendResultSet(nil, name, r))
	}
	f.Add(AppendResultSet(nil, "Orders", sampleRelation()))
	f.Add([]byte(`<ResultSet name="T"><Metadata><Column key="true" name="K" type="BIGINT"></Column></Metadata><Rows><Row><V> 7 </V></Row></Rows></ResultSet>`))
	f.Add([]byte(`<ResultSet name="T"><Metadata><Column name="K" key="true" type="BIGINT"/></Metadata><Rows/></ResultSet>`))
	f.Add([]byte(`<ResultSet name="T"><Metadata><Column name="S" type="VARCHAR"></Column></Metadata><Rows><Row><V>&#x9;a&amp;b&#xD;</V></Row></Rows></ResultSet>`))
	f.Add([]byte(`<ResultSet name="T"><Metadata><Column name="K" type="BLOB"></Column></Metadata><Rows></Rows></ResultSet>`))
	f.Add([]byte(`<not closed`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, b []byte) {
		n1, r1, err1 := DecodeResultSet(b)
		n2, r2, err2 := treeDecode(b)
		if diff := sameDecode(n1, r1, err1, n2, r2, err2); diff != "" {
			t.Fatalf("%q: %s", b, diff)
		}
	})
}

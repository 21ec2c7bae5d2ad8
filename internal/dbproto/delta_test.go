package dbproto

import (
	"strconv"
	"strings"
	"testing"

	rel "repro/internal/relational"
	x "repro/internal/xmlmsg"
)

// encodeDelta is the tree encoder appendDelta must byte-match.
func encodeDelta(d *rel.Delta) *x.Node {
	doc := x.New("Delta").
		SetAttr("table", d.Table).
		SetAttr("from", strconv.FormatUint(d.From, 10)).
		SetAttr("to", strconv.FormatUint(d.To, 10))
	if d.Reset {
		doc.SetAttr("reset", "true")
	}
	doc.Add(x.FromRelation("inserts", d.Inserts))
	doc.Add(x.FromRelation("updates", d.Updates))
	doc.Add(x.FromRelation("deletes", d.Deletes))
	return doc
}

func sampleDeltas() []*rel.Delta {
	r := sampleRelation()
	empty := r.Empty()
	return []*rel.Delta{
		{Table: "Orders", From: 3, To: 9, Inserts: r, Updates: r, Deletes: empty},
		{Table: "Orders", From: 0, To: 1<<64 - 1, Reset: true, Inserts: r, Updates: empty, Deletes: empty},
		{Table: `Odd "name" & <more>`, From: 7, To: 7, Inserts: empty, Updates: empty, Deletes: empty},
		{Table: "", From: 1, To: 2, Inserts: empty, Updates: empty, Deletes: r},
	}
}

// TestAppendDeltaMatchesTree pins appendDelta's bytes to the tree encoding.
func TestAppendDeltaMatchesTree(t *testing.T) {
	for i, d := range sampleDeltas() {
		want := encodeDelta(d).AppendXML(nil)
		if got := appendDelta(nil, d); string(got) != string(want) {
			t.Errorf("delta %d:\n got %q\nwant %q", i, got, want)
		}
	}
}

// TestScanDeltaMatchesDecodeDelta checks that scanDelta reads what
// decodeDelta reads from the tree, takes the scan on appendDelta's output
// (a table name needing escapes excepted), and declines the documents
// decodeDelta reads differently or rejects.
func TestScanDeltaMatchesDecodeDelta(t *testing.T) {
	for i, d := range sampleDeltas() {
		b := appendDelta(nil, d)
		docs := []string{
			string(b),
			strings.Replace(string(b), `<ResultSet name="updates">`, ` <ResultSet name="updates">`, 1),
			strings.Replace(string(b), `name="deletes"`, `name="other"`, 1),
			strings.Replace(string(b), ` to="`, ` to="x`, 1),
			strings.Replace(string(b), `<Delta from="`, `<Delta from="&#49;`, 1),
			string(b) + "<!-- trailer -->",
			strings.TrimSuffix(string(b), "</Delta>"),
		}
		for k, s := range docs {
			scanned, ok := scanDelta(s)
			if k == 0 && ok == strings.ContainsAny(d.Table, `"&<>`) {
				t.Errorf("delta %d: scan ok=%v on appendDelta output", i, ok)
			}
			doc, err := x.ParseString(s)
			var want *rel.Delta
			if err == nil {
				want, err = decodeDelta(doc)
			}
			if !ok {
				continue
			}
			if err != nil {
				t.Errorf("delta %d doc %d: scan accepted what the tree rejects: %v", i, k, err)
				continue
			}
			if got, want := deltaString(scanned), deltaString(want); got != want {
				t.Errorf("delta %d doc %d:\n scan %s\n tree %s", i, k, got, want)
			}
		}
	}
}

func deltaString(d *rel.Delta) string {
	return d.Table + " " + strconv.FormatUint(d.From, 10) + "-" + strconv.FormatUint(d.To, 10) +
		" reset=" + strconv.FormatBool(d.Reset) + "\n" +
		d.Inserts.String() + d.Updates.String() + d.Deletes.String()
}

package xmlmsg

import (
	"encoding/xml"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// stdString serializes through the encoding/xml reference path.
func stdString(t *testing.T, n *Node) string {
	t.Helper()
	var b strings.Builder
	enc := xml.NewEncoder(&b)
	if err := n.encodeStd(enc); err != nil {
		t.Fatalf("encodeStd: %v", err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	return b.String()
}

func TestAppendXMLMatchesEncodingXML(t *testing.T) {
	docs := []*Node{
		NewText("Leaf", "hello"),
		New("Empty"),
		New("Order",
			NewText("Id", "42"),
			NewText("Name", `quotes " and ' amp & lt < gt >`),
			New("Items",
				NewText("Item", "a\tb\nc\rd").SetAttr("pos", "1"),
				NewText("Item", "ümlaut € 漢").SetAttr("pos", "2").SetAttr("alt", "x<y"),
			),
		).SetAttr("zkey", "last").SetAttr("akey", "first").SetAttr("mkey", "mid"),
	}
	for _, n := range docs {
		want := stdString(t, n)
		got := string(n.AppendXML(nil))
		if got != want {
			t.Errorf("AppendXML mismatch for %s:\n got  %q\n want %q", n.Name, got, want)
		}
		if s := n.String(); s != want {
			t.Errorf("String mismatch for %s:\n got  %q\n want %q", n.Name, s, want)
		}
	}
}

// randomTree builds an arbitrary data-centric document: identifier names,
// printable-ish text with the characters the escaper special-cases.
func randomTree(r *rand.Rand, depth int) *Node {
	names := []string{"Order", "Item", "Customer", "Qty", "Price", "Note"}
	texts := []string{"", "plain", `a"b'c`, "x & y < z > w", "tab\there", "nl\nthere", "é漢€", "  padded  "}
	n := &Node{Name: names[r.Intn(len(names))]}
	for i := r.Intn(3); i > 0; i-- {
		n.SetAttr(names[r.Intn(len(names))]+"Attr", texts[r.Intn(len(texts))])
	}
	if depth > 0 && r.Intn(2) == 0 {
		for i := r.Intn(4); i > 0; i-- {
			n.Add(randomTree(r, depth-1))
		}
	} else {
		n.Text = texts[r.Intn(len(texts))]
	}
	return n
}

func TestAppendXMLMatchesEncodingXMLProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		n := randomTree(r, 3)
		if got, want := string(n.AppendXML(nil)), stdString(t, n); got != want {
			t.Fatalf("iter %d: AppendXML mismatch:\n got  %q\n want %q", i, got, want)
		}
	}
}

// TestDecoderFastPathMatchesStdlib round-trips random trees through the fast
// decoder and the encoding/xml path and requires identical results.
func TestDecoderFastPathMatchesStdlib(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	d := NewDecoder()
	for i := 0; i < 300; i++ {
		n := randomTree(r, 3)
		doc := n.String()
		fast, ok := d.tryParse(doc)
		if !ok {
			t.Fatalf("iter %d: fast path declined its own serialization: %q", i, doc)
		}
		std, err := Parse(strings.NewReader(doc))
		if err != nil {
			t.Fatalf("iter %d: stdlib parse: %v", i, err)
		}
		if !fast.Equal(std) {
			t.Fatalf("iter %d: fast parse diverges for %q:\nfast %#v\nstd  %#v", i, doc, fast, std)
		}
	}
}

func TestDecoderHandlesSyntaxVariants(t *testing.T) {
	d := NewDecoder()
	cases := []string{
		`<?xml version="1.0"?><R><A x='1'>t</A></R>`,
		"<R>\n  <!-- comment -->\n  <A/>\n</R>\n",
		`<R a="&#x41;&#66;&amp;">mix &lt;ed&gt; text</R>`,
		`<R xmlns="http://example.org"><A>1</A></R>`,
		"<R>line1\r\nline2\rline3</R>",
		`<R><A>  spaced  </A><A></A></R>`,
	}
	for _, doc := range cases {
		fast, err := d.ParseString(doc)
		if err != nil {
			t.Errorf("fast ParseString(%q): %v", doc, err)
			continue
		}
		std, err := Parse(strings.NewReader(doc))
		if err != nil {
			t.Fatalf("stdlib Parse(%q): %v", doc, err)
		}
		if !fast.Equal(std) {
			t.Errorf("divergence for %q:\nfast %#v\nstd  %#v", doc, fast, std)
		}
	}
}

// TestDecoderFallbackKeepsErrors: malformed documents must keep producing
// the encoding/xml-derived error messages existing callers match on.
func TestDecoderFallbackKeepsErrors(t *testing.T) {
	cases := []string{
		"",
		"   ",
		"<R><A></R>",
		"<R></R><S></S>",
		"<R>unterminated",
		"<R a=>bad attr</R>",
		"<R>&bogus;</R>",
	}
	for _, doc := range cases {
		_, fastErr := ParseString(doc)
		_, stdErr := Parse(strings.NewReader(doc))
		if (fastErr == nil) != (stdErr == nil) {
			t.Errorf("ParseString(%q): err %v, stdlib err %v", doc, fastErr, stdErr)
			continue
		}
		if fastErr != nil && fastErr.Error() != stdErr.Error() {
			t.Errorf("ParseString(%q): error %q, want stdlib's %q", doc, fastErr, stdErr)
		}
	}
}

func TestDecoderDeclinesOutsideSubset(t *testing.T) {
	d := NewDecoder()
	cases := []string{
		`<!DOCTYPE R><R/>`,
		`<R><![CDATA[x]]></R>`,
		`<ns:R><A>1</A></ns:R>`,
		`<R xmlns:a="urn:x"><A>1</A></R>`,
	}
	for _, doc := range cases {
		if _, ok := d.tryParse(doc); ok {
			t.Errorf("tryParse accepted %q; must decline to the stdlib path", doc)
		}
		// The public entry point still handles them via the fallback.
		fast, fastErr := d.ParseString(doc)
		std, stdErr := Parse(strings.NewReader(doc))
		if (fastErr == nil) != (stdErr == nil) || (fastErr == nil && !fast.Equal(std)) {
			t.Errorf("fallback mismatch for %q: (%v,%v) vs (%v,%v)", doc, fast, fastErr, std, stdErr)
		}
	}
}

// TestParseRoundTripProperty: serialize→parse is the identity for trees with
// normalized text (what quick generates here).
func TestParseRoundTripProperty(t *testing.T) {
	f := func(id uint16, qty uint8, note string) bool {
		if !validChars(note) {
			return true // stdlib would reject the document wholesale
		}
		n := New("Order",
			NewText("Id", "ID"+strconv.Itoa(int(id))),
			NewText("Qty", strconv.Itoa(int(qty))),
			NewText("Note", strings.TrimSpace(strings.ReplaceAll(note, "\r", " "))),
		).SetAttr("v", "1")
		got, err := ParseString(n.String())
		if err != nil {
			return false
		}
		// Parse collapses internal whitespace-only runs, so compare the
		// values the benchmark actually reads back.
		return got.Name == n.Name && got.Attr("v") == "1" &&
			got.PathText("Id") == n.PathText("Id") &&
			got.PathText("Qty") == n.PathText("Qty") &&
			reflect.DeepEqual(childNames(got), childNames(n))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func childNames(n *Node) []string {
	out := make([]string, len(n.Children))
	for i, c := range n.Children {
		out[i] = c.Name
	}
	return out
}

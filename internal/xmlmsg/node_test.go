package xmlmsg

import (
	"strings"
	"testing"
	"testing/quick"
)

func sampleDoc() *Node {
	return New("Order",
		NewText("Id", "42"),
		New("Customer",
			NewText("Name", "Ada"),
			NewText("City", "Berlin"),
		),
		NewText("Total", "99.5"),
	).SetAttr("priority", "high")
}

func TestBuilderAndNavigation(t *testing.T) {
	d := sampleDoc()
	if d.Attr("priority") != "high" {
		t.Errorf("Attr: %q", d.Attr("priority"))
	}
	if d.Child("Id").Text != "42" {
		t.Errorf("Child(Id): %v", d.Child("Id"))
	}
	if d.Child("Missing") != nil {
		t.Error("Child(Missing) should be nil")
	}
	if got := d.PathText("Customer/Name"); got != "Ada" {
		t.Errorf("PathText: %q", got)
	}
	if d.Path("Customer/Missing") != nil {
		t.Error("Path to missing should be nil")
	}
	if d.PathText("Nope") != "" {
		t.Error("PathText on missing should be empty")
	}
	// Empty segments are skipped; the empty path is the node itself.
	for _, p := range []string{"/Customer/Name", "Customer//Name/", "Customer/Name"} {
		if got := d.PathText(p); got != "Ada" {
			t.Errorf("PathText(%q): %q", p, got)
		}
	}
	if d.Path("") != d || d.Path("/") != d {
		t.Error("empty path should be the node itself")
	}
	if n := testing.AllocsPerRun(10, func() { d.PathText("Customer/Name") }); n != 0 {
		t.Errorf("PathText allocates %.0f times", n)
	}
}

func TestChildrenNamed(t *testing.T) {
	d := New("Items", NewText("I", "1"), NewText("J", "x"), NewText("I", "2"))
	got := d.ChildrenNamed("I")
	if len(got) != 2 || got[0].Text != "1" || got[1].Text != "2" {
		t.Errorf("ChildrenNamed: %v", got)
	}
}

func TestWalkOrderAndStop(t *testing.T) {
	d := sampleDoc()
	var names []string
	d.Walk(func(n *Node) bool {
		names = append(names, n.Name)
		return true
	})
	want := []string{"Order", "Id", "Customer", "Name", "City", "Total"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("Walk order: %v", names)
	}
	// Early stop.
	count := 0
	d.Walk(func(n *Node) bool {
		count++
		return n.Name != "Customer"
	})
	if count != 3 {
		t.Errorf("Walk stop: visited %d", count)
	}
}

func TestCountElements(t *testing.T) {
	if got := sampleDoc().CountElements(); got != 6 {
		t.Errorf("CountElements = %d, want 6", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	d := sampleDoc()
	c := d.Clone()
	if !d.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.Child("Customer").Child("Name").Text = "Eve"
	c.SetAttr("priority", "low")
	if d.PathText("Customer/Name") != "Ada" || d.Attr("priority") != "high" {
		t.Error("clone aliased original")
	}
}

func TestEqual(t *testing.T) {
	a, b := sampleDoc(), sampleDoc()
	if !a.Equal(b) {
		t.Fatal("identical docs unequal")
	}
	b.Child("Id").Text = "43"
	if a.Equal(b) {
		t.Fatal("different text compared equal")
	}
	var nilNode *Node
	if nilNode.Equal(a) || a.Equal(nilNode) {
		t.Error("nil comparison")
	}
	if !nilNode.Equal(nil) {
		t.Error("nil == nil")
	}
}

func TestSerializeParseRoundTrip(t *testing.T) {
	d := sampleDoc()
	s := d.String()
	got, err := ParseString(s)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Equal(got) {
		t.Errorf("round trip:\n in: %s\nout: %s", s, got)
	}
}

func TestSerializeEscapesSpecials(t *testing.T) {
	d := NewText("T", `a<b&c>"d'`)
	got, err := ParseString(d.String())
	if err != nil {
		t.Fatal(err)
	}
	if got.Text != d.Text {
		t.Errorf("escaping: %q -> %q", d.Text, got.Text)
	}
}

func TestSerializeDeterministicAttrOrder(t *testing.T) {
	d := New("E").SetAttr("z", "1").SetAttr("a", "2").SetAttr("m", "3")
	s1, s2 := d.String(), d.String()
	if s1 != s2 {
		t.Errorf("non-deterministic serialization: %q vs %q", s1, s2)
	}
	if !strings.Contains(s1, `a="2"`) || strings.Index(s1, `a="2"`) > strings.Index(s1, `z="1"`) {
		t.Errorf("attrs not sorted: %q", s1)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`<a><b></a></b>`,
		`<a></a><b></b>`,
		`<unclosed>`,
		`garbage`,
	}
	for _, s := range bad {
		if _, err := ParseString(s); err == nil {
			t.Errorf("expected parse error for %q", s)
		}
	}
}

func TestParseDropsWhitespaceAndNamespaceDecls(t *testing.T) {
	got, err := ParseString("<a xmlns=\"urn:x\" xmlns:p=\"urn:y\">\n  <b>hi</b>\n</a>")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Attrs) != 0 {
		t.Errorf("namespace decls kept: %v", got.Attrs)
	}
	if got.Text != "" || got.Child("b").Text != "hi" {
		t.Errorf("whitespace handling: %v", got)
	}
}

func TestRoundTripPropertyTextContent(t *testing.T) {
	f := func(text string) bool {
		// Strip control chars that XML 1.0 cannot represent, and trim
		// because the parser trims whitespace-only segments.
		clean := strings.Map(func(r rune) rune {
			if r == '\t' || r == '\n' || r == '\r' || (r >= 0x20 && r != 0xFFFE && r != 0xFFFF) {
				return r
			}
			return -1
		}, text)
		clean = strings.TrimSpace(clean)
		clean = strings.Join(strings.Fields(clean), " ")
		d := NewText("T", clean)
		got, err := ParseString(d.String())
		return err == nil && got.Text == clean
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

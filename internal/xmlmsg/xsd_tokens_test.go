package xmlmsg_test

import (
	"fmt"
	"testing"

	"repro/internal/datagen"
	"repro/internal/schema"
	x "repro/internal/xmlmsg"
)

// schemas are the message schemas of the process types, the result-set
// schema, and one that repeats, reorders and shadows declarations.
var schemas = []*x.Schema{
	schema.XSDVienna, schema.XSDMDM, schema.XSDSanDiego, schema.XSDHongkong,
	schema.XSDBeijing, schema.XSDSeoul, schema.XSDCDBOrder, schema.XSDEuropeCustomer,
	x.ResultSetSchema,
	x.NewSchema("XSD_Odd", x.Elem("R",
		x.Leaf("A", x.DTInt).Optional(),
		x.Elem("B", x.Leaf("C", x.DTBool)).WithAttrs("k", "z").Repeated(),
		x.Leaf("A", x.DTDecimal).Repeated(),
		x.Elem("U", x.Leaf("D", x.DTDateTime), x.Leaf("E", x.DTAny).Optional()).Unordered().Optional(),
	).WithAttrs("id")),
}

// sameAsTree reports how ValidateXML differs from the tree oracle on b,
// or "" when errors, paths, reasons and order agree.
func sameAsTree(s *x.Schema, b []byte) string {
	got, err := s.ValidateXML(b)
	doc, perr := x.ParseBytes(b)
	if fmt.Sprint(err) != fmt.Sprint(perr) {
		return fmt.Sprintf("error %v, parse %v", err, perr)
	}
	if perr != nil {
		if got != nil {
			return fmt.Sprintf("violations %v beside parse error", got)
		}
		return ""
	}
	want := x.ValidateTree(s, doc)
	if len(got) != len(want) {
		return fmt.Sprintf("got %v, tree %v", got, want)
	}
	for i := range got {
		if *got[i] != *want[i] {
			return fmt.Sprintf("violation %d: got %v, tree %v", i, got[i], want[i])
		}
	}
	return ""
}

// e1Messages serializes the first E1 messages of each kind at seeds 42
// and 7, broken San Diego messages included.
func e1Messages() [][]byte {
	var out [][]byte
	for _, seed := range []uint64{42, 7} {
		g := datagen.MustNew(datagen.Config{Seed: seed, Datasize: 0.05, Dist: datagen.Uniform})
		for i := 0; i < 40; i++ {
			sd, _ := g.SanDiegoOrder(i)
			for _, doc := range []*x.Node{g.BeijingCustomerMsg(i), g.MDMCustomer(i),
				g.ViennaOrder(i), g.HongkongOrder(i), sd} {
				out = append(out, doc.AppendXML(nil))
			}
		}
	}
	return out
}

// oddDocuments are documents outside the canonical shape, or with every
// kind of violation, for the schemas above.
var oddDocuments = []string{
	`<R id="1"><A>1</A><B k="1" z="2"><C>true</C></B><A>2.5</A><U><E>x</E><D>2008-04-07T10:00:00Z</D></U></R>`,
	`<R><A>x</A><A>y</A><B><C>maybe</C><C>1</C></B><B k="1"></B><U></U><Q></Q><U><D>z</D></U></R>`,
	`<R id="1"><B k="1" z="1"><C>1<X>2</X></C><C><Y></Y>3</C></B><A>1<B></B></A></R>`,
	`<R id="1"><U><D>2008-04-07T10:00:00Z</D><D>x</D><E></E><F></F></U><A>1</A><B k="" z=""><C> false </C></B></R>`,
	`<?xml version="1.0"?>` + "\n<R id='1'>\n  <A> 7 </A>\n  <B k='1' z='2'><C>1</C></B>\n</R>\n",
	`<R id="1"><A>&#49;</A><B z="2" k="1"><C>&#x31;</C></B><!-- c --></R>`,
	`<R xmlns="urn:x" id="1"><A>1</A><B k="1" z="2"/></R>`,
	`<R id="1"><é>1</é><A>�</A><B k="1" z="2"><C>&#xFFFD;</C></B></R>`,
	`<Other></Other>`,
	`<R id="1"><A>1</A>`,
	`<R id="1"></R><R></R>`,
	``,
	`text`,
}

func TestValidateXMLMatchesTree(t *testing.T) {
	inputs := e1Messages()
	for _, s := range oddDocuments {
		inputs = append(inputs, []byte(s))
	}
	invalid := 0
	for _, s := range schemas {
		for _, b := range inputs {
			if diff := sameAsTree(s, b); diff != "" {
				t.Fatalf("%s on %.300q: %s", s.Name, b, diff)
			}
			if errs, err := s.ValidateXML(b); err == nil && len(errs) > 0 {
				invalid++
			}
		}
	}
	if invalid == 0 {
		t.Fatal("no input violated a schema")
	}
}

// raceEnabled is set by race_test.go under the race detector.
var raceEnabled bool

// TestValidateXMLAllocBudget holds VALIDATE on a valid San Diego message
// to a handful of allocations: the token walk builds no tree.
func TestValidateXMLAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are stated for builds without the race detector")
	}
	g := datagen.MustNew(datagen.Config{Seed: 42, Datasize: 0.05, Dist: datagen.Uniform})
	for i := 0; ; i++ {
		doc, broken := g.SanDiegoOrder(i)
		if broken {
			continue
		}
		b := doc.AppendXML(nil)
		if errs, err := schema.XSDSanDiego.ValidateXML(b); err != nil || len(errs) > 0 {
			t.Fatalf("valid message rejected: %v %v", errs, err)
		}
		n := testing.AllocsPerRun(50, func() { _, _ = schema.XSDSanDiego.ValidateXML(b) })
		if n > 2 {
			t.Fatalf("%.1f allocations per validation of a valid message, budget 2", n)
		}
		return
	}
}

// FuzzValidateTokens holds ValidateXML to the tree validator on arbitrary
// input, for every schema above.
func FuzzValidateTokens(f *testing.F) {
	for _, b := range e1Messages()[:20] {
		f.Add(b)
	}
	for _, s := range oddDocuments {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, s := range schemas {
			if diff := sameAsTree(s, b); diff != "" {
				t.Fatalf("%s on %q: %s", s.Name, b, diff)
			}
		}
	})
}

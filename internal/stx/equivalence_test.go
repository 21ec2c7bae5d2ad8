package stx_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/datagen"
	"repro/internal/processes"
	"repro/internal/scenario"
	"repro/internal/schema"
	"repro/internal/stx"
	x "repro/internal/xmlmsg"
)

// sheets are the twelve stylesheets the process types translate with.
var sheets = []*stx.Stylesheet{
	processes.SheetBeijingToSeoul, processes.SheetMDMToEurope,
	processes.SheetHongkongToCDB, processes.SheetSanDiegoToCDB,
	processes.SheetBeijingOrdersRS, processes.SheetBeijingCustomersRS,
	processes.SheetBeijingProductsRS, processes.SheetBeijingItemsRS,
	processes.SheetSeoulOrdersRS, processes.SheetSeoulCustomersRS,
	processes.SheetSeoulProductsRS, processes.SheetSeoulItemsRS,
}

// treeTransform is the reference AppendTransform must byte-match.
func treeTransform(s *stx.Stylesheet, b []byte) ([]byte, error) {
	doc, err := x.ParseBytes(b)
	if err != nil {
		return nil, err
	}
	out, err := s.Transform(doc)
	if err != nil || out == nil {
		return nil, err
	}
	return out.AppendXML(nil), nil
}

// sameAsTree reports how AppendTransform differs from the tree path on b,
// or "" when bytes and errors agree.
func sameAsTree(s *stx.Stylesheet, b []byte) string {
	got, err1 := s.AppendTransform(nil, b)
	want, err2 := treeTransform(s, b)
	if fmt.Sprint(err1) != fmt.Sprint(err2) {
		return fmt.Sprintf("error %v, tree path %v", err1, err2)
	}
	if err1 == nil && !bytes.Equal(got, want) {
		return fmt.Sprintf("got\n%s\ntree path\n%s", got, want)
	}
	return ""
}

// p09Answers returns the eight web-service answers one P09 instance
// fetches at d=0.05, keyed by the stylesheet that translates each.
func p09Answers(t *testing.T) map[*stx.Stylesheet][]byte {
	t.Helper()
	s, err := scenario.New(scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	gen := datagen.MustNew(datagen.Config{Seed: 42, Datasize: 0.05, Dist: datagen.Uniform})
	if err := s.InitializeSources(gen); err != nil {
		t.Fatal(err)
	}
	feeds := []struct {
		system, table string
		sheet         *stx.Stylesheet
	}{
		{schema.SysBeijing, "Customers", processes.SheetBeijingCustomersRS},
		{schema.SysBeijing, "Products", processes.SheetBeijingProductsRS},
		{schema.SysBeijing, "Orders", processes.SheetBeijingOrdersRS},
		{schema.SysBeijing, "OrderItems", processes.SheetBeijingItemsRS},
		{schema.SysSeoul, "Customers", processes.SheetSeoulCustomersRS},
		{schema.SysSeoul, "Products", processes.SheetSeoulProductsRS},
		{schema.SysSeoul, "Orders", processes.SheetSeoulOrdersRS},
		{schema.SysSeoul, "OrderItems", processes.SheetSeoulItemsRS},
	}
	out := make(map[*stx.Stylesheet][]byte, len(feeds))
	for _, f := range feeds {
		b, err := s.WSClient(f.system).Query(f.table)
		if err != nil {
			t.Fatal(err)
		}
		out[f.sheet] = b
	}
	return out
}

// e1Messages serializes the E1 messages of the first indexes, as the
// driver generates them.
func e1Messages() [][]byte {
	gen := datagen.MustNew(datagen.Config{Seed: 42, Datasize: 0.05, Dist: datagen.Uniform})
	var out [][]byte
	for i := 0; i < 12; i++ {
		sd, _ := gen.SanDiegoOrder(i)
		for _, doc := range []*x.Node{gen.BeijingCustomerMsg(i), gen.MDMCustomer(i),
			gen.ViennaOrder(i), gen.HongkongOrder(i), sd} {
			out = append(out, doc.AppendXML(nil))
		}
	}
	return out
}

// nonCanonical are documents outside the shape AppendXML writes, and
// canonical ones that the real messages do not cover; each must give the
// tree path's bytes or error.
var nonCanonical = []string{
	`<?xml version="1.0"?><HKOrder><OrdNo>1</OrdNo></HKOrder>`,
	"<HKOrder>\n  <OrdNo>1</OrdNo>\n</HKOrder>\n",
	` <HKOrder><OrdNo>1</OrdNo></HKOrder>`,
	`<HKOrder><OrdNo>1</OrdNo><Positions/></HKOrder>`,
	`<HKOrder><!-- c --><OrdNo>1</OrdNo></HKOrder>`,
	`<HKOrder><OrdNo>a&nbsp;b</OrdNo></HKOrder>`,
	`<HKOrder><OrdNo>&quot;1&#65;&#x42;&apos;&gt;</OrdNo></HKOrder>`,
	`<HKOrder><OrdNo>a ]]> b</OrdNo></HKOrder>`,
	`<HKOrder><OrdNo>  1 </OrdNo><CustNo>  </CustNo></HKOrder>`,
	`<HKOrder><OrdNo>1<CustNo>2</CustNo></OrdNo></HKOrder>`,
	`<HKOrder><OrdNo>1</OrdNo>x</HKOrder>`,
	`<HKOrder b='1'><OrdNo>1</OrdNo></HKOrder>`,
	`<HKOrder z="1" a="2"></HKOrder>`,
	`<HKOrder a = "1"></HKOrder>`,
	`<HKOrder xmlns="urn:x"><OrdNo>1</OrdNo></HKOrder>`,
	`<HKOrder><Positions><Pos no="1" o="2"></Pos><Pos a="&lt;&#34;" no="3"></Pos></Positions></HKOrder>`,
	`<MasterData><Customer custkey="1"></Customer><Customer custkey="2"></Customer></MasterData>`,
	`<MasterData></MasterData>`,
	`<ResultSet name="T"><Metadata><Column name="Cust_ID" type="BIGINT"></Column></Metadata><Rows></Rows></ResultSet>`,
	`<HKOrder><OrdNo>1</OrdNo></HKOrder><HKOrder></HKOrder>`,
	`<HKOrder><OrdNo>1</OrdNo></HKOrder> `,
	`<HKOrder><OrdNo>1</OrdNo>`,
	`<HKOrder><OrdNo>1</CustNo></HKOrder>`,
	`<HKOrder></HKOrder >`,
	"<HKOrder>\xff</HKOrder>",
	`<HKOrder>�</HKOrder>`,
	`<1HKOrder></1HKOrder>`,
	`<`,
	``,
	`plain text`,
}

// TestAppendTransformMatchesTree holds AppendTransform to
// Transform(ParseBytes(b)).AppendXML for every stylesheet of the process
// types over the real P09 answers, the E1 messages and the documents
// above.
func TestAppendTransformMatchesTree(t *testing.T) {
	inputs := e1Messages()
	for _, b := range p09Answers(t) {
		inputs = append(inputs, b)
	}
	for _, s := range nonCanonical {
		inputs = append(inputs, []byte(s))
	}
	for _, sheet := range sheets {
		for _, b := range inputs {
			if diff := sameAsTree(sheet, b); diff != "" {
				t.Fatalf("%s on %.200q: %s", sheet.Name, b, diff)
			}
		}
	}
	// Two attributes renamed onto one name have no deterministic tree
	// output; the single pass leaves them to the tree.
	if stx.Streams(processes.SheetHongkongToCDB, []byte(`<Pos no="1" pos="2"></Pos>`)) {
		t.Fatal("attributes renamed onto one name stream")
	}
	// The canonical messages take the single pass, except where the root
	// is unwrapped.
	for _, b := range e1Messages() {
		for _, sheet := range sheets {
			if root, _ := x.ParseBytes(b); sheet == processes.SheetMDMToEurope && root.Name == "MasterData" {
				continue
			}
			if !stx.Streams(sheet, b) {
				t.Fatalf("%s does not stream %q", sheet.Name, b)
			}
		}
	}
}

// TestP09AnswersStayOnFastPaths checks that each translated P09 answer is
// produced in one pass and reads back through ScanResultSet, so neither
// half of the byte path silently falls back to a tree.
func TestP09AnswersStayOnFastPaths(t *testing.T) {
	answers := p09Answers(t)
	if len(answers) != 8 {
		t.Fatalf("%d answers", len(answers))
	}
	for sheet, b := range answers {
		if !stx.Streams(sheet, b) {
			t.Fatalf("%s does not stream its answer", sheet.Name)
		}
		out, err := sheet.AppendTransform(nil, b)
		if err != nil {
			t.Fatal(err)
		}
		name, r, rest, ok := x.ScanResultSet(string(out))
		if !ok || rest != "" {
			t.Fatalf("%s: translated answer leaves the scan: ok=%v rest=%.80q", sheet.Name, ok, rest)
		}
		if r.Len() == 0 || name == "" {
			t.Fatalf("%s: empty answer %q", sheet.Name, name)
		}
		// A tree per answer costs one allocation per element; the single
		// pass costs a handful per document.
		if n := testing.AllocsPerRun(3, func() { _, _ = sheet.AppendTransform(nil, b) }); n > 32 {
			t.Fatalf("%s: %.0f allocations per transform", sheet.Name, n)
		}
	}
}

// everyAction exercises what the process stylesheets leave out: dropped
// and unwrapped subtrees, computed text, and attributes renamed past
// their neighbours or dropped.
var everyAction = stx.MustNew("every-action", stx.ActCopy,
	stx.Rule{Pattern: "Pos", Action: stx.ActRename, NewName: "Line",
		AttrMap: map[string]string{"no": "z", "b": "", "z": "a"}},
	stx.Rule{Pattern: "Drop", Action: stx.ActDrop},
	stx.Rule{Pattern: "Wrap", Action: stx.ActUnwrap},
	stx.Rule{Pattern: "Wrap/Count", Action: stx.ActText, NewName: "N",
		TextFunc: func(n *x.Node) string { return fmt.Sprint(n.CountElements(), n.Text) }},
)

// FuzzAppendTransform holds AppendTransform to the tree path on arbitrary
// input, for every process stylesheet and one that uses every action.
func FuzzAppendTransform(f *testing.F) {
	for _, b := range e1Messages() {
		f.Add(b)
	}
	for _, s := range nonCanonical {
		f.Add([]byte(s))
	}
	f.Add([]byte(`<R><Pos b="1" c="2" no="3" z="4"><Drop><Pos></Pos></Drop></Pos>` +
		`<Wrap><Count><V>1</V><V>2</V></Count><Pos no="&amp;">t</Pos></Wrap></R>`))
	f.Add([]byte(`<ResultSet name="Orders"><Metadata><Column key="true" name="Ord_ID" type="BIGINT"></Column>` +
		`<Column name="Cust_ID" nullable="true" type="BIGINT"></Column></Metadata>` +
		`<Rows><Row><V>1</V><V null="true"></V></Row></Rows></ResultSet>`))
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, sheet := range append(sheets, everyAction) {
			if diff := sameAsTree(sheet, b); diff != "" {
				t.Fatalf("%s on %q: %s", sheet.Name, b, diff)
			}
		}
	})
}

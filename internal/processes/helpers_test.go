package processes

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/datagen"
	rel "repro/internal/relational"
	"repro/internal/schema"
	x "repro/internal/xmlmsg"
)

func ts(day int) rel.Value {
	return rel.NewTime(time.Date(2008, 4, day, 0, 0, 0, 0, time.UTC))
}

func TestUSCityKeyDeterministicAndAmerican(t *testing.T) {
	for key := int64(4_000_000); key < 4_000_100; key++ {
		ck := USCityKey(key)
		if USCityKey(key) != ck {
			t.Fatal("not deterministic")
		}
		if schema.CityRegionName(ck) != schema.RegionAmerica {
			t.Fatalf("city %d not American", ck)
		}
	}
	// Different keys spread over multiple cities.
	seen := map[int64]bool{}
	for key := int64(0); key < 10; key++ {
		seen[USCityKey(key)] = true
	}
	if len(seen) < 2 {
		t.Error("no spread over US cities")
	}
}

func TestEuropeCustomerToCDBMapping(t *testing.T) {
	in := rel.MustRelation(schema.EuropeCustomer, []rel.Row{{
		rel.NewInt(5), rel.NewString("Ada"), rel.NewString("Street 1"),
		rel.NewInt(1), rel.NewInt(100) /* Berlin */, rel.NewString("123"),
		rel.NewString("Berlin"),
	}})
	out, err := EuropeCustomerToCDB(in, "Berlin")
	if err != nil {
		t.Fatal(err)
	}
	if !out.Schema().Equal(schema.CDBCustomer) {
		t.Fatalf("schema: %s", out.Schema())
	}
	row := out.Row(0)
	s := schema.CDBCustomer
	if row[s.MustOrdinal("City")].Str() != "Berlin" ||
		row[s.MustOrdinal("Nation")].Str() != "Germany" ||
		row[s.MustOrdinal("Region")].Str() != "Europe" {
		t.Errorf("denormalization: %v", row)
	}
	if row[s.MustOrdinal("Integrated")].Bool() {
		t.Error("fresh row flagged integrated")
	}
	if row[s.MustOrdinal("SrcSystem")].Str() != "Berlin" {
		t.Error("provenance")
	}
}

func TestEuropeOrdersToCDBSemanticMapping(t *testing.T) {
	in := rel.MustRelation(schema.EuropeOrders, []rel.Row{{
		rel.NewInt(7), rel.NewInt(5), ts(1), rel.NewString("S"),
		rel.NewFloat(99), rel.NewInt(1), rel.NewString("Paris"),
	}})
	out, err := EuropeOrdersToCDB(in, "Paris")
	if err != nil {
		t.Fatal(err)
	}
	row := out.Row(0)
	s := schema.CDBOrders
	if row[s.MustOrdinal("Status")].Str() != "SHIPPED" {
		t.Errorf("state mapping: %v", row)
	}
	if row[s.MustOrdinal("Priority")].Str() != "URGENT" {
		t.Errorf("priority mapping: %v", row)
	}
	if row[s.MustOrdinal("Citykey")].Int() != schema.CityByName("Paris").Key {
		t.Errorf("location resolution: %v", row)
	}
}

func TestEuropeOrdersToCDBRejectsUnknowns(t *testing.T) {
	badLoc := rel.MustRelation(schema.EuropeOrders, []rel.Row{{
		rel.NewInt(7), rel.NewInt(5), ts(1), rel.NewString("O"),
		rel.NewFloat(1), rel.NewInt(1), rel.NewString("Atlantis"),
	}})
	if _, err := EuropeOrdersToCDB(badLoc, "x"); err == nil {
		t.Error("unknown location accepted")
	}
	badState := rel.MustRelation(schema.EuropeOrders, []rel.Row{{
		rel.NewInt(7), rel.NewInt(5), ts(1), rel.NewString("Z"),
		rel.NewFloat(1), rel.NewInt(1), rel.NewString("Berlin"),
	}})
	if _, err := EuropeOrdersToCDB(badState, "x"); err == nil {
		t.Error("unknown state accepted")
	}
}

func TestTPCHOrdersToCDBMapping(t *testing.T) {
	in := rel.MustRelation(schema.TPCHOrders, []rel.Row{{
		rel.NewInt(9), rel.NewInt(4_000_001), rel.NewString("F"),
		rel.NewFloat(10), ts(2), rel.NewString("2-HIGH"),
	}})
	out, err := TPCHOrdersToCDB(in, schema.SysUSEastcoast)
	if err != nil {
		t.Fatal(err)
	}
	row := out.Row(0)
	s := schema.CDBOrders
	if row[s.MustOrdinal("Status")].Str() != "CLOSED" ||
		row[s.MustOrdinal("Priority")].Str() != "HIGH" {
		t.Errorf("semantic mapping: %v", row)
	}
	if row[s.MustOrdinal("Citykey")].Int() != USCityKey(4_000_001) {
		t.Errorf("city synthesis: %v", row)
	}
	bad := rel.MustRelation(schema.TPCHOrders, []rel.Row{{
		rel.NewInt(9), rel.NewInt(1), rel.NewString("X"), rel.NewFloat(1), ts(2), rel.NewString("2-HIGH"),
	}})
	if _, err := TPCHOrdersToCDB(bad, "x"); err == nil {
		t.Error("unknown TPC-H status accepted")
	}
}

func TestTPCHPartToCDBAssignsGroups(t *testing.T) {
	in := rel.MustRelation(schema.TPCHPart, []rel.Row{
		{rel.NewInt(3000), rel.NewString("Widget"), rel.NewString("Brand#1"), rel.NewFloat(5)},
		{rel.NewInt(3001), rel.NewString("Gadget"), rel.NewString("Brand#2"), rel.NewFloat(6)},
	})
	out, err := TPCHPartToCDB(in, "us")
	if err != nil {
		t.Fatal(err)
	}
	s := schema.CDBProduct
	for i := 0; i < out.Len(); i++ {
		gk := out.Row(i)[s.MustOrdinal("Groupkey")].Int()
		if schema.GroupByKey(gk) == nil {
			t.Fatalf("synthesized group %d not in catalog", gk)
		}
	}
}

func TestAsiaMappersAttachCityAndProvenance(t *testing.T) {
	// A column-renamed Seoul orders dataset (as after the P09 translation).
	renamed := rel.MustRelation(rel.MustSchema([]rel.Column{
		rel.Col("Ordkey", rel.TypeInt), rel.Col("Custkey", rel.TypeInt),
		rel.Col("Orderdate", rel.TypeTime), rel.Col("Status", rel.TypeString),
		rel.Col("Priority", rel.TypeString), rel.Col("Totalprice", rel.TypeFloat),
	}, "Ordkey"), []rel.Row{{
		rel.NewInt(1), rel.NewInt(2), ts(3), rel.NewString("OPEN"),
		rel.NewString("LOW"), rel.NewFloat(10),
	}})
	seoulKey := schema.CityByName("Seoul").Key
	out, err := AsiaOrdersToCDB(renamed, seoulKey, schema.SysSeoul)
	if err != nil {
		t.Fatal(err)
	}
	s := schema.CDBOrders
	if out.Row(0)[s.MustOrdinal("Citykey")].Int() != seoulKey ||
		out.Row(0)[s.MustOrdinal("SrcSystem")].Str() != schema.SysSeoul {
		t.Errorf("asia order mapping: %v", out.Row(0))
	}
}

func TestAsiaCustomersToCDBResolvesCityNames(t *testing.T) {
	renamed := rel.MustRelation(rel.MustSchema([]rel.Column{
		rel.Col("Custkey", rel.TypeInt), rel.Col("Name", rel.TypeString),
		rel.Col("Address", rel.TypeString), rel.Col("City", rel.TypeString),
		rel.Col("Phone", rel.TypeString),
	}, "Custkey"), []rel.Row{
		{rel.NewInt(1), rel.NewString("Li"), rel.NewString("a"), rel.NewString("Beijing"), rel.NewString("1")},
		{rel.NewInt(2), rel.NewString("Wu"), rel.NewString("b"), rel.NewString("Nowhere"), rel.NewString("2")},
	})
	out, err := AsiaCustomersToCDB(renamed, schema.SysBeijing)
	if err != nil {
		t.Fatal(err)
	}
	s := schema.CDBCustomer
	if out.Row(0)[s.MustOrdinal("Nation")].Str() != "China" ||
		out.Row(0)[s.MustOrdinal("Region")].Str() != "Asia" {
		t.Errorf("city resolution: %v", out.Row(0))
	}
	// Unknown cities degrade to empty names rather than failing (dirty
	// data is the cleansing procedures' job).
	if !out.Row(1)[s.MustOrdinal("Nation")].IsNull() && out.Row(1)[s.MustOrdinal("Nation")].Str() != "" {
		t.Errorf("unknown city: %v", out.Row(1))
	}
}

func TestCDBOrderFromDoc(t *testing.T) {
	doc := x.New("CDBOrder",
		x.NewText("Ordkey", "15000001"),
		x.NewText("Custkey", "42"),
		x.NewText("Citykey", "103"),
		x.NewText("Orderdate", "2008-04-07T10:00:00Z"),
		x.NewText("Status", "OPEN"),
		x.NewText("Priority", "HIGH"),
		x.NewText("Totalprice", "120.5"),
		x.New("Lines",
			x.New("Line",
				x.NewText("Prodkey", "1001"), x.NewText("Quantity", "3"),
				x.NewText("Extendedprice", "120.5"),
			).SetAttr("pos", "1"),
		),
	)
	orders, lines, err := CDBOrderFromXML(doc.AppendXML(nil), -1, "Vienna")
	if err != nil {
		t.Fatal(err)
	}
	if orders.Len() != 1 || lines.Len() != 1 {
		t.Fatalf("rows: %d/%d", orders.Len(), lines.Len())
	}
	s := schema.CDBOrders
	if orders.Row(0)[s.MustOrdinal("Citykey")].Int() != 103 {
		t.Error("citykey from doc")
	}
	// cityKey override wins over the document.
	orders2, _, err := CDBOrderFromXML(doc.AppendXML(nil), 200, "Vienna")
	if err != nil {
		t.Fatal(err)
	}
	if orders2.Row(0)[s.MustOrdinal("Citykey")].Int() != 200 {
		t.Error("citykey override")
	}
}

func TestCDBOrderFromDocErrors(t *testing.T) {
	if _, _, err := CDBOrderFromXML(nil, -1, "x"); err == nil {
		t.Error("nil doc")
	}
	if _, _, err := CDBOrderFromXML(x.New("Wrong").AppendXML(nil), -1, "x"); err == nil {
		t.Error("wrong root")
	}
	broken := x.New("CDBOrder", x.NewText("Ordkey", "nope"))
	if _, _, err := CDBOrderFromXML(broken.AppendXML(nil), -1, "x"); err == nil {
		t.Error("bad ordkey")
	}
}

func TestEuropeCustomerRowFromMsg(t *testing.T) {
	doc := x.New("EUCustomer",
		x.NewText("Name", "Ada"),
		x.NewText("Address", "Street"),
		x.NewText("City", "Trondheim"),
		x.NewText("Phone", "1"),
	).SetAttr("custkey", "1000005")
	row, key, err := EuropeCustomerRowFromXML(doc.AppendXML(nil))
	if err != nil {
		t.Fatal(err)
	}
	if key != 1000005 {
		t.Errorf("key: %d", key)
	}
	if err := schema.EuropeCustomer.CheckRow(row); err != nil {
		t.Errorf("row invalid: %v", err)
	}
	s := schema.EuropeCustomer
	if row[s.MustOrdinal("Location")].Str() != "Trondheim" {
		t.Errorf("location: %v", row)
	}
	// Unknown city fails.
	doc.Child("City").Text = "Nowhere"
	if _, _, err := EuropeCustomerRowFromXML(doc.AppendXML(nil)); err == nil {
		t.Error("unknown city accepted")
	}
	// Bad key fails.
	doc.Child("City").Text = "Berlin"
	doc.SetAttr("custkey", "abc")
	if _, _, err := EuropeCustomerRowFromXML(doc.AppendXML(nil)); err == nil {
		t.Error("bad custkey accepted")
	}
}

func TestCheckRows(t *testing.T) {
	good := rel.MustRelation(schema.WHCustomer, []rel.Row{{
		rel.NewInt(1), rel.NewString("A"), rel.NewString("a"), rel.NewString("p"),
		rel.NewString("Berlin"), rel.NewString("Germany"), rel.NewString("Europe"),
	}})
	if err := CheckRows(good, schema.WHCustomer); err != nil {
		t.Errorf("valid dataset rejected: %v", err)
	}
	// Mismatched schema fails.
	if err := CheckRows(good, schema.WHProduct); err == nil {
		t.Error("schema mismatch accepted")
	}
}

func TestStylesheetsTranslateSampleMessages(t *testing.T) {
	// Hongkong order message -> canonical CDB form.
	hk := x.New("HKOrder",
		x.NewText("OrdNo", "1"), x.NewText("CustNo", "2"),
		x.NewText("OrdDate", "2008-04-07T10:00:00Z"),
		x.NewText("OrdState", "OPEN"), x.NewText("OrdPrio", "LOW"),
		x.NewText("OrdTotal", "10"),
		x.New("Positions", x.New("Pos",
			x.NewText("ProdNo", "5"), x.NewText("Qty", "1"), x.NewText("Amt", "10"),
		).SetAttr("no", "1")),
	)
	out, err := SheetHongkongToCDB.Transform(hk)
	if err != nil {
		t.Fatal(err)
	}
	if out.Name != "CDBOrder" || out.PathText("Ordkey") != "1" {
		t.Fatalf("hk translation: %s", out)
	}
	line := out.Child("Lines").Child("Line")
	if line == nil || line.Attr("pos") != "1" || line.PathText("Prodkey") != "5" {
		t.Fatalf("hk line translation: %s", out)
	}
	// San Diego message -> canonical CDB form.
	sd := x.New("SDOrder",
		x.NewText("OrderNo", "3"), x.NewText("Customer", "4"),
		x.NewText("Placed", "2008-04-07T10:00:00Z"),
		x.NewText("Status", "OPEN"), x.NewText("Priority", "LOW"),
		x.NewText("Sum", "1"),
		x.New("Items", x.New("Item",
			x.NewText("PartNo", "6"), x.NewText("Count", "2"), x.NewText("Value", "1"),
		).SetAttr("no", "1")),
	)
	out, err = SheetSanDiegoToCDB.Transform(sd)
	if err != nil {
		t.Fatal(err)
	}
	if out.Name != "CDBOrder" || out.PathText("Custkey") != "4" {
		t.Fatalf("sd translation: %s", out)
	}
}

func TestResultSetStylesheetsRewriteAllMappedColumns(t *testing.T) {
	// The P09 stylesheets must rename exactly the schema-mapped columns.
	rs := x.New("ResultSet",
		x.New("Metadata",
			x.New("Column").SetAttr("name", "Ord_ID").SetAttr("type", "BIGINT"),
			x.New("Column").SetAttr("name", "Ord_State").SetAttr("type", "VARCHAR"),
		),
		x.New("Rows"),
	).SetAttr("name", "Orders")
	out, err := SheetBeijingOrdersRS.Transform(rs)
	if err != nil {
		t.Fatal(err)
	}
	cols := out.Child("Metadata").ChildrenNamed("Column")
	if cols[0].Attr("name") != "Ordkey" || cols[1].Attr("name") != "Status" {
		t.Fatalf("rs rewrite: %v %v", cols[0].Attrs, cols[1].Attrs)
	}
}

// TestScannersFollowTreeNavigation checks the token scanners against the
// tree's navigation rules: the first element of a name wins, only the
// first Lines/Head counts, records are read in document order, and a
// document outside the canonical shape reads like its canonical form.
func TestScannersFollowTreeNavigation(t *testing.T) {
	canon := `<CDBOrder><Lines><Line pos="1"><Prodkey>7</Prodkey><Prodkey>8</Prodkey><Quantity>2</Quantity>` +
		`<Extendedprice>1.5</Extendedprice></Line><Other></Other><Line pos="2"><Prodkey>9</Prodkey><Quantity>1</Quantity>` +
		`<Extendedprice>3</Extendedprice></Line></Lines><Lines><Line pos="3"></Line></Lines>` +
		`<Ordkey>15000001</Ordkey><Ordkey>99</Ordkey><Custkey>42</Custkey><Citykey>103</Citykey>` +
		`<Orderdate>2008-04-07T10:00:00Z</Orderdate><Status>OPEN</Status><Priority>HIGH</Priority>` +
		`<Totalprice>4.5</Totalprice><X><Ordkey>1</Ordkey></X></CDBOrder>`
	pretty := "<?xml version=\"1.0\"?>\n" + strings.ReplaceAll(strings.ReplaceAll(canon, "><", ">\n  <"),
		`<Line pos="1">`, `<Line pos='1' >`)
	for _, doc := range []string{canon, pretty} {
		orders, lines, err := CDBOrderFromXML([]byte(doc), -1, "Vienna")
		if err != nil {
			t.Fatal(err)
		}
		o := orders.Row(0)
		if o[0].Int() != 15000001 || o[2].Int() != 103 || o[4].Str() != "OPEN" || o[6].Float() != 4.5 {
			t.Fatalf("order row %v from %q", o, doc)
		}
		if lines.Len() != 2 || lines.Row(0)[2].Int() != 7 || lines.Row(1)[1].Int() != 2 {
			t.Fatalf("line rows %v from %q", lines.Rows(), doc)
		}
	}
	if _, _, err := CDBOrderFromXML([]byte(canon[:40]), -1, "x"); err == nil {
		t.Fatal("truncated document accepted")
	}

	// P04's translation writes canonical CDBOrder bytes the scanner reads.
	g := datagen.MustNew(datagen.Config{Seed: 42, Datasize: 0.05, Dist: datagen.Uniform})
	for i := 0; i < 20; i++ {
		vienna := g.ViennaOrder(i)
		out, err := appendViennaToCDB(nil, vienna.AppendXML(nil), 103)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := x.ParseBytes(out)
		if err != nil || !bytes.Equal(doc.AppendXML(nil), out) {
			t.Fatalf("not canonical: %s (%v)", out, err)
		}
		if doc.PathText("Ordkey") != vienna.Attr("id") || doc.PathText("Custkey") != vienna.PathText("Head/CustRef") ||
			len(doc.Child("Lines").Children) != len(vienna.Child("Lines").Children) {
			t.Fatalf("translation of %s: %s", vienna, out)
		}
		if _, _, err := CDBOrderFromXML(out, -1, schema.SysVienna); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := appendViennaToCDB(nil, []byte(`<ViennaOrder id="1"><Lines></Lines></ViennaOrder>`), 1); err == nil ||
		err.Error() != "P04: Vienna message without Head" {
		t.Fatalf("missing Head: %v", err)
	}
}

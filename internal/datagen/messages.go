package datagen

import (
	"fmt"

	"repro/internal/schema"
	x "repro/internal/xmlmsg"
)

// E1 message generators: the Client sends these XML documents to the
// integration system as process-initiating events. Message i of a period
// is a pure function of (Config, i), so the verification phase can
// re-derive what was sent.

// SanDiegoErrorRate is the fraction of San Diego messages generated with
// schema violations ("It is assumed that this application is very
// error-prone, which requires a detailed validation process").
const SanDiegoErrorRate = 0.12

// ViennaOrder generates the i-th Vienna order message of the period
// (process type P04). Customer references point into the Europe sources
// so the enrichment step can resolve them.
func (g *Generator) ViennaOrder(i int) *x.Node {
	o := g.ViennaOrderEntity(i)
	lines := x.New("Lines")
	for _, l := range o.Lines {
		lines.Add(x.New("Line",
			x.NewText("ProdRef", fmt.Sprint(l.ProdKey)),
			x.NewText("Qty", fmt.Sprint(l.Quantity)),
			x.NewText("Price", fmt.Sprint(l.Price)),
		).SetAttr("pos", fmt.Sprint(l.Pos)))
	}
	return x.New("ViennaOrder",
		x.New("Head",
			x.NewText("OrderDate", o.Date.Format("2006-01-02T15:04:05Z")),
			x.NewText("CustRef", fmt.Sprint(o.CustKey)),
			x.NewText("Priority", fmt.Sprint(europePrioCode(o.Priority))),
			x.NewText("State", europeStateCode(o.Status)),
			x.NewText("Total", fmt.Sprint(o.Total)),
		),
		lines,
	).SetAttr("id", fmt.Sprint(o.Key))
}

// MDMCustomer generates the i-th MDM_Europe master-data message of the
// period (process type P02): a customer update routed to Berlin/Paris or
// Trondheim by the Custkey switch.
func (g *Generator) MDMCustomer(i int) *x.Node {
	r := g.indexRNG("mdm", i)
	var key int64
	var cities []schema.CityRow
	if r.Bool(0.6) {
		key = schema.CustKeys[schema.SysBerlinParis].Lo + r.Int63n(int64(g.CustomerCount())*2)
		cities = []schema.CityRow{*schema.CityByName(schema.LocBerlin), *schema.CityByName(schema.LocParis)}
	} else {
		key = schema.CustKeys[schema.SysTrondheim].Lo + r.Int63n(int64(g.CustomerCount())*2)
		cities = []schema.CityRow{*schema.CityByName("Trondheim")}
	}
	c := g.CustomerFor(key, cities)
	name := c.Name
	if name == "" {
		name = "Unknown " + fmt.Sprint(key) // MDM sends clean master data
	}
	return x.New("MasterData",
		x.New("Customer",
			x.NewText("Name", name),
			x.NewText("Address", c.Address),
			x.NewText("City", schema.CityByKey(c.CityKey).Name),
			x.NewText("Phone", c.Phone),
		).SetAttr("custkey", fmt.Sprint(key)),
	)
}

// HongkongOrder generates the i-th Hongkong order message (process P08).
func (g *Generator) HongkongOrder(i int) *x.Node {
	o := g.HongkongOrderEntity(i)
	positions := x.New("Positions")
	for _, l := range o.Lines {
		positions.Add(x.New("Pos",
			x.NewText("ProdNo", fmt.Sprint(l.ProdKey)),
			x.NewText("Qty", fmt.Sprint(l.Quantity)),
			x.NewText("Amt", fmt.Sprint(l.Price)),
		).SetAttr("no", fmt.Sprint(l.Pos)))
	}
	return x.New("HKOrder",
		x.NewText("OrdNo", fmt.Sprint(o.Key)),
		x.NewText("CustNo", fmt.Sprint(o.CustKey)),
		x.NewText("OrdDate", o.Date.Format("2006-01-02T15:04:05Z")),
		x.NewText("OrdState", o.Status),
		x.NewText("OrdPrio", o.Priority),
		x.NewText("OrdTotal", fmt.Sprint(o.Total)),
		positions,
	)
}

// SanDiegoOrder generates the i-th San Diego order message (process P10).
// A SanDiegoErrorRate fraction of messages carries schema violations that
// the P10 validation must divert to the failed-data destination. The
// second return value reports whether the message was generated broken.
func (g *Generator) SanDiegoOrder(i int) (*x.Node, bool) {
	o, r, broken := g.sanDiegoOrder(i)
	items := x.New("Items")
	for _, l := range o.Lines {
		items.Add(x.New("Item",
			x.NewText("PartNo", fmt.Sprint(l.ProdKey)),
			x.NewText("Count", fmt.Sprint(l.Quantity)),
			x.NewText("Value", fmt.Sprint(l.Price)),
		).SetAttr("no", fmt.Sprint(l.Pos)))
	}
	doc := x.New("SDOrder",
		x.NewText("OrderNo", fmt.Sprint(o.Key)),
		x.NewText("Customer", fmt.Sprint(o.CustKey)),
		x.NewText("Placed", o.Date.Format("2006-01-02T15:04:05Z")),
		x.NewText("Status", o.Status),
		x.NewText("Priority", o.Priority),
		x.NewText("Sum", fmt.Sprint(o.Total)),
		items,
	)
	if !broken {
		return doc, false
	}
	// Inject one of four schema violations, deterministically per message.
	switch r.Intn(4) {
	case 0: // drop the customer reference
		doc.Children = removeChild(doc.Children, "Customer")
	case 1: // unparsable decimal (locale-style comma)
		doc.Child("Sum").Text = "12,50"
	case 2: // bad timestamp
		doc.Child("Placed").Text = "yesterday"
	case 3: // undeclared element
		doc.Add(x.NewText("Remark", "please hurry"))
	}
	return doc, true
}

func removeChild(children []*x.Node, name string) []*x.Node {
	out := children[:0]
	for _, c := range children {
		if c.Name != name {
			out = append(out, c)
		}
	}
	return out
}

// BeijingCustomerMsg generates the i-th Beijing master-data exchange
// message (process P01): a customer in Beijing spelling, to be translated
// to the Seoul schema and sent to Seoul.
func (g *Generator) BeijingCustomerMsg(i int) *x.Node {
	keys := g.pools.beijingCust
	key := keys[i%len(keys)]
	cities := []schema.CityRow{*schema.CityByName("Beijing")}
	c := g.CustomerFor(key, cities)
	name := c.Name
	if name == "" {
		name = "Unknown " + fmt.Sprint(key)
	}
	return x.New("BJCustomer",
		x.NewText("Cust_ID", fmt.Sprint(c.Key)),
		x.NewText("Cust_Name", name),
		x.NewText("Cust_Addr", c.Address),
		x.NewText("Cust_City", "Beijing"),
		x.NewText("Cust_Phone", c.Phone),
	)
}

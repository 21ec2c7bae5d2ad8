package datagen

import (
	"strconv"

	"repro/internal/schema"
	x "repro/internal/xmlmsg"
)

// E1 message generators: the Client sends these XML documents to the
// integration system as process-initiating events. Message i of a period
// is a pure function of (Config, i), so the verification phase can
// re-derive what was sent.
//
// Each message kind has a byte builder, AppendX(dst, i), that appends the
// message in the canonical shape xmlmsg's AppendXML writes; the driver
// sends those bytes. The tree form X(i) parses the same bytes, for
// callers that inspect a message.

// SanDiegoErrorRate is the fraction of San Diego messages generated with
// schema violations ("It is assumed that this application is very
// error-prone, which requires a detailed validation process").
const SanDiegoErrorRate = 0.12

// msgDate is the timestamp layout of every E1 message.
const msgDate = "2006-01-02T15:04:05Z"

// ViennaOrder generates the i-th Vienna order message of the period
// (process type P04).
func (g *Generator) ViennaOrder(i int) *x.Node { return mustParse(g.AppendViennaOrder(nil, i)) }

// AppendViennaOrder appends the i-th Vienna order message (process type
// P04). Customer references point into the Europe sources so the
// enrichment step can resolve them.
func (g *Generator) AppendViennaOrder(dst []byte, i int) []byte {
	o := g.ViennaOrderEntity(i)
	dst = append(dst, `<ViennaOrder id="`...)
	dst = strconv.AppendInt(dst, o.Key, 10)
	dst = append(dst, `"><Head><OrderDate>`...)
	dst = o.Date.AppendFormat(dst, msgDate)
	dst = append(dst, "</OrderDate><CustRef>"...)
	dst = strconv.AppendInt(dst, o.CustKey, 10)
	dst = append(dst, "</CustRef><Priority>"...)
	dst = strconv.AppendInt(dst, europePrioCode(o.Priority), 10)
	dst = append(dst, "</Priority><State>"...)
	dst = x.AppendText(dst, europeStateCode(o.Status))
	dst = append(dst, "</State><Total>"...)
	dst = appendFloat(dst, o.Total)
	dst = append(dst, "</Total></Head><Lines>"...)
	for _, l := range o.Lines {
		dst = append(dst, `<Line pos="`...)
		dst = strconv.AppendInt(dst, l.Pos, 10)
		dst = append(dst, `"><ProdRef>`...)
		dst = strconv.AppendInt(dst, l.ProdKey, 10)
		dst = append(dst, "</ProdRef><Qty>"...)
		dst = strconv.AppendInt(dst, l.Quantity, 10)
		dst = append(dst, "</Qty><Price>"...)
		dst = appendFloat(dst, l.Price)
		dst = append(dst, "</Price></Line>"...)
	}
	return append(dst, "</Lines></ViennaOrder>"...)
}

// MDMCustomer generates the i-th MDM_Europe master-data message of the
// period (process type P02).
func (g *Generator) MDMCustomer(i int) *x.Node { return mustParse(g.AppendMDMCustomer(nil, i)) }

// AppendMDMCustomer appends the i-th MDM_Europe master-data message
// (process type P02): a customer update routed to Berlin/Paris or
// Trondheim by the Custkey switch.
func (g *Generator) AppendMDMCustomer(dst []byte, i int) []byte {
	r := g.indexRNG("mdm", i)
	var key int64
	var cities []schema.CityRow
	if r.Bool(0.6) {
		key = schema.CustKeys[schema.SysBerlinParis].Lo + r.Int63n(int64(g.CustomerCount())*2)
		cities = g.pools.berlinParis
	} else {
		key = schema.CustKeys[schema.SysTrondheim].Lo + r.Int63n(int64(g.CustomerCount())*2)
		cities = g.pools.trondheim
	}
	c := g.CustomerFor(key, cities)
	dst = append(dst, `<MasterData><Customer custkey="`...)
	dst = strconv.AppendInt(dst, key, 10)
	dst = append(dst, `"><Name>`...)
	dst = appendName(dst, c.Name, key) // MDM sends clean master data
	dst = append(dst, "</Name><Address>"...)
	dst = x.AppendText(dst, c.Address)
	dst = append(dst, "</Address><City>"...)
	dst = x.AppendText(dst, schema.CityByKey(c.CityKey).Name)
	dst = append(dst, "</City><Phone>"...)
	dst = x.AppendText(dst, c.Phone)
	return append(dst, "</Phone></Customer></MasterData>"...)
}

// HongkongOrder generates the i-th Hongkong order message (process P08).
func (g *Generator) HongkongOrder(i int) *x.Node { return mustParse(g.AppendHongkongOrder(nil, i)) }

// AppendHongkongOrder appends the i-th Hongkong order message (process
// P08).
func (g *Generator) AppendHongkongOrder(dst []byte, i int) []byte {
	o := g.HongkongOrderEntity(i)
	dst = append(dst, "<HKOrder><OrdNo>"...)
	dst = strconv.AppendInt(dst, o.Key, 10)
	dst = append(dst, "</OrdNo><CustNo>"...)
	dst = strconv.AppendInt(dst, o.CustKey, 10)
	dst = append(dst, "</CustNo><OrdDate>"...)
	dst = o.Date.AppendFormat(dst, msgDate)
	dst = append(dst, "</OrdDate><OrdState>"...)
	dst = x.AppendText(dst, o.Status)
	dst = append(dst, "</OrdState><OrdPrio>"...)
	dst = x.AppendText(dst, o.Priority)
	dst = append(dst, "</OrdPrio><OrdTotal>"...)
	dst = appendFloat(dst, o.Total)
	dst = append(dst, "</OrdTotal><Positions>"...)
	for _, l := range o.Lines {
		dst = append(dst, `<Pos no="`...)
		dst = strconv.AppendInt(dst, l.Pos, 10)
		dst = append(dst, `"><ProdNo>`...)
		dst = strconv.AppendInt(dst, l.ProdKey, 10)
		dst = append(dst, "</ProdNo><Qty>"...)
		dst = strconv.AppendInt(dst, l.Quantity, 10)
		dst = append(dst, "</Qty><Amt>"...)
		dst = appendFloat(dst, l.Price)
		dst = append(dst, "</Amt></Pos>"...)
	}
	return append(dst, "</Positions></HKOrder>"...)
}

// SanDiegoOrder generates the i-th San Diego order message (process P10)
// and whether it was generated broken.
func (g *Generator) SanDiegoOrder(i int) (*x.Node, bool) {
	b, broken := g.AppendSanDiegoOrder(nil, i)
	return mustParse(b), broken
}

// San Diego's injected schema violations, in the order of the draw.
const (
	sdNoCustomer = iota // drop the customer reference
	sdBadDecimal        // unparsable decimal (locale-style comma)
	sdBadDate           // bad timestamp
	sdUndeclared        // undeclared element
)

// AppendSanDiegoOrder appends the i-th San Diego order message (process
// P10). A SanDiegoErrorRate fraction of messages carries schema
// violations that the P10 validation must divert to the failed-data
// destination. The second return value reports whether the message was
// generated broken.
func (g *Generator) AppendSanDiegoOrder(dst []byte, i int) ([]byte, bool) {
	o, r, broken := g.sanDiegoOrder(i)
	violation := -1
	if broken {
		// One of four violations, deterministically per message.
		violation = r.Intn(4)
	}
	dst = append(dst, "<SDOrder><OrderNo>"...)
	dst = strconv.AppendInt(dst, o.Key, 10)
	dst = append(dst, "</OrderNo>"...)
	if violation != sdNoCustomer {
		dst = append(dst, "<Customer>"...)
		dst = strconv.AppendInt(dst, o.CustKey, 10)
		dst = append(dst, "</Customer>"...)
	}
	dst = append(dst, "<Placed>"...)
	if violation == sdBadDate {
		dst = append(dst, "yesterday"...)
	} else {
		dst = o.Date.AppendFormat(dst, msgDate)
	}
	dst = append(dst, "</Placed><Status>"...)
	dst = x.AppendText(dst, o.Status)
	dst = append(dst, "</Status><Priority>"...)
	dst = x.AppendText(dst, o.Priority)
	dst = append(dst, "</Priority><Sum>"...)
	if violation == sdBadDecimal {
		dst = append(dst, "12,50"...)
	} else {
		dst = appendFloat(dst, o.Total)
	}
	dst = append(dst, "</Sum><Items>"...)
	for _, l := range o.Lines {
		dst = append(dst, `<Item no="`...)
		dst = strconv.AppendInt(dst, l.Pos, 10)
		dst = append(dst, `"><PartNo>`...)
		dst = strconv.AppendInt(dst, l.ProdKey, 10)
		dst = append(dst, "</PartNo><Count>"...)
		dst = strconv.AppendInt(dst, l.Quantity, 10)
		dst = append(dst, "</Count><Value>"...)
		dst = appendFloat(dst, l.Price)
		dst = append(dst, "</Value></Item>"...)
	}
	dst = append(dst, "</Items>"...)
	if violation == sdUndeclared {
		dst = append(dst, "<Remark>please hurry</Remark>"...)
	}
	return append(dst, "</SDOrder>"...), broken
}

// BeijingCustomerMsg generates the i-th Beijing master-data exchange
// message (process P01).
func (g *Generator) BeijingCustomerMsg(i int) *x.Node {
	return mustParse(g.AppendBeijingCustomerMsg(nil, i))
}

// AppendBeijingCustomerMsg appends the i-th Beijing master-data exchange
// message (process P01): a customer in Beijing spelling, to be translated
// to the Seoul schema and sent to Seoul.
func (g *Generator) AppendBeijingCustomerMsg(dst []byte, i int) []byte {
	keys := g.pools.beijingCust
	key := keys[i%len(keys)]
	c := g.CustomerFor(key, g.pools.beijing)
	dst = append(dst, "<BJCustomer><Cust_ID>"...)
	dst = strconv.AppendInt(dst, c.Key, 10)
	dst = append(dst, "</Cust_ID><Cust_Name>"...)
	dst = appendName(dst, c.Name, key)
	dst = append(dst, "</Cust_Name><Cust_Addr>"...)
	dst = x.AppendText(dst, c.Address)
	dst = append(dst, "</Cust_Addr><Cust_City>Beijing</Cust_City><Cust_Phone>"...)
	dst = x.AppendText(dst, c.Phone)
	return append(dst, "</Cust_Phone></BJCustomer>"...)
}

// appendName appends a master-data customer name; a customer generated
// without one is sent as "Unknown <key>".
func appendName(dst []byte, name string, key int64) []byte {
	if name == "" {
		return strconv.AppendInt(append(dst, "Unknown "...), key, 10)
	}
	return x.AppendText(dst, name)
}

// appendFloat appends f as fmt.Sprint formats it.
func appendFloat(dst []byte, f float64) []byte {
	return strconv.AppendFloat(dst, f, 'g', -1, 64)
}

// mustParse parses a message the byte builders wrote.
func mustParse(b []byte) *x.Node {
	doc, err := x.ParseBytes(b)
	if err != nil {
		panic("datagen: generated message does not parse: " + err.Error())
	}
	return doc
}

package processes

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	rel "repro/internal/relational"
	"repro/internal/schema"
	x "repro/internal/xmlmsg"
)

// Token scanners of the E1 messages. Each reads what a process needs from
// a serialized message in one pass over its tokens (xmlmsg.ScanDocument),
// with the tree's navigation rules: a field is the text of the first
// element of its name, a head or container is the first element of its
// name, and records are the container's children of the record name. A
// message outside the canonical shape is parsed once and read from its
// canonical serialization; a parse error is returned as Parse reports it.

// msgShape names what one scan reads.
type msgShape struct {
	// rootAttr is an attribute of the root element ("" for none).
	rootAttr string
	// head is the child of the root that holds the fields; "" when the
	// fields are children of the root itself.
	head   string
	fields []string
	// container is the child of the root whose record children are read
	// ("" for none); each record yields recordAttr and recordFields.
	container, record, recordAttr string
	recordFields                  []string
}

// msgScan is what a scan read. Its strings point into the scanned text.
type msgScan struct {
	doc      string // the text the tokens were read from
	root     string
	rootAttr string
	headSeen bool // the root has a head element
	fields   []string
	// recs holds one row per record, stride 1+len(recordFields): the
	// attribute, then the fields.
	recs []string
	seen []bool // per field of fields, then per field of recs
}

// scans recycles scan results; put one back once its strings are copied
// or stored.
var scans = sync.Pool{New: func() any { return new(msgScan) }}

// scan reads b. On success the caller owns m until it returns it to scans.
func (sh *msgShape) scan(b []byte) (*msgScan, error) {
	m := scans.Get().(*msgScan)
	err := x.ScanDocument(string(b), func(t *x.Tokenizer) bool { return sh.read(t, m) })
	if err != nil {
		scans.Put(m)
		return nil, err
	}
	return m, nil
}

// read is one pass; false means the tokenizer left the canonical shape.
func (sh *msgShape) read(t *x.Tokenizer, m *msgScan) bool {
	*m = msgScan{doc: t.Document(), fields: m.fields[:0], recs: m.recs[:0], seen: m.seen[:0]}
	for range sh.fields {
		m.fields = append(m.fields, "")
		m.seen = append(m.seen, false)
	}
	depth := 0
	inHead, inContainer, inRecord, containerSeen := false, false, false, false
	for {
		tok, ok := t.Next()
		if !ok {
			return false
		}
		switch tok.Kind {
		case x.EndOfDocument:
			return true
		case x.EndTag:
			switch depth {
			case 2:
				inHead, inContainer = false, false
			case 3:
				inRecord = false
			}
			depth--
			continue
		}
		depth++
		switch depth {
		case 1:
			m.root = tok.Name
			m.rootAttr = attrValue(tok.Attrs, sh.rootAttr)
		case 2:
			if sh.head == "" {
				m.setField(sh.fields, tok)
			} else if tok.Name == sh.head && !m.headSeen {
				inHead, m.headSeen = true, true
			}
			if sh.container != "" && tok.Name == sh.container && !containerSeen {
				inContainer, containerSeen = true, true
			}
		case 3:
			if inHead {
				m.setField(sh.fields, tok)
			}
			if inContainer && tok.Name == sh.record {
				inRecord = true
				m.recs = append(m.recs, attrValue(tok.Attrs, sh.recordAttr))
				for range sh.recordFields {
					m.recs = append(m.recs, "")
					m.seen = append(m.seen, false)
				}
			}
		case 4:
			if inRecord {
				m.setRecordField(sh.recordFields, tok)
			}
		}
	}
}

// setField stores tok's text as the field it names, unless an earlier
// element of that name was stored.
func (m *msgScan) setField(names []string, tok x.Token) {
	if i := slices.Index(names, tok.Name); i >= 0 && !m.seen[i] {
		m.fields[i], m.seen[i] = tok.Text, true
	}
}

// setRecordField is setField for a field of the last record.
func (m *msgScan) setRecordField(names []string, tok x.Token) {
	i := slices.Index(names, tok.Name)
	if i < 0 {
		return
	}
	vals := m.recs[len(m.recs)-len(names):]
	seen := m.seen[len(m.seen)-len(names):]
	if !seen[i] {
		vals[i], seen[i] = tok.Text, true
	}
}

func attrValue(attrs []x.Attr, name string) string {
	for _, a := range attrs {
		if a.Name == name {
			return a.Value
		}
	}
	return ""
}

// cdbOrderShape reads a CDBOrder message (the output of the P04, P08 and
// P10 translations).
var cdbOrderShape = msgShape{
	fields:    []string{"Ordkey", "Custkey", "Citykey", "Orderdate", "Status", "Priority", "Totalprice"},
	container: "Lines", record: "Line", recordAttr: "pos",
	recordFields: []string{"Prodkey", "Quantity", "Extendedprice"},
}

// Field indexes of cdbOrderShape.
const (
	cdbOrdkey = iota
	cdbCustkey
	cdbCitykey
	cdbOrderdate
	cdbStatus
	cdbPriority
	cdbTotalprice
)

// CDBOrderFromXML reads a serialized CDBOrder message (the output of the
// P04/P08/P10 translations) into one CDB orders row and its orderline
// rows. cityKey overrides the order's location when >= 0 (enrichment).
func CDBOrderFromXML(b []byte, cityKey int64, src string) (*rel.Relation, *rel.Relation, error) {
	m, err := cdbOrderShape.scan(b)
	if err != nil {
		return nil, nil, err
	}
	defer scans.Put(m)
	return cdbOrderRows(m, cityKey, src)
}

// cdbOrderRows builds the rows of a scanned CDBOrder message.
func cdbOrderRows(m *msgScan, cityKey int64, src string) (*rel.Relation, *rel.Relation, error) {
	if m.root != "CDBOrder" {
		return nil, nil, fmt.Errorf("processes: expected CDBOrder document")
	}
	f := m.fields
	ordkey, err := strconv.ParseInt(f[cdbOrdkey], 10, 64)
	if err != nil {
		return nil, nil, fmt.Errorf("processes: CDBOrder Ordkey: %w", err)
	}
	custkey, err := strconv.ParseInt(f[cdbCustkey], 10, 64)
	if err != nil {
		return nil, nil, fmt.Errorf("processes: CDBOrder Custkey: %w", err)
	}
	date, err := time.Parse(time.RFC3339, f[cdbOrderdate])
	if err != nil {
		return nil, nil, fmt.Errorf("processes: CDBOrder Orderdate: %w", err)
	}
	total, err := strconv.ParseFloat(f[cdbTotalprice], 64)
	if err != nil {
		return nil, nil, fmt.Errorf("processes: CDBOrder Totalprice: %w", err)
	}
	if cityKey < 0 {
		ck, err := strconv.ParseInt(f[cdbCitykey], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("processes: CDBOrder Citykey: %w", err)
		}
		cityKey = ck
	}
	orders, err := rel.NewRelation(schema.CDBOrders, []rel.Row{{
		rel.NewInt(ordkey), rel.NewInt(custkey), rel.NewInt(cityKey),
		rel.NewTime(date), rel.NewString(vocabulary(f[cdbStatus])),
		rel.NewString(vocabulary(f[cdbPriority])), rel.NewFloat(total), rel.NewString(src),
	}})
	if err != nil {
		return nil, nil, err
	}
	const stride, width = 4, 6
	n := len(m.recs) / stride
	var lineRows []rel.Row
	if n > 0 {
		lineRows = make([]rel.Row, n)
		cells := make([]rel.Value, n*width)
		for i := range lineRows {
			rec := m.recs[i*stride : (i+1)*stride]
			pos, err := strconv.ParseInt(rec[0], 10, 64)
			if err != nil {
				return nil, nil, fmt.Errorf("processes: CDBOrder line pos: %w", err)
			}
			prod, err := strconv.ParseInt(rec[1], 10, 64)
			if err != nil {
				return nil, nil, fmt.Errorf("processes: CDBOrder Prodkey: %w", err)
			}
			qty, err := strconv.ParseInt(rec[2], 10, 64)
			if err != nil {
				return nil, nil, fmt.Errorf("processes: CDBOrder Quantity: %w", err)
			}
			price, err := strconv.ParseFloat(rec[3], 64)
			if err != nil {
				return nil, nil, fmt.Errorf("processes: CDBOrder Extendedprice: %w", err)
			}
			row := cells[i*width : (i+1)*width : (i+1)*width]
			row[0], row[1], row[2] = rel.NewInt(ordkey), rel.NewInt(pos), rel.NewInt(prod)
			row[3], row[4], row[5] = rel.NewInt(qty), rel.NewFloat(price), rel.NewString(src)
			lineRows[i] = row
		}
	}
	lines, err := rel.NewRelation(schema.CDBOrderline, lineRows)
	if err != nil {
		return nil, nil, err
	}
	return orders, lines, nil
}

// vocabulary returns the order states and priorities of the canonical
// vocabulary as constants, so a stored row does not keep the message
// text alive; any other text is copied.
func vocabulary(s string) string {
	switch s {
	case "OPEN":
		return "OPEN"
	case "SHIPPED":
		return "SHIPPED"
	case "CLOSED":
		return "CLOSED"
	case "URGENT":
		return "URGENT"
	case "HIGH":
		return "HIGH"
	case "MEDIUM":
		return "MEDIUM"
	case "LOW":
		return "LOW"
	}
	return strings.Clone(s)
}

// euCustomerShape reads the translated P02 EUCustomer message.
var euCustomerShape = msgShape{rootAttr: "custkey", fields: []string{"Name", "Address", "City", "Phone"}}

// EuropeCustomerRowFromXML reads the serialized, translated P02
// EUCustomer message into one Europe-schema customer row for the routed
// upsert. The row's strings share one copy of the message text.
func EuropeCustomerRowFromXML(b []byte) (rel.Row, int64, error) {
	m, err := euCustomerShape.scan(b)
	if err != nil {
		return nil, 0, err
	}
	defer scans.Put(m)
	if m.root != "EUCustomer" {
		return nil, 0, fmt.Errorf("processes: expected EUCustomer document")
	}
	custkey, err := strconv.ParseInt(m.rootAttr, 10, 64)
	if err != nil {
		return nil, 0, fmt.Errorf("processes: EUCustomer custkey: %w", err)
	}
	name, address, cityName, phone := m.fields[0], m.fields[1], m.fields[2], m.fields[3]
	city := schema.CityByName(cityName)
	if city == nil {
		return nil, 0, fmt.Errorf("processes: EUCustomer unknown city %q", cityName)
	}
	comp := 1 + custkey%int64(10) // deterministic company assignment
	row := rel.Row{
		rel.NewInt(custkey),
		rel.NewString(name),
		rel.NewString(address),
		rel.NewInt(comp),
		rel.NewInt(city.Key),
		rel.NewString(phone),
		rel.NewString(city.Name),
	}
	return row, custkey, nil
}

// viennaShape reads what P04's translation takes from a Vienna order.
var viennaShape = msgShape{
	rootAttr: "id",
	head:     "Head", fields: []string{"OrderDate", "CustRef", "Priority", "State", "Total"},
	container: "Lines", record: "Line", recordAttr: "pos",
	recordFields: []string{"ProdRef", "Qty", "Price"},
}

// viennaRefShape reads only the customer reference of a Vienna order.
var viennaRefShape = msgShape{head: "Head", fields: []string{"CustRef"}}

// viennaCustRef returns the Head/CustRef of a Vienna order.
func viennaCustRef(b []byte) (int64, error) {
	m, err := viennaRefShape.scan(b)
	if err != nil {
		return 0, err
	}
	defer scans.Put(m)
	return strconv.ParseInt(m.fields[0], 10, 64)
}

// appendViennaToCDB appends the CDBOrder message of a Vienna order,
// enriched with the customer's city, in the canonical shape: P04's
// translation, written in one pass over the Vienna message.
func appendViennaToCDB(dst, vienna []byte, cityKey int64) ([]byte, error) {
	m, err := viennaShape.scan(vienna)
	if err != nil {
		return dst, err
	}
	defer scans.Put(m)
	if !m.headSeen {
		return dst, fmt.Errorf("P04: Vienna message without Head")
	}
	date, ref, prioText, state, total := m.fields[0], m.fields[1], m.fields[2], m.fields[3], m.fields[4]
	prio, err := strconv.ParseInt(prioText, 10, 64)
	if err != nil {
		return dst, fmt.Errorf("P04: priority: %w", err)
	}
	status, ok := schema.EuropeOrderStates[state]
	if !ok {
		return dst, fmt.Errorf("P04: unknown state %q", state)
	}
	dst = slices.Grow(dst, len(vienna)+64)
	dst = appendLeaf(dst, "<CDBOrder><Ordkey>", m.rootAttr, "</Ordkey>")
	dst = appendLeaf(dst, "<Custkey>", ref, "</Custkey>")
	dst = append(dst, "<Citykey>"...)
	dst = strconv.AppendInt(dst, cityKey, 10)
	dst = append(dst, "</Citykey>"...)
	dst = appendLeaf(dst, "<Orderdate>", date, "</Orderdate>")
	dst = appendLeaf(dst, "<Status>", status, "</Status>")
	dst = appendLeaf(dst, "<Priority>", schema.EuropePrioToText(prio), "</Priority>")
	dst = appendLeaf(dst, "<Totalprice>", total, "</Totalprice><Lines>")
	for i := 0; i < len(m.recs); i += 4 {
		rec := m.recs[i : i+4]
		dst = x.AppendAttr(append(dst, "<Line"...), "pos", rec[0])
		dst = appendLeaf(dst, "><Prodkey>", rec[1], "</Prodkey>")
		dst = appendLeaf(dst, "<Quantity>", rec[2], "</Quantity>")
		dst = appendLeaf(dst, "<Extendedprice>", rec[3], "</Extendedprice></Line>")
	}
	return append(dst, "</Lines></CDBOrder>"...), nil
}

// appendLeaf appends open, the escaped text and close.
func appendLeaf(dst []byte, open, text, close string) []byte {
	return append(x.AppendText(append(dst, open...), text), close...)
}

// sanDiegoShape reads the order number of a San Diego order.
var sanDiegoShape = msgShape{fields: []string{"OrderNo"}}

// sanDiegoFailed returns the order number of a San Diego message that
// failed its validation, and the message text P10 stores: the canonical
// serialization, the message itself when it is canonical.
func sanDiegoFailed(b []byte) (int64, string, error) {
	m, err := sanDiegoShape.scan(b)
	if err != nil {
		return 0, "", err
	}
	defer scans.Put(m)
	id, err := strconv.ParseInt(m.fields[0], 10, 64)
	if err != nil {
		return 0, "", fmt.Errorf("P10: failed message without order number: %w", err)
	}
	return id, m.doc, nil
}

package xmlmsg

import (
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/relational"
)

// The result-set codec of the remote wire. Query answers and bulk bodies
// are result sets, and a tree costs one Node, one attribute map or one
// string per cell; the codec pays per row instead. AppendResultSet writes
// the bytes FromRelation(name, r).AppendXML writes; ScanResultSet reads
// exactly that shape straight into rows. Every other document goes
// through ParseBytes and ToRelation, so accepted documents, values and
// error texts are those of the tree path.

// AppendResultSet appends the result-set document of r to dst, byte for
// byte FromRelation(name, r).AppendXML(dst), without building the tree.
func AppendResultSet(dst []byte, name string, r *relational.Relation) []byte {
	s := r.Schema()
	dst = append(dst, "<ResultSet"...)
	dst = appendAttr(dst, "name", name)
	dst = append(dst, "><Metadata>"...)
	for i, c := range s.Columns {
		dst = append(dst, "<Column"...)
		if slices.Contains(s.Key, i) {
			dst = append(dst, ` key="true"`...)
		}
		dst = appendAttr(dst, "name", c.Name)
		if c.Nullable {
			dst = append(dst, ` nullable="true"`...)
		}
		dst = appendAttr(dst, "type", c.Type.String())
		dst = append(dst, "></Column>"...)
	}
	dst = append(dst, "</Metadata><Rows>"...)
	for _, row := range r.Rows() {
		dst = append(dst, "<Row>"...)
		for _, v := range row {
			if v.IsNull() {
				dst = append(dst, `<V null="true"></V>`...)
				continue
			}
			dst = append(dst, "<V>"...)
			dst = appendValue(dst, v)
			dst = append(dst, "</V>"...)
		}
		dst = append(dst, "</Row>"...)
	}
	return append(dst, "</Rows></ResultSet>"...)
}

// appendValue appends the escaped text of v.String() without building the
// string. Numbers, booleans and RFC 3339 timestamps hold no character
// that needs escaping.
func appendValue(dst []byte, v relational.Value) []byte {
	switch v.Type() {
	case relational.TypeInt:
		return strconv.AppendInt(dst, v.Int(), 10)
	case relational.TypeFloat:
		return strconv.AppendFloat(dst, v.Float(), 'g', -1, 64)
	case relational.TypeString:
		return appendEscaped(dst, v.Str(), false)
	case relational.TypeBool:
		return strconv.AppendBool(dst, v.Bool())
	case relational.TypeTime:
		return v.Time().AppendFormat(dst, time.RFC3339Nano)
	}
	return appendEscaped(dst, v.String(), false)
}

// AppendAttr appends ` key="val"` with AppendXML's escaping, for codecs
// that write a start tag by hand.
func AppendAttr(dst []byte, key, val string) []byte { return appendAttr(dst, key, val) }

// DecodeResultSet reads a result-set document into its name and relation:
// ScanResultSet when b is exactly the shape AppendResultSet writes, else
// ToRelation(ParseBytes(b)) with the tree path's errors.
func DecodeResultSet(b []byte) (string, *relational.Relation, error) {
	s := string(b)
	if name, r, rest, ok := ScanResultSet(s); ok && rest == "" {
		return name, r, nil
	}
	doc, err := ParseString(s)
	if err != nil {
		return "", nil, err
	}
	r, err := ToRelation(doc)
	if err != nil {
		return "", nil, err
	}
	return doc.Attr("name"), r, nil
}

// ScanResultSet reads one result set, in exactly the shape AppendResultSet
// writes, from the start of s, and returns the rest of s after it. All rows
// share one value slab through cap-limited sub-slices, and strings share
// s's memory. ok is false when s holds anything else there — a
// declaration, another attribute order, whitespace between elements, an
// entity the tree parser's fast path declines, malformed input — or content
// ToRelation rejects; the caller then reads the whole document through the
// tree path, which decides acceptance and error text.
func ScanResultSet(s string) (name string, r *relational.Relation, rest string, ok bool) {
	sc := rsScanner{s: s}
	name, r, ok = sc.resultSet()
	if !ok {
		return "", nil, s, false
	}
	return name, r, sc.s[sc.i:], true
}

// rsScanner walks the result-set shape; every method reports false as
// soon as the input leaves it.
type rsScanner struct {
	s string
	i int
	d Decoder // scratch for expanding escaped text
}

func (sc *rsScanner) resultSet() (string, *relational.Relation, bool) {
	if !sc.lit("<ResultSet") {
		return "", nil, false
	}
	key, name, done, ok := sc.attr()
	if !ok || done || key != "name" || !sc.lit("><Metadata>") {
		return "", nil, false
	}
	var cols []relational.Column
	var keyNames []string
	for !sc.lit("</Metadata>") {
		if !sc.lit("<Column") {
			return "", nil, false
		}
		var c relational.Column
		var isKey, typed bool
		prev := ""
		for {
			key, val, done, ok := sc.attr()
			if !ok {
				return "", nil, false
			}
			if done {
				break
			}
			if key <= prev { // attributes come sorted and once each
				return "", nil, false
			}
			prev = key
			switch key {
			case "key":
				isKey = val == "true"
			case "name":
				c.Name = val
			case "nullable":
				c.Nullable = val == "true"
			case "type":
				t, err := relational.ParseTypeName(val)
				if err != nil || t == relational.TypeNull {
					return "", nil, false
				}
				c.Type, typed = t, true
			default:
				return "", nil, false
			}
		}
		if !typed || !sc.lit("></Column>") {
			return "", nil, false
		}
		cols = append(cols, c)
		if isKey {
			keyNames = append(keyNames, c.Name)
		}
	}
	schema, err := relational.NewSchema(cols, keyNames...)
	if err != nil || !sc.lit("<Rows>") {
		return "", nil, false
	}
	// Cell text holds no raw '<', so in the accepted shape the first
	// </Rows> closes these rows and "<Row>" counts them.
	end := strings.Index(sc.s[sc.i:], "</Rows>")
	if end < 0 {
		return "", nil, false
	}
	n, width := strings.Count(sc.s[sc.i:sc.i+end], "<Row>"), len(cols)
	slab := make([]relational.Value, n*width)
	rows := make([]relational.Row, 0, n)
	for !sc.lit("</Rows>") {
		if len(rows) == n || !sc.lit("<Row>") {
			return "", nil, false
		}
		k := len(rows) * width
		row := relational.Row(slab[k : k+width : k+width])
		for j := range row {
			if sc.lit(`<V null="true"></V>`) {
				continue // the slab's zero Value is NULL
			}
			if !sc.lit("<V>") {
				return "", nil, false
			}
			text, ok := sc.text()
			if !ok || !sc.lit("</V>") {
				return "", nil, false
			}
			v, err := relational.ParseValue(cols[j].Type, text)
			if err != nil {
				return "", nil, false
			}
			row[j] = v
		}
		if !sc.lit("</Row>") {
			return "", nil, false
		}
		rows = append(rows, row)
	}
	if !sc.lit("</ResultSet>") {
		return "", nil, false
	}
	r, err := relational.NewRelation(schema, rows)
	if err != nil {
		return "", nil, false
	}
	return name, r, true
}

// lit consumes p if the input continues with it.
func (sc *rsScanner) lit(p string) bool {
	if !strings.HasPrefix(sc.s[sc.i:], p) {
		return false
	}
	sc.i += len(p)
	return true
}

// attr reads the next ` key="value"` of a start tag, or reports done when
// the tag's '>' follows (which it leaves in place).
func (sc *rsScanner) attr() (key, val string, done, ok bool) {
	if strings.HasPrefix(sc.s[sc.i:], ">") {
		return "", "", true, true
	}
	if !sc.lit(" ") {
		return "", "", false, false
	}
	eq := strings.Index(sc.s[sc.i:], `="`)
	if eq <= 0 {
		return "", "", false, false
	}
	key = sc.s[sc.i : sc.i+eq]
	sc.i += eq + 2
	end := strings.IndexByte(sc.s[sc.i:], '"')
	if end < 0 {
		return "", "", false, false
	}
	raw := sc.s[sc.i : sc.i+end]
	sc.i += end + 1
	if strings.IndexByte(raw, '<') >= 0 {
		return "", "", false, false
	}
	val, ok = sc.d.expand(raw)
	return key, val, false, ok
}

// text reads element text up to the next '<' the way the tree parser does:
// entities expanded, characters checked, surrounding space trimmed.
func (sc *rsScanner) text() (string, bool) {
	end := strings.IndexByte(sc.s[sc.i:], '<')
	if end < 0 {
		return "", false
	}
	raw := sc.s[sc.i : sc.i+end]
	sc.i += end
	if strings.Contains(raw, "]]>") {
		return "", false
	}
	text, ok := sc.d.expand(raw)
	return strings.TrimSpace(text), ok
}

package xmlmsg

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
)

// DataType enumerates the simple types of the XSD-lite validator.
type DataType uint8

// Simple content types.
const (
	DTAny DataType = iota
	DTString
	DTInt
	DTDecimal
	DTBool
	DTDateTime
)

// String names the data type as in XML Schema.
func (t DataType) String() string {
	switch t {
	case DTAny:
		return "xs:anyType"
	case DTString:
		return "xs:string"
	case DTInt:
		return "xs:long"
	case DTDecimal:
		return "xs:decimal"
	case DTBool:
		return "xs:boolean"
	case DTDateTime:
		return "xs:dateTime"
	default:
		return "?"
	}
}

// ElementDecl describes one element of an XSD-lite schema: its simple
// content type (for leaves), occurrence bounds, required attributes and
// child declarations in order.
type ElementDecl struct {
	Name      string
	Type      DataType
	MinOccurs int // default 1
	MaxOccurs int // -1 = unbounded; default 1
	ReqAttrs  []string
	Children  []*ElementDecl

	// Ordered, when true, requires children to appear grouped in
	// declaration order (xs:sequence); otherwise any order (xs:all).
	Ordered bool
}

// Elem builds a required single-occurrence complex element declaration.
func Elem(name string, children ...*ElementDecl) *ElementDecl {
	return &ElementDecl{Name: name, MinOccurs: 1, MaxOccurs: 1, Children: children, Ordered: true}
}

// Leaf builds a required single-occurrence leaf element of the given type.
func Leaf(name string, t DataType) *ElementDecl {
	return &ElementDecl{Name: name, Type: t, MinOccurs: 1, MaxOccurs: 1}
}

// Optional marks the declaration minOccurs=0 and returns it.
func (d *ElementDecl) Optional() *ElementDecl {
	d.MinOccurs = 0
	return d
}

// Repeated marks the declaration maxOccurs=unbounded and returns it.
func (d *ElementDecl) Repeated() *ElementDecl {
	d.MaxOccurs = -1
	return d
}

// WithAttrs declares required attributes and returns the declaration.
func (d *ElementDecl) WithAttrs(names ...string) *ElementDecl {
	d.ReqAttrs = append(d.ReqAttrs, names...)
	return d
}

// Unordered relaxes child ordering (xs:all) and returns the declaration.
func (d *ElementDecl) Unordered() *ElementDecl {
	d.Ordered = false
	return d
}

// Schema is an XSD-lite document schema: a named root element declaration.
type Schema struct {
	Name string // schema identifier, e.g. "XSD_Beijing"
	Root *ElementDecl
}

// NewSchema builds a schema.
func NewSchema(name string, root *ElementDecl) *Schema {
	return &Schema{Name: name, Root: root}
}

// ValidationError describes one validation failure with its element path.
type ValidationError struct {
	Path   string
	Reason string
}

// Error implements the error interface.
func (e *ValidationError) Error() string {
	return fmt.Sprintf("xmlmsg: validation at %s: %s", e.Path, e.Reason)
}

// Validate checks a tree against the schema by its serialized form (see
// ValidateXML) and returns all violations (empty means valid). A tree
// whose serialization does not parse is reported as one violation.
func (s *Schema) Validate(doc *Node) []*ValidationError {
	if doc == nil {
		return []*ValidationError{{Path: "/", Reason: "empty document"}}
	}
	errs, err := s.ValidateXML(doc.AppendXML(nil))
	if err != nil {
		return []*ValidationError{{Path: "/" + doc.Name, Reason: err.Error()}}
	}
	return errs
}

// Valid reports whether the document has no violations.
func (s *Schema) Valid(doc *Node) bool { return len(s.Validate(doc)) == 0 }

// ValidateXML checks a serialized document against the schema and returns
// all violations (empty means valid), in document order: an element's
// missing attributes, then its children one by one, then the occurrence
// bounds of its declared children. This implements the VALIDATE operator
// of the MTM used by process types P10, P12 and P13. It walks the
// document's tokens (ScanDocument) and builds no tree; a document that
// does not parse returns the parse error and no violations.
func (s *Schema) ValidateXML(b []byte) ([]*ValidationError, error) {
	v := validators.Get().(*validator)
	defer validators.Put(v)
	err := ScanDocument(string(b), func(t *Tokenizer) bool { return v.run(s, t) })
	errs := v.errs
	v.errs = nil
	if err != nil {
		return nil, err
	}
	return errs, nil
}

// validators recycles the validation stacks across documents.
var validators = sync.Pool{New: func() any { return new(validator) }}

// validator holds one walk's state: the path of the open element, a
// frame per open element and the child counts of the open complex ones.
type validator struct {
	path   []byte
	frames []vframe
	counts []int
	errs   []*ValidationError
}

// vframe is one open element.
type vframe struct {
	decl    *ElementDecl // nil: inside a subtree that is not validated
	pathLen int          // len(path) with this element's segment
	counts  int          // offset of the child counts in validator.counts
	lastIdx int          // the last declaration index seen (xs:sequence)
	text    string       // a leaf's text
	// children is set once a leaf declaration met a child element.
	children bool
}

// fail records a violation at the current path plus an optional segment.
func (v *validator) fail(seg, reason string) {
	p := string(v.path)
	if seg != "" {
		p += "/" + seg
	}
	v.errs = append(v.errs, &ValidationError{Path: p, Reason: reason})
}

// run walks one document; false means the tokenizer left the canonical
// shape and the walk's findings are void.
func (v *validator) run(s *Schema, t *Tokenizer) bool {
	v.path, v.frames, v.counts, v.errs = v.path[:0], v.frames[:0], v.counts[:0], nil
	for {
		tok, ok := t.Next()
		if !ok {
			return false
		}
		switch tok.Kind {
		case EndOfDocument:
			return true
		case EndTag:
			v.end()
		default:
			v.start(s, tok)
		}
	}
}

// start opens an element: the root, or a child of the innermost frame.
func (v *validator) start(s *Schema, tok Token) {
	var decl *ElementDecl
	v.path = append(append(v.path, '/'), tok.Name...)
	if len(v.frames) == 0 {
		if tok.Name == s.Root.Name {
			decl = s.Root
		} else {
			v.fail("", fmt.Sprintf("root element %q, schema expects %q", tok.Name, s.Root.Name))
		}
	} else {
		parent := &v.frames[len(v.frames)-1]
		switch pd := parent.decl; {
		case pd == nil:
		case len(pd.Children) == 0:
			// Reported once, at the leaf's own path.
			if !parent.children {
				parent.children = true
				v.errs = append(v.errs, &ValidationError{
					Path: string(v.path[:parent.pathLen]), Reason: "unexpected child elements in leaf"})
			}
		default:
			idx := lastDecl(pd, tok.Name)
			if idx < 0 {
				v.fail("", "undeclared element")
				break
			}
			if pd.Ordered {
				if idx < parent.lastIdx {
					v.fail("", "element out of sequence")
				} else {
					parent.lastIdx = idx
				}
			}
			v.counts[parent.counts+idx]++
			decl = pd.Children[idx]
		}
	}
	f := vframe{decl: decl, pathLen: len(v.path), counts: len(v.counts), lastIdx: -1, text: tok.Text}
	if decl != nil {
		for _, a := range decl.ReqAttrs {
			if !hasAttr(tok.Attrs, a) {
				v.fail("", fmt.Sprintf("missing attribute %q", a))
			}
		}
		for range decl.Children {
			v.counts = append(v.counts, 0)
		}
	}
	v.frames = append(v.frames, f)
}

// end closes the innermost element: a leaf's text is checked, a complex
// element's declared children are counted.
func (v *validator) end() {
	f := v.frames[len(v.frames)-1]
	v.frames = v.frames[:len(v.frames)-1]
	v.path = v.path[:f.pathLen]
	switch d := f.decl; {
	case d == nil:
	case len(d.Children) == 0:
		if !f.children {
			if reason := checkSimpleType(f.text, d.Type); reason != "" {
				v.fail("", reason)
			}
		}
	default:
		for _, cd := range d.Children {
			got := v.counts[f.counts+lastDecl(d, cd.Name)]
			if got < cd.MinOccurs {
				v.fail(cd.Name, fmt.Sprintf("occurs %d times, minimum %d", got, cd.MinOccurs))
			}
			if cd.MaxOccurs >= 0 && got > cd.MaxOccurs {
				v.fail(cd.Name, fmt.Sprintf("occurs %d times, maximum %d", got, cd.MaxOccurs))
			}
		}
		v.counts = v.counts[:f.counts]
	}
	if len(v.frames) > 0 {
		v.path = v.path[:v.frames[len(v.frames)-1].pathLen]
	}
}

// lastDecl returns the index of the last child declaration of d named
// name, or -1: a later declaration of a name shadows an earlier one.
func lastDecl(d *ElementDecl, name string) int {
	for i := len(d.Children) - 1; i >= 0; i-- {
		if d.Children[i].Name == name {
			return i
		}
	}
	return -1
}

func hasAttr(attrs []Attr, name string) bool {
	for _, a := range attrs {
		if a.Name == name {
			return true
		}
	}
	return false
}

func checkSimpleType(text string, t DataType) string {
	switch t {
	case DTAny, DTString:
		return ""
	case DTInt:
		if _, err := strconv.ParseInt(strings.TrimSpace(text), 10, 64); err != nil {
			return fmt.Sprintf("%q is not a valid %s", text, t)
		}
	case DTDecimal:
		if _, err := strconv.ParseFloat(strings.TrimSpace(text), 64); err != nil {
			return fmt.Sprintf("%q is not a valid %s", text, t)
		}
	case DTBool:
		if _, err := strconv.ParseBool(strings.TrimSpace(text)); err != nil {
			return fmt.Sprintf("%q is not a valid %s", text, t)
		}
	case DTDateTime:
		if _, err := time.Parse(time.RFC3339, strings.TrimSpace(text)); err != nil {
			return fmt.Sprintf("%q is not a valid %s", text, t)
		}
	}
	return ""
}

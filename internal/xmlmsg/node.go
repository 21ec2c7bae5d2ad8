// Package xmlmsg provides the XML message substrate of DIPBench: a small
// document object model over encoding/xml, a builder API, serialization,
// path navigation and an XSD-lite validator.
//
// Documents a process inspects — Vienna and San Diego business messages,
// MDM master-data messages — are *Node trees. Result sets stay bytes where
// nothing looks inside them: the result-set codec (rscodec.go) reads and
// writes them without a tree, and the Tokenizer (tokens.go) lets the STX
// translation of P09 stream over the Asia web services' answers.
package xmlmsg

import (
	"encoding/xml"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Node is one XML element: a name, attributes, text content and children.
// Mixed content is not supported (text and children are exclusive), which
// matches the data-centric documents of the benchmark.
type Node struct {
	Name     string
	Attrs    map[string]string
	Text     string
	Children []*Node
}

// New creates an element node with optional children.
func New(name string, children ...*Node) *Node {
	return &Node{Name: name, Children: children}
}

// NewText creates a leaf element with text content.
func NewText(name, text string) *Node {
	return &Node{Name: name, Text: text}
}

// SetAttr sets an attribute and returns the node for chaining.
func (n *Node) SetAttr(key, val string) *Node {
	if n.Attrs == nil {
		n.Attrs = make(map[string]string, 2)
	}
	n.Attrs[key] = val
	return n
}

// Attr returns the attribute value or "".
func (n *Node) Attr(key string) string { return n.Attrs[key] }

// Add appends children and returns the node for chaining.
func (n *Node) Add(children ...*Node) *Node {
	n.Children = append(n.Children, children...)
	return n
}

// Child returns the first child with the given name, or nil.
func (n *Node) Child(name string) *Node {
	for _, c := range n.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// ChildrenNamed returns all children with the given name.
func (n *Node) ChildrenNamed(name string) []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.Name == name {
			out = append(out, c)
		}
	}
	return out
}

// Path navigates a /-separated child path ("Order/Customer/Name") and
// returns the first match, or nil.
func (n *Node) Path(path string) *Node {
	cur := n
	for path != "" {
		var seg string
		seg, path, _ = strings.Cut(path, "/")
		if seg == "" {
			continue
		}
		if cur = cur.Child(seg); cur == nil {
			return nil
		}
	}
	return cur
}

// PathText returns the text at the path, or "".
func (n *Node) PathText(path string) string {
	if c := n.Path(path); c != nil {
		return c.Text
	}
	return ""
}

// Walk visits the node and all descendants in document order. Returning
// false from fn stops the walk.
func (n *Node) Walk(fn func(*Node) bool) bool {
	if !fn(n) {
		return false
	}
	for _, c := range n.Children {
		if !c.Walk(fn) {
			return false
		}
	}
	return true
}

// Clone deep-copies the node tree.
func (n *Node) Clone() *Node {
	c := &Node{Name: n.Name, Text: n.Text}
	if n.Attrs != nil {
		c.Attrs = make(map[string]string, len(n.Attrs))
		for k, v := range n.Attrs {
			c.Attrs[k] = v
		}
	}
	if n.Children != nil {
		c.Children = make([]*Node, len(n.Children))
		for i, ch := range n.Children {
			c.Children[i] = ch.Clone()
		}
	}
	return c
}

// Equal reports deep structural equality (attribute order is irrelevant).
func (n *Node) Equal(o *Node) bool {
	if n == nil || o == nil {
		return n == o
	}
	if n.Name != o.Name || n.Text != o.Text || len(n.Children) != len(o.Children) ||
		len(n.Attrs) != len(o.Attrs) {
		return false
	}
	for k, v := range n.Attrs {
		if o.Attrs[k] != v {
			return false
		}
	}
	for i := range n.Children {
		if !n.Children[i].Equal(o.Children[i]) {
			return false
		}
	}
	return true
}

// CountElements returns the number of elements in the subtree (including n).
func (n *Node) CountElements() int {
	count := 0
	n.Walk(func(*Node) bool { count++; return true })
	return count
}

// encodeStd is the encoding/xml serialization AppendXML must byte-match.
func (n *Node) encodeStd(enc *xml.Encoder) error {
	start := xml.StartElement{Name: xml.Name{Local: n.Name}}
	if len(n.Attrs) > 0 {
		keys := make([]string, 0, len(n.Attrs))
		for k := range n.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			start.Attr = append(start.Attr, xml.Attr{Name: xml.Name{Local: k}, Value: n.Attrs[k]})
		}
	}
	if err := enc.EncodeToken(start); err != nil {
		return err
	}
	if len(n.Children) > 0 {
		for _, c := range n.Children {
			if err := c.encodeStd(enc); err != nil {
				return err
			}
		}
	} else if n.Text != "" {
		if err := enc.EncodeToken(xml.CharData(n.Text)); err != nil {
			return err
		}
	}
	return enc.EncodeToken(start.End())
}

// String serializes the tree to a string.
func (n *Node) String() string {
	bp := bufPool.Get().(*[]byte)
	b := n.AppendXML((*bp)[:0])
	s := string(b)
	*bp = b[:0]
	bufPool.Put(bp)
	return s
}

// Parse reads one XML document into a Node tree. Whitespace-only text is
// dropped; mixed content keeps only the concatenated non-child text. The
// input is buffered and handed to the pooled fast decoder; documents
// outside its subset take the encoding/xml path below.
func Parse(r io.Reader) (*Node, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("xmlmsg: parse: %w", err)
	}
	d := decoderPool.Get().(*Decoder)
	n, err := d.ParseString(string(data))
	decoderPool.Put(d)
	return n, err
}

// parseStd is the encoding/xml reference parser; its behavior (accepted
// documents and error messages) defines Parse's contract.
func parseStd(r io.Reader) (*Node, error) {
	dec := xml.NewDecoder(r)
	var stack []*Node
	var root *Node
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmlmsg: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			n := &Node{Name: t.Name.Local}
			for _, a := range t.Attr {
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue // namespace declarations are not modeled
				}
				n.SetAttr(a.Name.Local, a.Value)
			}
			if len(stack) > 0 {
				parent := stack[len(stack)-1]
				parent.Children = append(parent.Children, n)
			} else if root == nil {
				root = n
			} else {
				return nil, fmt.Errorf("xmlmsg: multiple document roots")
			}
			stack = append(stack, n)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmlmsg: unbalanced end element %s", t.Name.Local)
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			if len(stack) > 0 {
				text := strings.TrimSpace(string(t))
				if text != "" {
					stack[len(stack)-1].Text += text
				}
			}
		}
	}
	if root == nil {
		return nil, fmt.Errorf("xmlmsg: empty document")
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("xmlmsg: unclosed elements")
	}
	return root, nil
}

// ParseString is Parse over a string. It runs on a pooled Decoder, so the
// common case — a well-formed data-centric document — skips encoding/xml.
func ParseString(s string) (*Node, error) {
	d := decoderPool.Get().(*Decoder)
	n, err := d.ParseString(s)
	decoderPool.Put(d)
	return n, err
}

// ParseBytes is Parse over a byte slice without intermediate buffering.
func ParseBytes(b []byte) (*Node, error) {
	return ParseString(string(b))
}

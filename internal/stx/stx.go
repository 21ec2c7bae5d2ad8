// Package stx implements a streaming XML transformation language modelled
// after STX (Streaming Transformations for XML), which the DIPBench paper
// uses for all schema translations of XML messages (process types P01,
// P02, P04, P08, P09, P10).
//
// A Stylesheet is an ordered list of Rules. Each rule matches element
// paths (like STX templates match patterns) and emits output: renamed
// elements, renamed, dropped or rewritten attributes, dropped or unwrapped
// subtrees, or computed text. Both traversals visit the input once, in
// document order, applying the most specific matching rule at each
// element — STX's single-pass processing model without an XSLT-style
// node-set engine. AppendTransform maps serialized bytes to serialized
// bytes — the E1 messages and P09's result sets, which both arrive as
// bytes: it streams over the tokens of a canonical document and builds no
// tree, except the subtree an ActText rule reads. Transform maps a
// *xmlmsg.Node tree to a tree; it is AppendTransform's fallback for
// non-canonical input and its reference.
package stx

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/xmlmsg"
)

// Action determines what a rule does with a matched element.
type Action uint8

// Rule actions.
const (
	// ActRename emits the element under a new name, recursing into children.
	ActRename Action = iota
	// ActCopy emits the element unchanged, recursing into children.
	ActCopy
	// ActDrop suppresses the element and its whole subtree.
	ActDrop
	// ActUnwrap drops the element but processes its children in place.
	ActUnwrap
	// ActText replaces the subtree with a leaf computed by TextFunc.
	ActText
)

// Rule is one transformation template. Pattern is a /-separated element
// path; it matches when the element's path ends with the pattern (so
// "Order/Id" matches /Message/Order/Id). A lone element name matches that
// element anywhere. More specific (longer) patterns win over shorter ones;
// among equal lengths, the earlier rule wins.
type Rule struct {
	Pattern string
	Action  Action
	// NewName is the output element name for ActRename and ActText.
	NewName string
	// TextFunc computes the text for ActText from the matched element.
	TextFunc func(*xmlmsg.Node) string
	// AttrMap renames attributes (old -> new) for ActRename/ActCopy.
	// Attributes not in the map are kept as-is; mapping to "" drops one.
	AttrMap map[string]string
	// AttrValueMap rewrites attribute values for ActRename/ActCopy:
	// per attribute name (after AttrMap renaming), old value -> new value.
	// Values not in the map are kept. This realizes result-set column
	// translations, where column names live in "name" attributes.
	AttrValueMap map[string]map[string]string

	segments []string
}

// Stylesheet is a compiled set of transformation rules plus a default
// action for unmatched elements.
type Stylesheet struct {
	Name    string
	Rules   []Rule
	Default Action // ActCopy (default) or ActDrop
}

// New compiles a stylesheet. It validates every rule eagerly so that
// process deployment fails fast rather than at message time.
func New(name string, defaultAction Action, rules ...Rule) (*Stylesheet, error) {
	if defaultAction != ActCopy && defaultAction != ActDrop {
		return nil, fmt.Errorf("stx: default action must be copy or drop")
	}
	for i := range rules {
		r := &rules[i]
		if r.Pattern == "" {
			return nil, fmt.Errorf("stx: rule %d has empty pattern", i)
		}
		r.segments = strings.Split(strings.Trim(r.Pattern, "/"), "/")
		switch r.Action {
		case ActRename:
			if r.NewName == "" {
				return nil, fmt.Errorf("stx: rename rule %q needs NewName", r.Pattern)
			}
		case ActText:
			if r.NewName == "" || r.TextFunc == nil {
				return nil, fmt.Errorf("stx: text rule %q needs NewName and TextFunc", r.Pattern)
			}
		case ActCopy, ActDrop, ActUnwrap:
		default:
			return nil, fmt.Errorf("stx: rule %q has unknown action %d", r.Pattern, r.Action)
		}
	}
	return &Stylesheet{Name: name, Rules: rules, Default: defaultAction}, nil
}

// MustNew is New that panics on error; for static stylesheet literals.
func MustNew(name string, defaultAction Action, rules ...Rule) *Stylesheet {
	s, err := New(name, defaultAction, rules...)
	if err != nil {
		panic(err)
	}
	return s
}

// Transform applies the stylesheet to a document and returns the output
// document. The input is never mutated. A nil result with nil error means
// the whole document was dropped.
func (s *Stylesheet) Transform(doc *xmlmsg.Node) (*xmlmsg.Node, error) {
	if doc == nil {
		return nil, fmt.Errorf("stx: nil input document")
	}
	path := make([]string, 1, 16)
	path[0] = doc.Name
	out := s.apply(nil, doc, path)
	if len(out) == 0 {
		return nil, nil
	}
	if len(out) > 1 {
		// An unwrap at the root would produce a forest; wrap it to stay
		// well-formed.
		return xmlmsg.New("Result", out...), nil
	}
	return out[0], nil
}

// apply processes one element and appends its output elements to dst.
func (s *Stylesheet) apply(dst []*xmlmsg.Node, n *xmlmsg.Node, path []string) []*xmlmsg.Node {
	rule, action, name := s.resolve(path)
	switch action {
	case ActDrop:
		return dst
	case ActText:
		return append(dst, xmlmsg.NewText(name, rule.TextFunc(n)))
	case ActUnwrap:
		for _, c := range n.Children {
			dst = s.apply(dst, c, append(path, c.Name))
		}
		return dst
	case ActCopy, ActRename:
		out := &xmlmsg.Node{Name: name, Text: n.Text}
		for k, v := range n.Attrs {
			if k, v, keep := rule.mapAttr(k, v); keep {
				if out.Attrs == nil {
					out.Attrs = make(map[string]string, len(n.Attrs))
				}
				out.Attrs[k] = v
			}
		}
		if len(n.Children) > 0 {
			out.Children = make([]*xmlmsg.Node, 0, len(n.Children))
			for _, c := range n.Children {
				out.Children = s.apply(out.Children, c, append(path, c.Name))
			}
			if len(out.Children) == 0 {
				out.Children = nil
			}
		}
		return append(dst, out)
	default:
		return dst
	}
}

// AppendTransform appends the serialized output of the stylesheet applied
// to the serialized document src: byte for byte
// Transform(ParseBytes(src)).AppendXML(dst), and nothing when the whole
// document is dropped. A document in the canonical shape AppendXML writes
// is transformed in one pass over its tokens without a tree; every other
// one goes through ParseBytes and Transform, which decide acceptance and
// error text.
func (s *Stylesheet) AppendTransform(dst, src []byte) ([]byte, error) {
	dst = slices.Grow(dst, len(src))
	text := string(src)
	if out, ok := s.stream(dst, text); ok {
		return out, nil
	}
	doc, err := xmlmsg.ParseString(text)
	if err != nil {
		return dst, err
	}
	out, err := s.Transform(doc)
	if err != nil || out == nil {
		return dst, err
	}
	return out.AppendXML(dst), nil
}

// stream is AppendTransform's single pass. ok is false when src leaves
// the canonical shape, or when the output needs the tree: two attributes
// mapped onto one name. An unwrapped root follows Transform's rule: its
// top-level outputs are written in place, and wrapped in <Result> at the
// end of the document when there is more than one.
func (s *Stylesheet) stream(dst []byte, src string) ([]byte, bool) {
	var tz xmlmsg.Tokenizer
	tz.Reset(src)
	path := make([]string, 0, 16)
	// ends holds the end tag each open element writes; "" when unwrapped.
	ends := make([]string, 0, 16)
	var attrs []xmlmsg.Attr
	// skip is the depth inside a dropped subtree or one that an ActText
	// rule (textRule) turns into a leaf once its end tag is read.
	skip := 0
	var textRule *Rule
	textName, textStart := "", 0
	// written counts the roots of the output: elements written while
	// every open element is unwrapped (opened counts those that are not).
	// out0 is where the output begins.
	written, opened, out0 := 0, 0, len(dst)
	textRoot := false
	for {
		start := tz.Offset()
		tok, ok := tz.Next()
		if !ok {
			return dst, false
		}
		switch {
		case tok.Kind == xmlmsg.EndOfDocument:
			if written > 1 {
				dst = slices.Insert(dst, out0, []byte("<Result>")...)
				dst = append(dst, "</Result>"...)
			}
			return dst, true
		case skip > 0:
			if tok.Kind == xmlmsg.StartTag {
				skip++
				continue
			}
			if skip--; skip > 0 || textRule == nil {
				continue
			}
			sub, err := xmlmsg.ParseString(src[textStart:tz.Offset()])
			if err != nil {
				return dst, false
			}
			dst = xmlmsg.NewText(textName, textRule.TextFunc(sub)).AppendXML(dst)
			textRule = nil
			if textRoot {
				written++
			}
		case tok.Kind == xmlmsg.EndTag:
			path = path[:len(path)-1]
			end := ends[len(ends)-1]
			ends = ends[:len(ends)-1]
			if end != "" {
				opened--
				dst = append(dst, "</"...)
				dst = append(dst, end...)
				dst = append(dst, '>')
			}
		default:
			path = append(path, tok.Name)
			rule, action, name := s.resolve(path)
			switch action {
			case ActDrop, ActText:
				path = path[:len(path)-1]
				skip = 1
				if action == ActText {
					textRule, textName, textStart = rule, name, start
					textRoot = opened == 0
				}
			case ActUnwrap:
				ends = append(ends, "")
			default: // ActCopy, ActRename
				if opened == 0 {
					written++
				}
				opened++
				attrs = attrs[:0]
				for _, a := range tok.Attrs {
					if k, v, keep := rule.mapAttr(a.Name, a.Value); keep {
						attrs = append(attrs, xmlmsg.Attr{Name: k, Value: v})
					}
				}
				if !sortAttrs(attrs) {
					return dst, false
				}
				dst = append(dst, '<')
				dst = append(dst, name...)
				for _, a := range attrs {
					dst = xmlmsg.AppendAttr(dst, a.Name, a.Value)
				}
				dst = append(dst, '>')
				dst = xmlmsg.AppendText(dst, tok.Text)
				ends = append(ends, name)
			}
		}
	}
}

// sortAttrs sorts attributes by name, as AppendXML writes them, and
// reports false when two share a name. Lists hold a handful of entries.
func sortAttrs(attrs []xmlmsg.Attr) bool {
	for i := 1; i < len(attrs); i++ {
		for j := i; j > 0 && attrs[j].Name < attrs[j-1].Name; j-- {
			attrs[j], attrs[j-1] = attrs[j-1], attrs[j]
		}
	}
	for i := 1; i < len(attrs); i++ {
		if attrs[i].Name == attrs[i-1].Name {
			return false
		}
	}
	return true
}

// resolve returns the rule matching the element at path (nil if none),
// the action it takes and the name it writes.
func (s *Stylesheet) resolve(path []string) (*Rule, Action, string) {
	name := path[len(path)-1]
	rule := s.match(path)
	if rule == nil {
		return nil, s.Default, name
	}
	if rule.NewName != "" {
		name = rule.NewName
	}
	return rule, rule.Action, name
}

// mapAttr returns the output attribute of k="v" under rule r (nil: no
// rule); keep is false when the rule drops the attribute.
func (r *Rule) mapAttr(k, v string) (string, string, bool) {
	if r == nil {
		return k, v, true
	}
	if m, ok := r.AttrMap[k]; ok {
		if m == "" {
			return "", "", false
		}
		k = m
	}
	if nv, ok := r.AttrValueMap[k][v]; ok {
		v = nv
	}
	return k, v, true
}

// match returns the most specific rule whose pattern is a suffix of path.
func (s *Stylesheet) match(path []string) *Rule {
	var best *Rule
	for i := range s.Rules {
		r := &s.Rules[i]
		if !suffixMatch(path, r.segments) {
			continue
		}
		if best == nil || len(r.segments) > len(best.segments) {
			best = r
		}
	}
	return best
}

func suffixMatch(path, pattern []string) bool {
	if len(pattern) > len(path) {
		return false
	}
	off := len(path) - len(pattern)
	for i, seg := range pattern {
		if seg != "*" && path[off+i] != seg {
			return false
		}
	}
	return true
}

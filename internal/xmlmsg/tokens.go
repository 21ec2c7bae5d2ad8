package xmlmsg

import (
	"fmt"
	"strings"
	"sync"
)

// Tokens of canonical documents, for transformers that stream.
//
// A Tokenizer reads exactly the shape AppendXML writes: no declaration,
// no whitespace or text between elements, no self-closing tags or
// comments, attributes written ` key="value"` once each in ascending key
// order, text only inside leaf elements. Inside that shape it sees the
// document Parse would build: names, attribute values and leaf text are
// those of the tree, with entities expanded and text trimmed. On anything
// else Next reports false, and the caller reads the document through
// Parse, which decides acceptance and error text.

// Attr is one attribute of a start tag.
type Attr struct {
	Name, Value string
}

// TokenKind tells start tags, end tags and the end of the document apart.
type TokenKind uint8

// Token kinds.
const (
	StartTag TokenKind = iota + 1
	EndTag
	EndOfDocument
)

// Token is one step through a canonical document.
type Token struct {
	Kind TokenKind
	// Name is the element name of a start or end tag.
	Name string
	// Attrs are a start tag's attributes in document order; the slice is
	// reused by the next call to Next.
	Attrs []Attr
	// Text is a start tag's element text, expanded and trimmed as Parse
	// stores it. It is empty for elements with children.
	Text string
}

// Tokenizer reads the tokens of one canonical document. The zero value
// is ready for Reset; a Tokenizer is not safe for concurrent use.
type Tokenizer struct {
	s     string
	i     int
	open  []string
	attrs []Attr
	seen  bool    // the root start tag was read
	d     Decoder // scratch for expanding escaped text
	// trusted marks s as AppendXML's serialization of a parsed tree
	// (see ScanDocument): its names and text were checked by the parse,
	// so names are read up to the next delimiter and text is not checked
	// for characters outside the fast subset.
	trusted bool
}

// Reset starts reading s, keeping the scratch space of earlier documents.
func (t *Tokenizer) Reset(s string) {
	*t = Tokenizer{s: s, open: t.open[:0], attrs: t.attrs[:0], d: t.d}
}

// Document returns the document the tokenizer reads; inside
// ScanDocument's second pass, the canonical serialization of the parsed
// tree.
func (t *Tokenizer) Document() string { return t.s }

// Offset returns the position of the next unread byte of the document.
func (t *Tokenizer) Offset() int { return t.i }

// Next reads the next token. ok is false as soon as the input leaves the
// canonical shape or is malformed.
func (t *Tokenizer) Next() (tok Token, ok bool) {
	if len(t.open) == 0 && t.seen {
		return Token{Kind: EndOfDocument}, t.i == len(t.s)
	}
	rest := t.s[t.i:]
	if len(rest) < 2 || rest[0] != '<' {
		return Token{}, false
	}
	if rest[1] == '/' {
		if len(t.open) == 0 {
			return Token{}, false
		}
		name := t.open[len(t.open)-1]
		if !strings.HasPrefix(rest[2:], name) || !strings.HasPrefix(rest[2+len(name):], ">") {
			return Token{}, false
		}
		t.i += len(name) + 3
		t.open = t.open[:len(t.open)-1]
		return Token{Kind: EndTag, Name: name}, true
	}
	t.i++
	name, ok := t.name()
	if !ok {
		return Token{}, false
	}
	t.attrs = t.attrs[:0]
	for !t.lit(">") {
		a, ok := t.attr()
		if !ok || a.Name == "xmlns" ||
			len(t.attrs) > 0 && a.Name <= t.attrs[len(t.attrs)-1].Name {
			return Token{}, false
		}
		t.attrs = append(t.attrs, a)
	}
	t.open = append(t.open, name)
	t.seen = true
	tok = Token{Kind: StartTag, Name: name, Attrs: t.attrs}
	if strings.HasPrefix(t.s[t.i:], "<") {
		return tok, true
	}
	// Text belongs to a leaf: its end tag must follow.
	end := strings.IndexByte(t.s[t.i:], '<')
	if end < 0 || !strings.HasPrefix(t.s[t.i+end:], "</") {
		return Token{}, false
	}
	raw := t.s[t.i : t.i+end]
	t.i += end
	if strings.Contains(raw, "]]>") {
		return Token{}, false
	}
	text, ok := t.d.expand(raw)
	if !ok && !t.trusted {
		return Token{}, false
	}
	tok.Text = strings.TrimSpace(text)
	return tok, true
}

// name reads an element or attribute name.
func (t *Tokenizer) name() (string, bool) {
	start := t.i
	j := start
	for j < len(t.s) && t.isNameByte(t.s[j], j == start) {
		j++
	}
	if j == start {
		return "", false
	}
	t.i = j
	return t.s[start:j], true
}

// isNameByte reports whether c continues a name. A trusted document's
// names are those of a parsed tree, so anything up to a delimiter is one.
func (t *Tokenizer) isNameByte(c byte, first bool) bool {
	if t.trusted {
		return strings.IndexByte(` =/>"<`, c) < 0
	}
	return isNameByte(c, first)
}

// attr reads one ` key="value"`.
func (t *Tokenizer) attr() (Attr, bool) {
	if !t.lit(" ") {
		return Attr{}, false
	}
	name, ok := t.name()
	if !ok || !t.lit(`="`) {
		return Attr{}, false
	}
	end := strings.IndexByte(t.s[t.i:], '"')
	if end < 0 {
		return Attr{}, false
	}
	raw := t.s[t.i : t.i+end]
	t.i += end + 1
	if strings.IndexByte(raw, '<') >= 0 {
		return Attr{}, false
	}
	val, ok := t.d.expand(raw)
	return Attr{Name: name, Value: val}, ok || t.trusted
}

// lit consumes p if the input continues with it.
func (t *Tokenizer) lit(p string) bool {
	if !strings.HasPrefix(t.s[t.i:], p) {
		return false
	}
	t.i += len(p)
	return true
}

// AppendText appends element text with AppendXML's escaping, for codecs
// that write elements by hand.
func AppendText(dst []byte, text string) []byte { return appendEscaped(dst, text, false) }

// tokenizers backs ScanDocument.
var tokenizers = sync.Pool{New: func() any { return new(Tokenizer) }}

// ScanDocument runs scan over the tokens of the document src. scan reads
// tokens with Next and returns false as soon as Next does. A document
// outside the canonical shape is parsed once, and scan runs again, from
// the start, over AppendXML's serialization of the parsed tree, so it
// sees exactly the tree Parse builds; a parse error is returned as Parse
// reports it. The Tokenizer is only valid during the call.
func ScanDocument(src string, scan func(*Tokenizer) bool) error {
	t := tokenizers.Get().(*Tokenizer)
	defer func() {
		t.Reset("")
		tokenizers.Put(t)
	}()
	t.Reset(src)
	if scan(t) {
		return nil
	}
	doc, err := ParseString(src)
	if err != nil {
		return err
	}
	t.Reset(string(doc.AppendXML(nil)))
	t.trusted = true
	if !scan(t) {
		return fmt.Errorf("xmlmsg: the serialized tree of %.40q does not tokenize", src)
	}
	return nil
}

package xmlmsg

import (
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
)

// Fast serialization and parsing for the benchmark's data-centric documents.
//
// The E1 message path (Fig. 9: serialize → INSERT into queue table → trigger
// → re-parse) runs once per message, so the encoding/xml round trip used to
// dominate its allocation profile. AppendXML writes the exact bytes the
// xml.Encoder-based path produces, and Decoder takes a byte-level shortcut
// through Parse's grammar subset, falling back to the encoding/xml path for
// anything it does not recognize — accepted documents and error messages are
// identical either way.

// bufPool recycles serialization buffers across String calls.
var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

// AppendXML serializes the tree onto dst and returns the extended slice.
// The output is byte-identical to the encoding/xml serialization: attributes
// in sorted key order, empty elements written as <Name></Name>, and the
// stdlib escaping (&#34; &#39; &amp; &lt; &gt; &#x9; &#xA; &#xD;).
func (n *Node) AppendXML(dst []byte) []byte {
	dst = append(dst, '<')
	dst = append(dst, n.Name...)
	switch len(n.Attrs) {
	case 0:
	case 1:
		for k, v := range n.Attrs {
			dst = appendAttr(dst, k, v)
		}
	default:
		keys := make([]string, 0, len(n.Attrs))
		for k := range n.Attrs {
			keys = append(keys, k)
		}
		sortStrings(keys)
		for _, k := range keys {
			dst = appendAttr(dst, k, n.Attrs[k])
		}
	}
	dst = append(dst, '>')
	if len(n.Children) > 0 {
		for _, c := range n.Children {
			dst = c.AppendXML(dst)
		}
	} else if n.Text != "" {
		dst = appendEscaped(dst, n.Text, false)
	}
	dst = append(dst, '<', '/')
	dst = append(dst, n.Name...)
	return append(dst, '>')
}

func appendAttr(dst []byte, key, val string) []byte {
	dst = append(dst, ' ')
	dst = append(dst, key...)
	dst = append(dst, '=', '"')
	dst = appendEscaped(dst, val, true)
	return append(dst, '"')
}

// appendEscaped mirrors encoding/xml's escapeText: the special characters
// use the same (short) entity forms and runes outside the XML character
// range degrade to U+FFFD. Newlines are escaped only inside attribute
// values, matching the stdlib encoder.
func appendEscaped(dst []byte, s string, escapeNewline bool) []byte {
	last := 0
	for i := 0; i < len(s); {
		r, width := utf8.DecodeRuneInString(s[i:])
		i += width
		var esc string
		switch r {
		case '"':
			esc = "&#34;"
		case '\'':
			esc = "&#39;"
		case '&':
			esc = "&amp;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '\t':
			esc = "&#x9;"
		case '\n':
			if !escapeNewline {
				continue
			}
			esc = "&#xA;"
		case '\r':
			esc = "&#xD;"
		default:
			if !isInCharacterRange(r) || (r == 0xFFFD && width == 1) {
				esc = "�"
				break
			}
			continue
		}
		dst = append(dst, s[last:i-width]...)
		dst = append(dst, esc...)
		last = i
	}
	return append(dst, s[last:]...)
}

// isInCharacterRange matches the XML 1.0 Char production (same predicate as
// encoding/xml's unexported helper).
func isInCharacterRange(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// sortStrings is a small insertion sort; attribute lists have 1–4 entries,
// so sort.Strings' interface indirection costs more than it saves.
func sortStrings(keys []string) {
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
}

// Decoder parses documents while reusing its scratch space across calls.
// The zero value is ready to use; a Decoder is not safe for concurrent use.
type Decoder struct {
	stack []*Node
	text  []byte
}

// NewDecoder returns a reusable decoder.
func NewDecoder() *Decoder { return &Decoder{} }

// decoderPool backs the package-level ParseString.
var decoderPool = sync.Pool{New: func() any { return new(Decoder) }}

// ParseString parses one document. Documents inside the fast subset (the
// element/attribute/text shapes the benchmark generates) avoid encoding/xml
// entirely; everything else — including every malformed document — is
// re-parsed by Parse so results and errors match the stdlib path exactly.
func (d *Decoder) ParseString(s string) (*Node, error) {
	if root, ok := d.tryParse(s); ok {
		return root, nil
	}
	return parseStd(strings.NewReader(s))
}

// tryParse is the byte-level fast path. ok=false means "outside the
// subset": the caller re-parses with encoding/xml, which either accepts
// constructs we skipped (DOCTYPE, namespaces, CDATA) or reports the error
// message existing callers expect.
func (d *Decoder) tryParse(s string) (root *Node, ok bool) {
	d.stack = d.stack[:0]
	i := 0
	for i < len(s) {
		if s[i] != '<' {
			end := len(s)
			if j := strings.IndexByte(s[i:], '<'); j >= 0 {
				end = i + j
			}
			run := s[i:end]
			if len(d.stack) == 0 {
				// Only whitespace may appear outside the root on this path.
				if strings.TrimSpace(run) != "" {
					return nil, false
				}
			} else if strings.Contains(run, "]]>") {
				return nil, false
			} else {
				text, okt := d.expand(run)
				if !okt {
					return nil, false
				}
				if text = strings.TrimSpace(text); text != "" {
					d.stack[len(d.stack)-1].Text += text
				}
			}
			i = end
			continue
		}
		if i+1 >= len(s) {
			return nil, false
		}
		switch s[i+1] {
		case '?': // XML declaration / processing instruction: skipped
			j := strings.Index(s[i+2:], "?>")
			if j < 0 {
				return nil, false
			}
			i += 2 + j + 2
		case '!':
			if !strings.HasPrefix(s[i:], "<!--") {
				return nil, false // DOCTYPE, CDATA
			}
			j := strings.Index(s[i+4:], "-->")
			if j < 0 {
				return nil, false
			}
			i += 4 + j + 3
		case '/':
			j := strings.IndexByte(s[i:], '>')
			if j < 0 {
				return nil, false
			}
			name := s[i+2 : i+j]
			if k := len(name); k > 0 && isSpaceByte(name[k-1]) {
				name = strings.TrimRight(name, " \t\r\n")
			}
			if len(d.stack) == 0 || d.stack[len(d.stack)-1].Name != name {
				return nil, false
			}
			d.stack = d.stack[:len(d.stack)-1]
			i += j + 1
		default:
			n, next, selfClosed, okt := d.parseStartTag(s, i)
			if !okt {
				return nil, false
			}
			if len(d.stack) > 0 {
				parent := d.stack[len(d.stack)-1]
				parent.Children = append(parent.Children, n)
			} else if root == nil {
				root = n
			} else {
				return nil, false // multiple roots: stdlib path reports it
			}
			if !selfClosed {
				d.stack = append(d.stack, n)
			}
			i = next
		}
	}
	if root == nil || len(d.stack) != 0 {
		return nil, false
	}
	return root, true
}

func (d *Decoder) parseStartTag(s string, i int) (n *Node, next int, selfClosed, ok bool) {
	j := i + 1
	start := j
	for j < len(s) && isNameByte(s[j], j == start) {
		j++
	}
	if j == start {
		return nil, 0, false, false
	}
	n = &Node{Name: s[start:j]}
	for {
		for j < len(s) && isSpaceByte(s[j]) {
			j++
		}
		if j >= len(s) {
			return nil, 0, false, false
		}
		switch s[j] {
		case '>':
			return n, j + 1, false, true
		case '/':
			if j+1 < len(s) && s[j+1] == '>' {
				return n, j + 2, true, true
			}
			return nil, 0, false, false
		}
		as := j
		for j < len(s) && isNameByte(s[j], j == as) {
			j++
		}
		if j == as {
			return nil, 0, false, false
		}
		aname := s[as:j]
		for j < len(s) && isSpaceByte(s[j]) {
			j++
		}
		if j >= len(s) || s[j] != '=' {
			return nil, 0, false, false
		}
		j++
		for j < len(s) && isSpaceByte(s[j]) {
			j++
		}
		if j >= len(s) || (s[j] != '"' && s[j] != '\'') {
			return nil, 0, false, false
		}
		quote := s[j]
		j++
		ve := strings.IndexByte(s[j:], quote)
		if ve < 0 {
			return nil, 0, false, false
		}
		raw := s[j : j+ve]
		j += ve + 1
		if strings.IndexByte(raw, '<') >= 0 {
			return nil, 0, false, false
		}
		val, okv := d.expand(raw)
		if !okv {
			return nil, 0, false, false
		}
		if aname != "xmlns" { // namespace declarations are not modeled
			n.SetAttr(aname, val)
		}
	}
}

// expand resolves character/entity references, normalizes \r and \r\n to
// \n, and validates the character range — the same transformations the
// encoding/xml tokenizer applies to text and attribute values.
func (d *Decoder) expand(s string) (string, bool) {
	if strings.IndexByte(s, '&') < 0 && strings.IndexByte(s, '\r') < 0 {
		return s, validChars(s)
	}
	b := d.text[:0]
	for i := 0; i < len(s); {
		switch c := s[i]; c {
		case '&':
			semi := strings.IndexByte(s[i:], ';')
			if semi < 0 {
				d.text = b
				return "", false
			}
			r, okr := entityRune(s[i+1 : i+semi])
			if !okr {
				d.text = b
				return "", false
			}
			b = utf8.AppendRune(b, r)
			i += semi + 1
		case '\r':
			b = append(b, '\n')
			i++
			if i < len(s) && s[i] == '\n' {
				i++
			}
		default:
			b = append(b, c)
			i++
		}
	}
	d.text = b
	out := string(b)
	return out, validChars(out)
}

// validChars declines strings the stdlib tokenizer would reject (or mangle)
// so malformed input still flows through the encoding/xml path.
func validChars(s string) bool {
	for _, r := range s {
		if r == utf8.RuneError || !isInCharacterRange(r) {
			return false
		}
	}
	return true
}

func entityRune(ent string) (rune, bool) {
	switch ent {
	case "amp":
		return '&', true
	case "lt":
		return '<', true
	case "gt":
		return '>', true
	case "quot":
		return '"', true
	case "apos":
		return '\'', true
	}
	if len(ent) > 1 && ent[0] == '#' {
		base := 10
		digits := ent[1:]
		if digits[0] == 'x' { // stdlib accepts lowercase x only
			base = 16
			digits = digits[1:]
		}
		v, err := strconv.ParseUint(digits, base, 32)
		if err != nil || !isInCharacterRange(rune(v)) {
			return 0, false
		}
		return rune(v), true
	}
	return 0, false
}

func isNameByte(c byte, first bool) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		return true
	case !first && (c >= '0' && c <= '9' || c == '-' || c == '.'):
		return true
	}
	return false
}

func isSpaceByte(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}

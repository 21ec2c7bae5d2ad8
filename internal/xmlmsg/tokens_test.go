package xmlmsg

import (
	"math/rand"
	"strings"
	"testing"
	"unicode/utf8"
)

// tokenTree builds the tree a Tokenizer sees in s.
func tokenTree(s string) (*Node, bool) {
	var tz Tokenizer
	tz.Reset(s)
	var stack []*Node
	var root *Node
	for {
		tok, ok := tz.Next()
		if !ok {
			return nil, false
		}
		switch tok.Kind {
		case EndOfDocument:
			return root, true
		case EndTag:
			stack = stack[:len(stack)-1]
		case StartTag:
			n := &Node{Name: tok.Name, Text: tok.Text}
			for _, a := range tok.Attrs {
				n.SetAttr(a.Name, a.Value)
			}
			if len(stack) > 0 {
				p := stack[len(stack)-1]
				p.Children = append(p.Children, n)
			} else {
				root = n
			}
			stack = append(stack, n)
		}
	}
}

// TestTokenizerSeesParsedTree checks that the tokens of AppendXML output
// spell the tree Parse builds, and that a mutated document the Tokenizer
// still accepts parses to the tree its tokens spell.
func TestTokenizerSeesParsedTree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var accepted [2]int // codec outputs, mutated copies
	for i := 0; i < 1000; i++ {
		name, r := randomRelation(rng)
		doc := FromRelation(name, r)
		doc.SetAttr("zone", nastyString(rng))
		b := doc.AppendXML(nil)
		inputs := [][]byte{b}
		for k := 0; k < 5; k++ {
			inputs = append(inputs, mutate(rng, b))
		}
		for k, in := range inputs {
			got, ok := tokenTree(string(in))
			want, err := ParseString(string(in))
			if ok {
				accepted[min(k, 1)]++
				if err != nil || !got.Equal(want) {
					t.Fatalf("doc %d input %d %q: tokens spell %v, parse %v %v", i, k, in, got, want, err)
				}
			}
			if k == 0 && !ok && !strings.ContainsRune(string(in), utf8.RuneError) {
				t.Fatalf("doc %d: AppendXML output declined: %q", i, in)
			}
		}
	}
	if accepted[0] < 600 || accepted[1] < 100 {
		t.Fatalf("only %d outputs and %d mutated copies tokenized", accepted[0], accepted[1])
	}
}

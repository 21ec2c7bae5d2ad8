// Package mtm implements the Message Transformation Model (MTM), the
// platform-independent, process-based description model the DIPBench paper
// uses to specify its 15 integration process types. A process is a typed
// operator graph (RECEIVE, ASSIGN, INVOKE, SWITCH, TRANSLATE, VALIDATE,
// SELECTION, PROJECTION, JOIN, UNION DISTINCT, FORK, subprocess
// invocations) over messages that carry either XML documents or relational
// datasets. Executing a process records its costs in the three categories
// of the benchmark's cost model: communication (Cc), internal management
// (Cm) and processing (Cp).
package mtm

import (
	"fmt"

	rel "repro/internal/relational"
	x "repro/internal/xmlmsg"
)

// Message is the unit of data flowing between operators: an XML document,
// a relational dataset, or both (e.g. after a conversion step).
type Message struct {
	// Doc is the XML payload, nil for pure datasets.
	Doc *x.Node
	// XML is an XML payload still in serialized form, set instead of Doc:
	// a result set extracted from a web service stays bytes through
	// TRANSLATE and CONVERT, and Context.Doc parses it only on request.
	XML []byte
	// Data is the relational payload, nil for pure XML messages.
	Data *rel.Relation
	// Delta is the net change set behind an incremental extraction
	// (OpQuerySince); Data aliases its insert images so ordinary dataset
	// operators consume the delta without knowing about it.
	Delta *rel.Delta
}

// XMLMessage wraps a document as a message.
func XMLMessage(doc *x.Node) *Message { return &Message{Doc: doc} }

// RawXMLMessage wraps a serialized document as a message.
func RawXMLMessage(b []byte) *Message { return &Message{XML: b} }

// DataMessage wraps a relation as a message.
func DataMessage(r *rel.Relation) *Message { return &Message{Data: r} }

// DeltaMessage wraps a net change set as a message; the dataset payload
// is the delta's insert images (on a Reset delta: the full snapshot).
func DeltaMessage(d *rel.Delta) *Message { return &Message{Data: d.Inserts, Delta: d} }

// RequireDelta returns the change-set payload or an error naming the
// variable.
func (m *Message) RequireDelta(varName string) (*rel.Delta, error) {
	if m == nil || m.Delta == nil {
		return nil, fmt.Errorf("mtm: variable %q does not hold a delta", varName)
	}
	return m.Delta, nil
}

// IsXML reports whether the message carries an XML document.
func (m *Message) IsXML() bool { return m != nil && (m.Doc != nil || len(m.XML) > 0) }

// rawXML reports whether the message carries its document serialized.
func (m *Message) rawXML() bool { return m != nil && m.Doc == nil && len(m.XML) > 0 }

// IsData reports whether the message carries a relational dataset.
func (m *Message) IsData() bool { return m != nil && m.Data != nil }

// RequireDoc returns the XML payload or an error naming the variable. A
// serialized payload is parsed into a new tree on every call; the message
// itself is left as it is, since operators may share it.
func (m *Message) RequireDoc(varName string) (*x.Node, error) {
	switch {
	case m != nil && m.Doc != nil:
		return m.Doc, nil
	case m.rawXML():
		return x.ParseBytes(m.XML)
	}
	return nil, fmt.Errorf("mtm: variable %q does not hold an XML document", varName)
}

// RequireData returns the relational payload or an error naming the
// variable.
func (m *Message) RequireData(varName string) (*rel.Relation, error) {
	if m == nil || m.Data == nil {
		return nil, fmt.Errorf("mtm: variable %q does not hold a dataset", varName)
	}
	return m.Data, nil
}

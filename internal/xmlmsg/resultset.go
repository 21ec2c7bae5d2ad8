package xmlmsg

import (
	"fmt"

	"repro/internal/relational"
)

// The Asia region of the DIPBench scenario expresses all schemas "with
// default result set XSDs": relations serialized to a generic XML layout.
// This file implements that layout and its mapping to relational.Relation:
//
//	<ResultSet name="Orders">
//	  <Metadata>
//	    <Column name="Ordkey" type="BIGINT" key="true"/>
//	    ...
//	  </Metadata>
//	  <Rows>
//	    <Row><V>1</V><V>10</V>...</Row>
//	  </Rows>
//	</ResultSet>

// ResultSetSchema is the XSD-lite schema of the generic result set. The
// codecs do not consult it; the tests hold their documents to it.
var ResultSetSchema = NewSchema("XSD_ResultSet",
	Elem("ResultSet",
		Elem("Metadata",
			(&ElementDecl{Name: "Column", MinOccurs: 0, MaxOccurs: -1}).WithAttrs("name", "type"),
		),
		Elem("Rows",
			Elem("Row",
				(&ElementDecl{Name: "V", Type: DTString, MinOccurs: 0, MaxOccurs: -1}),
			).Optional().Repeated(),
		),
	).WithAttrs("name"),
)

// FromRelation serializes a relation into a generic result-set document.
func FromRelation(name string, r *relational.Relation) *Node {
	meta := New("Metadata")
	keyCols := make(map[int]bool)
	for _, k := range r.Schema().Key {
		keyCols[k] = true
	}
	for i, c := range r.Schema().Columns {
		col := New("Column").SetAttr("name", c.Name).SetAttr("type", c.Type.String())
		if c.Nullable {
			col.SetAttr("nullable", "true")
		}
		if keyCols[i] {
			col.SetAttr("key", "true")
		}
		meta.Add(col)
	}
	rows := New("Rows")
	for i := 0; i < r.Len(); i++ {
		row := New("Row")
		for _, v := range r.Row(i) {
			cell := NewText("V", v.String())
			if v.IsNull() {
				cell.Text = ""
				cell.SetAttr("null", "true")
			}
			row.Add(cell)
		}
		rows.Add(row)
	}
	return New("ResultSet", meta, rows).SetAttr("name", name)
}

// ToRelation parses a generic result-set document back into a relation.
func ToRelation(doc *Node) (*relational.Relation, error) {
	if doc == nil || doc.Name != "ResultSet" {
		return nil, fmt.Errorf("xmlmsg: not a ResultSet document")
	}
	meta := doc.Child("Metadata")
	if meta == nil {
		return nil, fmt.Errorf("xmlmsg: ResultSet without Metadata")
	}
	var cols []relational.Column
	var keyNames []string
	for _, c := range meta.ChildrenNamed("Column") {
		t, err := relational.ParseTypeName(c.Attr("type"))
		if err != nil {
			return nil, fmt.Errorf("xmlmsg: %w", err)
		}
		if t == relational.TypeNull {
			return nil, fmt.Errorf("xmlmsg: column %q without a concrete type", c.Attr("name"))
		}
		cols = append(cols, relational.Column{
			Name:     c.Attr("name"),
			Type:     t,
			Nullable: c.Attr("nullable") == "true",
		})
		if c.Attr("key") == "true" {
			keyNames = append(keyNames, c.Attr("name"))
		}
	}
	schema, err := relational.NewSchema(cols, keyNames...)
	if err != nil {
		return nil, fmt.Errorf("xmlmsg: result-set schema: %w", err)
	}
	rowsNode := doc.Child("Rows")
	var rows []relational.Row
	if rowsNode != nil {
		for ri, rn := range rowsNode.ChildrenNamed("Row") {
			cells := rn.ChildrenNamed("V")
			if len(cells) != len(cols) {
				return nil, fmt.Errorf("xmlmsg: row %d has %d cells, schema has %d columns",
					ri, len(cells), len(cols))
			}
			row := make(relational.Row, len(cells))
			for i, cell := range cells {
				if cell.Attr("null") == "true" {
					row[i] = relational.Null
					continue
				}
				v, err := relational.ParseValue(cols[i].Type, cell.Text)
				if err != nil {
					return nil, fmt.Errorf("xmlmsg: row %d column %s: %w", ri, cols[i].Name, err)
				}
				row[i] = v
			}
			rows = append(rows, row)
		}
	}
	return relational.NewRelation(schema, rows)
}

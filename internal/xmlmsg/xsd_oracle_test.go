package xmlmsg

import "fmt"

// ValidateTree is the tree validator ValidateXML replaced, kept as the
// oracle the token walk is held to: the same violations, paths, reasons
// and order for the tree Parse builds.
func ValidateTree(s *Schema, doc *Node) []*ValidationError {
	if doc == nil {
		return []*ValidationError{{Path: "/", Reason: "empty document"}}
	}
	var errs []*ValidationError
	if doc.Name != s.Root.Name {
		errs = append(errs, &ValidationError{
			Path:   "/" + doc.Name,
			Reason: fmt.Sprintf("root element %q, schema expects %q", doc.Name, s.Root.Name),
		})
		return errs
	}
	validateNode(doc, s.Root, "/"+doc.Name, &errs)
	return errs
}

func validateNode(n *Node, d *ElementDecl, path string, errs *[]*ValidationError) {
	for _, a := range d.ReqAttrs {
		if _, ok := n.Attrs[a]; !ok {
			*errs = append(*errs, &ValidationError{path, fmt.Sprintf("missing attribute %q", a)})
		}
	}
	if len(d.Children) == 0 {
		if len(n.Children) > 0 {
			*errs = append(*errs, &ValidationError{path, "unexpected child elements in leaf"})
			return
		}
		if reason := checkSimpleType(n.Text, d.Type); reason != "" {
			*errs = append(*errs, &ValidationError{path, reason})
		}
		return
	}
	decls := make(map[string]*ElementDecl, len(d.Children))
	counts := make(map[string]int, len(d.Children))
	for _, cd := range d.Children {
		decls[cd.Name] = cd
	}
	lastDeclIdx := -1
	declIdx := make(map[string]int, len(d.Children))
	for i, cd := range d.Children {
		declIdx[cd.Name] = i
	}
	for _, c := range n.Children {
		cd, ok := decls[c.Name]
		cpath := path + "/" + c.Name
		if !ok {
			*errs = append(*errs, &ValidationError{cpath, "undeclared element"})
			continue
		}
		if d.Ordered {
			if idx := declIdx[c.Name]; idx < lastDeclIdx {
				*errs = append(*errs, &ValidationError{cpath, "element out of sequence"})
			} else {
				lastDeclIdx = idx
			}
		}
		counts[c.Name]++
		validateNode(c, cd, cpath, errs)
	}
	for _, cd := range d.Children {
		got := counts[cd.Name]
		if got < cd.MinOccurs {
			*errs = append(*errs, &ValidationError{
				path + "/" + cd.Name,
				fmt.Sprintf("occurs %d times, minimum %d", got, cd.MinOccurs),
			})
		}
		if cd.MaxOccurs >= 0 && got > cd.MaxOccurs {
			*errs = append(*errs, &ValidationError{
				path + "/" + cd.Name,
				fmt.Sprintf("occurs %d times, maximum %d", got, cd.MaxOccurs),
			})
		}
	}
}

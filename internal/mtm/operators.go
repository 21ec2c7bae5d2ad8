package mtm

import (
	"fmt"
	"sync"

	rel "repro/internal/relational"
	"repro/internal/stx"
	x "repro/internal/xmlmsg"
)

// Operator is one step of an integration process. Leaf operators do the
// work; composite operators (SWITCH, FORK, VALIDATE, subprocess) contain
// nested operator sequences whose steps are timed individually.
type Operator interface {
	// Kind is the MTM operator name (RECEIVE, INVOKE, ...).
	Kind() string
	// Category is the cost category the operator's own time is billed to.
	Category() Cost
	// Execute runs the operator against the context.
	Execute(ctx *Context) error
	// composite reports whether the executor should skip timing this
	// operator itself (its children are timed instead).
	composite() bool
}

// leaf is embedded by non-composite operators.
type leaf struct{}

func (leaf) composite() bool { return false }

// Receive binds the process-triggering input message (event type E1) to a
// variable — the RECEIVE operator that starts every message-driven process.
type Receive struct {
	leaf
	To string
}

// Kind implements Operator.
func (Receive) Kind() string { return "RECEIVE" }

// Category implements Operator; receiving waits on the outside world.
func (Receive) Category() Cost { return CostComm }

// Execute implements Operator.
func (o Receive) Execute(ctx *Context) error {
	if ctx.Input == nil {
		return fmt.Errorf("mtm: RECEIVE without input message")
	}
	ctx.Set(o.To, ctx.Input)
	return nil
}

// Assign computes a new message binding — the ASSIGN operator the paper's
// process figures use to construct invocation messages.
type Assign struct {
	leaf
	To string
	Fn func(*Context) (*Message, error)
}

// Kind implements Operator.
func (Assign) Kind() string { return "ASSIGN" }

// Category implements Operator.
func (Assign) Category() Cost { return CostProc }

// Execute implements Operator.
func (o Assign) Execute(ctx *Context) error {
	m, err := o.Fn(ctx)
	if err != nil {
		return fmt.Errorf("mtm: ASSIGN %s: %w", o.To, err)
	}
	ctx.Set(o.To, m)
	return nil
}

// InvokeOp enumerates the external operations an INVOKE can perform.
type InvokeOp string

// Invoke operations.
const (
	OpQuery    InvokeOp = "query"
	OpFetchXML InvokeOp = "fetchxml"
	OpInsert   InvokeOp = "insert"
	OpUpsert   InvokeOp = "upsert"
	OpDelete   InvokeOp = "delete"
	OpUpdate   InvokeOp = "update"
	OpCall     InvokeOp = "call"
	OpSend     InvokeOp = "send"
)

// Invoke calls an external system — the INVOKE operator. The Service and
// Operation fields correspond to the "Service = ..., Operation = ..."
// annotations of Figures 4 and 5.
type Invoke struct {
	leaf
	Service   string
	Operation InvokeOp
	// Table is the target table (query/insert/upsert/delete) or procedure
	// name (call).
	Table string
	// In is the input variable (dataset for insert/upsert, XML document
	// for send). Unused for query/fetchxml/delete/call.
	In string
	// Out receives the result (dataset for query/call, XML for fetchxml).
	Out string
	// Pred filters query/delete/update operations; nil means all rows.
	Pred rel.Predicate
	// PredFn computes the predicate from the context at execution time
	// (message-dependent lookups such as the P04 enrichment); it
	// overrides Pred when set.
	PredFn func(*Context) (rel.Predicate, error)
	// Set holds the column assignments of an update operation.
	Set map[string]rel.Value
	// Args are stored-procedure arguments for call.
	Args []rel.Value
}

// Kind implements Operator.
func (Invoke) Kind() string { return "INVOKE" }

// Category implements Operator; invocation time is communication cost.
func (Invoke) Category() Cost { return CostComm }

// Execute implements Operator.
func (o Invoke) Execute(ctx *Context) error {
	if ctx.Ext == nil {
		return fmt.Errorf("mtm: INVOKE %s without external gateway", o.Service)
	}
	pred := o.Pred
	if o.PredFn != nil {
		p, err := o.PredFn(ctx)
		if err != nil {
			return fmt.Errorf("mtm: INVOKE predicate: %w", err)
		}
		pred = p
	}
	if pred == nil {
		pred = rel.True()
	}
	ectx := ctx.Context()
	switch o.Operation {
	case OpQuery:
		r, err := ctx.Ext.Query(ectx, o.Service, o.Table, pred)
		if err != nil {
			return invokeErr(o, err)
		}
		ctx.Set(o.Out, DataMessage(r))
	case OpFetchXML:
		b, err := ctx.Ext.FetchXML(ectx, o.Service, o.Table)
		if err != nil {
			return invokeErr(o, err)
		}
		ctx.Set(o.Out, RawXMLMessage(b))
	case OpInsert:
		r, err := ctx.Data(o.In)
		if err != nil {
			return err
		}
		if err := ctx.Ext.Insert(ectx, o.Service, o.Table, r); err != nil {
			return invokeErr(o, err)
		}
	case OpUpsert:
		r, err := ctx.Data(o.In)
		if err != nil {
			return err
		}
		if err := ctx.Ext.Upsert(ectx, o.Service, o.Table, r); err != nil {
			return invokeErr(o, err)
		}
	case OpDelete:
		if _, err := ctx.Ext.Delete(ectx, o.Service, o.Table, pred); err != nil {
			return invokeErr(o, err)
		}
	case OpUpdate:
		if _, err := ctx.Ext.Update(ectx, o.Service, o.Table, pred, o.Set); err != nil {
			return invokeErr(o, err)
		}
	case OpCall:
		r, err := ctx.Ext.Call(ectx, o.Service, o.Table, o.Args...)
		if err != nil {
			return invokeErr(o, err)
		}
		if o.Out != "" {
			ctx.Set(o.Out, DataMessage(r))
		}
	case OpSend:
		msg, err := ctx.XML(o.In)
		if err != nil {
			return err
		}
		if err := ctx.Ext.Send(ectx, o.Service, msg); err != nil {
			return invokeErr(o, err)
		}
	default:
		return fmt.Errorf("mtm: INVOKE with unknown operation %q", o.Operation)
	}
	return nil
}

func invokeErr(o Invoke, err error) error {
	return fmt.Errorf("mtm: INVOKE %s.%s %s: %w", o.Service, o.Table, o.Operation, err)
}

// Translate applies an STX stylesheet to an XML message — the TRANSLATE
// operator realizing schema translations. A serialized message is
// translated to a serialized one by AppendTransform, a tree to a tree by
// Transform.
type Translate struct {
	leaf
	In, Out string
	Sheet   *stx.Stylesheet
}

// Kind implements Operator.
func (Translate) Kind() string { return "TRANSLATE" }

// Category implements Operator.
func (Translate) Category() Cost { return CostProc }

// Execute implements Operator.
func (o Translate) Execute(ctx *Context) error {
	m, err := ctx.MustGet(o.In)
	if err != nil {
		return err
	}
	if m.rawXML() {
		out, err := o.Sheet.AppendTransform(nil, m.XML)
		if err != nil {
			return fmt.Errorf("mtm: TRANSLATE %s: %w", o.Sheet.Name, err)
		}
		ctx.Set(o.Out, RawXMLMessage(out))
		return nil
	}
	doc, err := m.RequireDoc(o.In)
	if err != nil {
		return err
	}
	out, err := o.Sheet.Transform(doc)
	if err != nil {
		return fmt.Errorf("mtm: TRANSLATE %s: %w", o.Sheet.Name, err)
	}
	ctx.Set(o.Out, XMLMessage(out))
	return nil
}

// RenameData renames dataset columns — the projection-with-rename schema
// mappings of P05..P07 and P11 (a TRANSLATE over datasets).
type RenameData struct {
	leaf
	In, Out string
	Mapping map[string]string
}

// Kind implements Operator.
func (RenameData) Kind() string { return "TRANSLATE" }

// Category implements Operator.
func (RenameData) Category() Cost { return CostProc }

// Execute implements Operator.
func (o RenameData) Execute(ctx *Context) error {
	r, err := ctx.Data(o.In)
	if err != nil {
		return err
	}
	out, err := r.RenameAll(o.Mapping)
	if err != nil {
		return fmt.Errorf("mtm: TRANSLATE(data): %w", err)
	}
	ctx.Set(o.Out, DataMessage(out))
	return nil
}

// Selection filters a dataset — the SELECTION operator.
type Selection struct {
	leaf
	In, Out string
	Pred    rel.Predicate
}

// Kind implements Operator.
func (Selection) Kind() string { return "SELECTION" }

// Category implements Operator.
func (Selection) Category() Cost { return CostProc }

// Execute implements Operator.
func (o Selection) Execute(ctx *Context) error {
	r, err := ctx.Data(o.In)
	if err != nil {
		return err
	}
	var out *rel.Relation
	if ctx.Columnar() {
		var layout rel.Layout
		out, layout, err = r.FilterVec(ctx.Parallelism(), o.Pred)
		ctx.recordLayout(o.Kind(), layout)
	} else {
		out, err = r.Select(o.Pred)
	}
	if err != nil {
		return fmt.Errorf("mtm: SELECTION: %w", err)
	}
	ctx.Set(o.Out, DataMessage(out))
	return nil
}

// Projection keeps only the named dataset columns — the PROJECTION
// operator.
type Projection struct {
	leaf
	In, Out string
	Cols    []string
}

// Kind implements Operator.
func (Projection) Kind() string { return "PROJECTION" }

// Category implements Operator.
func (Projection) Category() Cost { return CostProc }

// Execute implements Operator.
func (o Projection) Execute(ctx *Context) error {
	r, err := ctx.Data(o.In)
	if err != nil {
		return err
	}
	var out *rel.Relation
	if ctx.Columnar() {
		var layout rel.Layout
		out, layout, err = r.ProjectVec(ctx.Parallelism(), o.Cols...)
		ctx.recordLayout(o.Kind(), layout)
	} else {
		out, err = r.Project(o.Cols...)
	}
	if err != nil {
		return fmt.Errorf("mtm: PROJECTION: %w", err)
	}
	ctx.Set(o.Out, DataMessage(out))
	return nil
}

// UnionDistinct merges datasets removing duplicates on the key columns —
// the UNION_DISTINCT operator of P03 and P09.
type UnionDistinct struct {
	leaf
	Ins     []string
	Out     string
	KeyCols []string
}

// Kind implements Operator.
func (UnionDistinct) Kind() string { return "UNION_DISTINCT" }

// Category implements Operator.
func (UnionDistinct) Category() Cost { return CostProc }

// Execute implements Operator.
func (o UnionDistinct) Execute(ctx *Context) error {
	if len(o.Ins) == 0 {
		return fmt.Errorf("mtm: UNION_DISTINCT without inputs")
	}
	first, err := ctx.Data(o.Ins[0])
	if err != nil {
		return err
	}
	rest := make([]*rel.Relation, 0, len(o.Ins)-1)
	for _, name := range o.Ins[1:] {
		r, err := ctx.Data(name)
		if err != nil {
			return err
		}
		rest = append(rest, r)
	}
	out, err := first.UnionDistinctPar(ctx.Parallelism(), o.KeyCols, rest...)
	if err != nil {
		return fmt.Errorf("mtm: UNION_DISTINCT: %w", err)
	}
	ctx.Set(o.Out, DataMessage(out))
	return nil
}

// Join equi-joins two dataset variables — the JOIN operator (used by
// enrichment steps).
type Join struct {
	leaf
	Left, Right string
	Out         string
	LeftCol     string
	RightCol    string
	ClashPrefix string
}

// Kind implements Operator.
func (Join) Kind() string { return "JOIN" }

// Category implements Operator.
func (Join) Category() Cost { return CostProc }

// Execute implements Operator.
func (o Join) Execute(ctx *Context) error {
	l, err := ctx.Data(o.Left)
	if err != nil {
		return err
	}
	r, err := ctx.Data(o.Right)
	if err != nil {
		return err
	}
	var out *rel.Relation
	if ctx.Columnar() {
		var layout rel.Layout
		out, layout, err = l.HashJoinVec(ctx.Parallelism(), r, o.LeftCol, o.RightCol, o.ClashPrefix)
		ctx.recordLayout(o.Kind(), layout)
	} else {
		out, err = l.Join(r, o.LeftCol, o.RightCol, o.ClashPrefix)
	}
	if err != nil {
		return fmt.Errorf("mtm: JOIN: %w", err)
	}
	ctx.Set(o.Out, DataMessage(out))
	return nil
}

// ToData converts an XML result-set message into a dataset; a serialized
// one is decoded by x.DecodeResultSet without a tree.
type ToData struct {
	leaf
	In, Out string
}

// Kind implements Operator.
func (ToData) Kind() string { return "CONVERT" }

// Category implements Operator.
func (ToData) Category() Cost { return CostProc }

// Execute implements Operator.
func (o ToData) Execute(ctx *Context) error {
	m, err := ctx.MustGet(o.In)
	if err != nil {
		return err
	}
	if m.rawXML() {
		_, r, err := x.DecodeResultSet(m.XML)
		if err != nil {
			return fmt.Errorf("mtm: CONVERT to data: %w", err)
		}
		ctx.Set(o.Out, DataMessage(r))
		return nil
	}
	doc, err := m.RequireDoc(o.In)
	if err != nil {
		return err
	}
	r, err := x.ToRelation(doc)
	if err != nil {
		return fmt.Errorf("mtm: CONVERT to data: %w", err)
	}
	ctx.Set(o.Out, DataMessage(r))
	return nil
}

// ToXML converts a dataset message into an XML result-set document.
type ToXML struct {
	leaf
	In, Out string
	Name    string
}

// Kind implements Operator.
func (ToXML) Kind() string { return "CONVERT" }

// Category implements Operator.
func (ToXML) Category() Cost { return CostProc }

// Execute implements Operator.
func (o ToXML) Execute(ctx *Context) error {
	r, err := ctx.Data(o.In)
	if err != nil {
		return err
	}
	ctx.Set(o.Out, XMLMessage(x.FromRelation(o.Name, r)))
	return nil
}

// SwitchCase is one guarded branch of a SWITCH.
type SwitchCase struct {
	When func(*Context) (bool, error)
	Ops  []Operator
}

// Switch evaluates its cases in order and runs the first matching branch,
// or Else — the SWITCH operator of P02 (Fig. 4).
type Switch struct {
	Cases []SwitchCase
	Else  []Operator
}

// Kind implements Operator.
func (Switch) Kind() string { return "SWITCH" }

// Category implements Operator.
func (Switch) Category() Cost { return CostProc }

func (Switch) composite() bool { return true }

// Execute implements Operator.
func (o Switch) Execute(ctx *Context) error {
	for _, c := range o.Cases {
		ok, err := c.When(ctx)
		if err != nil {
			return fmt.Errorf("mtm: SWITCH condition: %w", err)
		}
		if ok {
			return runOps(c.Ops, ctx)
		}
	}
	return runOps(o.Else, ctx)
}

// Validate checks an XML variable against an XSD-lite schema and branches
// — the VALIDATE operator of P10/P12/P13. Exactly one branch runs. The
// check walks the serialized message (Schema.ValidateXML); only the
// violation report of an invalid message is a tree.
type Validate struct {
	In      string
	Schema  *x.Schema
	Valid   []Operator
	Invalid []Operator
	// ErrorsTo optionally binds an XML report of the violations before
	// the Invalid branch runs (the "failed data" payload).
	ErrorsTo string
}

// Kind implements Operator.
func (Validate) Kind() string { return "VALIDATE" }

// Category implements Operator.
func (Validate) Category() Cost { return CostProc }

func (Validate) composite() bool { return true }

// Execute implements Operator.
func (o Validate) Execute(ctx *Context) error {
	msg, err := ctx.XML(o.In)
	if err != nil {
		return err
	}
	errs, err := o.Schema.ValidateXML(msg)
	if err != nil {
		return err
	}
	if len(errs) == 0 {
		return runOps(o.Valid, ctx)
	}
	if o.ErrorsTo != "" {
		report := x.New("ValidationErrors")
		for _, e := range errs {
			report.Add(x.NewText("Error", e.Error()))
		}
		ctx.Set(o.ErrorsTo, XMLMessage(report))
	}
	return runOps(o.Invalid, ctx)
}

// Fork runs branches concurrently and waits for all of them — the
// parallelism of process P14 ("three concurrent threads are processed in
// parallel"). The first branch error is returned.
type Fork struct {
	Branches [][]Operator
}

// Kind implements Operator.
func (Fork) Kind() string { return "FORK" }

// Category implements Operator.
func (Fork) Category() Cost { return CostProc }

func (Fork) composite() bool { return true }

// Execute implements Operator.
func (o Fork) Execute(ctx *Context) error {
	var wg sync.WaitGroup
	errs := make([]error, len(o.Branches))
	for i, branch := range o.Branches {
		wg.Add(1)
		go func(i int, ops []Operator) {
			defer wg.Done()
			errs[i] = runOps(ops, ctx)
		}(i, branch)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Custom wraps an arbitrary processing function as a leaf operator; the
// escape hatch for computed steps such as message enrichment.
type Custom struct {
	leaf
	Name string
	Cat  Cost
	Fn   func(*Context) error
}

// Kind implements Operator.
func (o Custom) Kind() string {
	if o.Name != "" {
		return o.Name
	}
	return "CUSTOM"
}

// Category implements Operator.
func (o Custom) Category() Cost { return o.Cat }

// Execute implements Operator.
func (o Custom) Execute(ctx *Context) error { return o.Fn(ctx) }

package mtm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	rel "repro/internal/relational"
	"repro/internal/stx"
	x "repro/internal/xmlmsg"
)

// fakeExternal implements External over a map of in-memory databases.
type fakeExternal struct {
	mu    sync.Mutex
	dbs   map[string]*rel.Database
	sent  []*x.Node
	calls []string
}

func newFakeExternal() *fakeExternal {
	return &fakeExternal{dbs: map[string]*rel.Database{}}
}

func (f *fakeExternal) db(system string) (*rel.Database, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	db := f.dbs[system]
	if db == nil {
		return nil, fmt.Errorf("no system %q", system)
	}
	return db, nil
}

func (f *fakeExternal) Query(_ context.Context, system, table string, pred rel.Predicate) (*rel.Relation, error) {
	db, err := f.db(system)
	if err != nil {
		return nil, err
	}
	t := db.Table(table)
	if t == nil {
		return nil, fmt.Errorf("no table %q", table)
	}
	return t.SelectWhere(pred)
}

func (f *fakeExternal) FetchXML(_ context.Context, system, table string) ([]byte, error) {
	r, err := f.Query(context.Background(), system, table, rel.True())
	if err != nil {
		return nil, err
	}
	return x.AppendResultSet(nil, table, r), nil
}

func (f *fakeExternal) Insert(_ context.Context, system, table string, r *rel.Relation) error {
	db, err := f.db(system)
	if err != nil {
		return err
	}
	return db.MustTable(table).InsertAll(r)
}

func (f *fakeExternal) Upsert(_ context.Context, system, table string, r *rel.Relation) error {
	db, err := f.db(system)
	if err != nil {
		return err
	}
	t := db.MustTable(table)
	for i := 0; i < r.Len(); i++ {
		if err := t.Upsert(r.Row(i)); err != nil {
			return err
		}
	}
	return nil
}

func (f *fakeExternal) Delete(_ context.Context, system, table string, pred rel.Predicate) (int, error) {
	db, err := f.db(system)
	if err != nil {
		return 0, err
	}
	return db.MustTable(table).Delete(pred)
}

func (f *fakeExternal) Update(_ context.Context, system, table string, pred rel.Predicate, set map[string]rel.Value) (int, error) {
	db, err := f.db(system)
	if err != nil {
		return 0, err
	}
	t := db.MustTable(table)
	return t.Update(pred, func(r rel.Row) rel.Row {
		for col, val := range set {
			r[t.Schema().MustOrdinal(col)] = val
		}
		return r
	})
}

func (f *fakeExternal) Call(_ context.Context, system, proc string, args ...rel.Value) (*rel.Relation, error) {
	f.mu.Lock()
	f.calls = append(f.calls, system+"."+proc)
	f.mu.Unlock()
	db, err := f.db(system)
	if err != nil {
		return nil, err
	}
	return db.Call(proc, args...)
}

func (f *fakeExternal) Send(_ context.Context, system string, doc *x.Node) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.sent = append(f.sent, doc)
	return nil
}

// costLog records costs per category for assertions.
type costLog struct {
	mu   sync.Mutex
	durs map[Cost]time.Duration
	n    map[Cost]int
}

func newCostLog() *costLog {
	return &costLog{durs: map[Cost]time.Duration{}, n: map[Cost]int{}}
}

func (c *costLog) Record(cat Cost, d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.durs[cat] += d
	c.n[cat]++
}

func kvSchema() *rel.Schema {
	return rel.MustSchema([]rel.Column{
		rel.Col("K", rel.TypeInt), rel.Col("V", rel.TypeString),
	}, "K")
}

func setupFake() *fakeExternal {
	ext := newFakeExternal()
	db := rel.NewDatabase("sys1")
	db.MustCreateTable("T", kvSchema())
	_ = db.MustTable("T").Insert(rel.Row{rel.NewInt(1), rel.NewString("a")})
	_ = db.MustTable("T").Insert(rel.Row{rel.NewInt(2), rel.NewString("b")})
	ext.dbs["sys1"] = db
	return ext
}

func TestReceiveBindsInput(t *testing.T) {
	ctx := NewContext(nil, XMLMessage(x.New("M")), nil)
	if err := (Receive{To: "msg1"}).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if ctx.Get("msg1") == nil {
		t.Fatal("input not bound")
	}
	// Without input, RECEIVE fails.
	ctx2 := NewContext(nil, nil, nil)
	if err := (Receive{To: "msg1"}).Execute(ctx2); err == nil {
		t.Fatal("RECEIVE without input accepted")
	}
}

func TestAssign(t *testing.T) {
	ctx := NewContext(nil, nil, nil)
	op := Assign{To: "msg1", Fn: func(*Context) (*Message, error) {
		return XMLMessage(x.NewText("N", "42")), nil
	}}
	if err := op.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	doc, err := ctx.Doc("msg1")
	if err != nil || doc.Text != "42" {
		t.Fatalf("assign: %v %v", doc, err)
	}
	bad := Assign{To: "m", Fn: func(*Context) (*Message, error) { return nil, errors.New("x") }}
	if err := bad.Execute(ctx); err == nil {
		t.Fatal("assign error swallowed")
	}
}

func TestInvokeQueryInsertUpsertDelete(t *testing.T) {
	ext := setupFake()
	ctx := NewContext(ext, nil, nil)

	if err := (Invoke{Service: "sys1", Operation: OpQuery, Table: "T", Out: "msg1"}).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	r, err := ctx.Data("msg1")
	if err != nil || r.Len() != 2 {
		t.Fatalf("query: %v %v", r, err)
	}

	// Filtered query.
	if err := (Invoke{Service: "sys1", Operation: OpQuery, Table: "T", Out: "msg2",
		Pred: rel.ColEq("K", rel.NewInt(1))}).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	r, _ = ctx.Data("msg2")
	if r.Len() != 1 {
		t.Fatalf("filtered query: %d", r.Len())
	}

	// Insert.
	ctx.Set("new", DataMessage(rel.MustRelation(kvSchema(), []rel.Row{
		{rel.NewInt(3), rel.NewString("c")},
	})))
	if err := (Invoke{Service: "sys1", Operation: OpInsert, Table: "T", In: "new"}).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if ext.dbs["sys1"].MustTable("T").Len() != 3 {
		t.Fatal("insert failed")
	}

	// Upsert replaces.
	ctx.Set("up", DataMessage(rel.MustRelation(kvSchema(), []rel.Row{
		{rel.NewInt(3), rel.NewString("c2")},
	})))
	if err := (Invoke{Service: "sys1", Operation: OpUpsert, Table: "T", In: "up"}).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if got := ext.dbs["sys1"].MustTable("T").Lookup(rel.NewInt(3)); got[1].Str() != "c2" {
		t.Fatalf("upsert: %v", got)
	}

	// Delete.
	if err := (Invoke{Service: "sys1", Operation: OpDelete, Table: "T",
		Pred: rel.ColEq("K", rel.NewInt(3))}).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if ext.dbs["sys1"].MustTable("T").Len() != 2 {
		t.Fatal("delete failed")
	}
}

func TestInvokeFetchXMLAndConverts(t *testing.T) {
	ext := setupFake()
	ctx := NewContext(ext, nil, nil)
	if err := (Invoke{Service: "sys1", Operation: OpFetchXML, Table: "T", Out: "xml"}).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	doc, err := ctx.Doc("xml")
	if err != nil || doc.Name != "ResultSet" {
		t.Fatalf("fetchxml: %v %v", doc, err)
	}
	if err := (ToData{In: "xml", Out: "data"}).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	r, _ := ctx.Data("data")
	if r.Len() != 2 {
		t.Fatalf("ToData: %d rows", r.Len())
	}
	if err := (ToXML{In: "data", Out: "xml2", Name: "T"}).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	doc2, _ := ctx.Doc("xml2")
	if doc2.Attr("name") != "T" {
		t.Fatal("ToXML name")
	}
}

func TestInvokeCallAndSend(t *testing.T) {
	ext := setupFake()
	ext.dbs["sys1"].RegisterProcedure("sp_x", func(_ *rel.Database, args []rel.Value) (*rel.Relation, error) {
		s := rel.MustSchema([]rel.Column{rel.Col("A", rel.TypeInt)})
		return rel.NewRelation(s, []rel.Row{{args[0]}})
	})
	ctx := NewContext(ext, nil, nil)
	op := Invoke{Service: "sys1", Operation: OpCall, Table: "sp_x", Out: "res",
		Args: []rel.Value{rel.NewInt(9)}}
	if err := op.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	r, _ := ctx.Data("res")
	if r.Get(0, "A").Int() != 9 {
		t.Fatal("call result")
	}
	if len(ext.calls) != 1 || ext.calls[0] != "sys1.sp_x" {
		t.Fatalf("calls: %v", ext.calls)
	}

	ctx.Set("doc", XMLMessage(x.New("Msg")))
	if err := (Invoke{Service: "anything", Operation: OpSend, In: "doc"}).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if len(ext.sent) != 1 {
		t.Fatal("send")
	}
}

func TestInvokeErrors(t *testing.T) {
	ext := setupFake()
	ctx := NewContext(ext, nil, nil)
	if err := (Invoke{Service: "missing", Operation: OpQuery, Table: "T", Out: "o"}).Execute(ctx); err == nil {
		t.Error("missing system")
	}
	if err := (Invoke{Service: "sys1", Operation: "bogus"}).Execute(ctx); err == nil {
		t.Error("bogus operation")
	}
	if err := (Invoke{Service: "sys1", Operation: OpInsert, Table: "T", In: "unbound"}).Execute(ctx); err == nil {
		t.Error("unbound input")
	}
	noExt := NewContext(nil, nil, nil)
	if err := (Invoke{Service: "sys1", Operation: OpQuery, Table: "T", Out: "o"}).Execute(noExt); err == nil {
		t.Error("nil gateway")
	}
}

func TestTranslateOperator(t *testing.T) {
	sheet := stx.MustNew("t", stx.ActCopy,
		stx.Rule{Pattern: "A", Action: stx.ActRename, NewName: "B"})
	ctx := NewContext(nil, nil, nil)
	ctx.Set("in", XMLMessage(x.New("A")))
	if err := (Translate{In: "in", Out: "out", Sheet: sheet}).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	doc, _ := ctx.Doc("out")
	if doc.Name != "B" {
		t.Fatalf("translate: %s", doc.Name)
	}
	// Translating a dataset variable fails with a clear error.
	ctx.Set("data", DataMessage(rel.Empty(kvSchema())))
	if err := (Translate{In: "data", Out: "o", Sheet: sheet}).Execute(ctx); err == nil {
		t.Fatal("dataset accepted by XML translate")
	}
}

// TestSerializedXMLStaysBytes follows a serialized document through
// TRANSLATE and CONVERT: it stays bytes, reads as the tree path's
// document, and a document the stylesheet drops is no document.
func TestSerializedXMLStaysBytes(t *testing.T) {
	sheet := stx.MustNew("t", stx.ActCopy,
		stx.Rule{Pattern: "Column", Action: stx.ActCopy,
			AttrValueMap: map[string]map[string]string{"name": {"K": "Key"}}})
	r := rel.MustRelation(kvSchema(), []rel.Row{{rel.NewInt(1), rel.NewString("a")}})
	ctx := NewContext(nil, nil, nil)
	raw := RawXMLMessage(x.AppendResultSet(nil, "T", r))
	ctx.Set("raw", raw)
	if err := (Translate{In: "raw", Out: "xlat", Sheet: sheet}).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	xlat := ctx.Get("xlat")
	if xlat.Doc != nil || !xlat.IsXML() {
		t.Fatal("serialized input translated to a tree")
	}
	doc, err := ctx.Doc("xlat")
	if err != nil || doc.Path("Metadata/Column").Attr("name") != "Key" {
		t.Fatalf("translated document: %v %v", doc, err)
	}
	if xlat.Doc != nil || raw.Doc != nil {
		t.Fatal("Doc stored its parse in the shared message")
	}
	if err := (ToData{In: "xlat", Out: "data"}).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if got, _ := ctx.Data("data"); got.Schema().Columns[0].Name != "Key" || got.Len() != 1 {
		t.Fatalf("converted: %v", got)
	}
	drop := stx.MustNew("drop", stx.ActDrop)
	if err := (Translate{In: "raw", Out: "none", Sheet: drop}).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.Doc("none"); err == nil {
		t.Fatal("dropped document reads as a document")
	}
	ctx.Set("bad", RawXMLMessage([]byte("<ResultSet>")))
	if err := (Translate{In: "bad", Out: "o", Sheet: sheet}).Execute(ctx); err == nil {
		t.Fatal("malformed document translated")
	}
	if err := (ToData{In: "bad", Out: "o"}).Execute(ctx); err == nil {
		t.Fatal("malformed document converted")
	}
}

func TestDataOperators(t *testing.T) {
	ctx := NewContext(nil, nil, nil)
	r := rel.MustRelation(kvSchema(), []rel.Row{
		{rel.NewInt(1), rel.NewString("a")},
		{rel.NewInt(2), rel.NewString("b")},
		{rel.NewInt(3), rel.NewString("a")},
	})
	ctx.Set("r", DataMessage(r))

	if err := (Selection{In: "r", Out: "sel", Pred: rel.ColEq("V", rel.NewString("a"))}).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	sel, _ := ctx.Data("sel")
	if sel.Len() != 2 {
		t.Fatalf("selection: %d", sel.Len())
	}

	if err := (Projection{In: "r", Out: "proj", Cols: []string{"V"}}).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	proj, _ := ctx.Data("proj")
	if len(proj.Schema().Columns) != 1 {
		t.Fatal("projection")
	}

	if err := (RenameData{In: "r", Out: "ren", Mapping: map[string]string{"K": "Key"}}).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	ren, _ := ctx.Data("ren")
	if ren.Schema().Ordinal("Key") < 0 {
		t.Fatal("rename")
	}

	ctx.Set("r2", DataMessage(rel.MustRelation(kvSchema(), []rel.Row{
		{rel.NewInt(3), rel.NewString("dup")},
		{rel.NewInt(4), rel.NewString("d")},
	})))
	if err := (UnionDistinct{Ins: []string{"r", "r2"}, Out: "u", KeyCols: []string{"K"}}).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	u, _ := ctx.Data("u")
	if u.Len() != 4 {
		t.Fatalf("union distinct: %d", u.Len())
	}

	ctx.Set("names", DataMessage(rel.MustRelation(rel.MustSchema([]rel.Column{
		rel.Col("K", rel.TypeInt), rel.Col("Label", rel.TypeString),
	}), []rel.Row{{rel.NewInt(1), rel.NewString("one")}})))
	if err := (Join{Left: "r", Right: "names", Out: "j", LeftCol: "K", RightCol: "K",
		ClashPrefix: "n_"}).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	j, _ := ctx.Data("j")
	if j.Len() != 1 || j.Get(0, "Label").Str() != "one" {
		t.Fatalf("join: %v", j)
	}
}

func TestUnionDistinctNoInputs(t *testing.T) {
	ctx := NewContext(nil, nil, nil)
	if err := (UnionDistinct{Out: "u"}).Execute(ctx); err == nil {
		t.Fatal("empty union accepted")
	}
}

func TestSwitchBranching(t *testing.T) {
	var ran []string
	mark := func(name string) Operator {
		return Custom{Name: name, Cat: CostProc, Fn: func(*Context) error {
			ran = append(ran, name)
			return nil
		}}
	}
	sw := Switch{
		Cases: []SwitchCase{
			{When: func(*Context) (bool, error) { return false, nil }, Ops: []Operator{mark("first")}},
			{When: func(*Context) (bool, error) { return true, nil }, Ops: []Operator{mark("second")}},
		},
		Else: []Operator{mark("else")},
	}
	ctx := NewContext(nil, nil, nil)
	if err := sw.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if len(ran) != 1 || ran[0] != "second" {
		t.Fatalf("switch ran: %v", ran)
	}
	// No case matches -> else.
	ran = nil
	sw.Cases[1].When = func(*Context) (bool, error) { return false, nil }
	_ = sw.Execute(ctx)
	if len(ran) != 1 || ran[0] != "else" {
		t.Fatalf("switch else: %v", ran)
	}
	// Condition error propagates.
	sw.Cases[0].When = func(*Context) (bool, error) { return false, errors.New("cond") }
	if err := sw.Execute(ctx); err == nil {
		t.Fatal("condition error swallowed")
	}
}

func TestValidateBranching(t *testing.T) {
	xsd := x.NewSchema("S", x.Elem("Root", x.Leaf("N", x.DTInt)))
	var path string
	valid := []Operator{Custom{Name: "ok", Cat: CostProc, Fn: func(*Context) error {
		path = "valid"
		return nil
	}}}
	invalid := []Operator{Custom{Name: "bad", Cat: CostProc, Fn: func(*Context) error {
		path = "invalid"
		return nil
	}}}

	ctx := NewContext(nil, nil, nil)
	ctx.Set("m", XMLMessage(x.New("Root", x.NewText("N", "1"))))
	v := Validate{In: "m", Schema: xsd, Valid: valid, Invalid: invalid, ErrorsTo: "errs"}
	if err := v.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if path != "valid" {
		t.Fatalf("path: %s", path)
	}
	if ctx.Get("errs") != nil {
		t.Fatal("errors bound for valid doc")
	}

	ctx.Set("m", XMLMessage(x.New("Root", x.NewText("N", "oops"))))
	if err := v.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if path != "invalid" {
		t.Fatalf("path: %s", path)
	}
	report, err := ctx.Doc("errs")
	if err != nil || len(report.Children) == 0 {
		t.Fatalf("error report: %v %v", report, err)
	}
}

func TestForkRunsAllBranchesConcurrently(t *testing.T) {
	var mu sync.Mutex
	var order []int
	started := make(chan struct{}, 3)
	proceed := make(chan struct{})
	branch := func(i int) []Operator {
		return []Operator{Custom{Cat: CostProc, Fn: func(*Context) error {
			started <- struct{}{}
			<-proceed
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			return nil
		}}}
	}
	f := Fork{Branches: [][]Operator{branch(0), branch(1), branch(2)}}
	done := make(chan error, 1)
	go func() { done <- f.Execute(NewContext(nil, nil, nil)) }()
	// All three must start before any finishes -> true concurrency.
	for i := 0; i < 3; i++ {
		select {
		case <-started:
		case <-time.After(2 * time.Second):
			t.Fatal("branches not concurrent")
		}
	}
	close(proceed)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 {
		t.Fatalf("order: %v", order)
	}
}

func TestForkPropagatesErrors(t *testing.T) {
	f := Fork{Branches: [][]Operator{
		{Custom{Cat: CostProc, Fn: func(*Context) error { return nil }}},
		{Custom{Cat: CostProc, Fn: func(*Context) error { return errors.New("branch fail") }}},
	}}
	if err := f.Execute(NewContext(nil, nil, nil)); err == nil {
		t.Fatal("fork error swallowed")
	}
}

func TestRunRecordsCostsByCategory(t *testing.T) {
	ext := setupFake()
	log := newCostLog()
	p := &Process{
		ID: "PT", Name: "test", Group: GroupA, Event: E2,
		Ops: []Operator{
			Invoke{Service: "sys1", Operation: OpQuery, Table: "T", Out: "r"},
			Projection{In: "r", Out: "p", Cols: []string{"K"}},
		},
	}
	ctx := NewContext(ext, nil, log)
	if err := Run(p, ctx); err != nil {
		t.Fatal(err)
	}
	if log.n[CostComm] != 1 {
		t.Errorf("Cc records: %d", log.n[CostComm])
	}
	if log.n[CostProc] != 1 {
		t.Errorf("Cp records: %d", log.n[CostProc])
	}
}

func TestRunCompositeDoesNotDoubleCount(t *testing.T) {
	log := newCostLog()
	inner := Custom{Cat: CostProc, Fn: func(*Context) error {
		time.Sleep(2 * time.Millisecond)
		return nil
	}}
	p := &Process{
		ID: "PT", Event: E2,
		Ops: []Operator{Switch{
			Cases: []SwitchCase{{
				When: func(*Context) (bool, error) { return true, nil },
				Ops:  []Operator{inner},
			}},
		}},
	}
	if err := Run(p, NewContext(nil, nil, log)); err != nil {
		t.Fatal(err)
	}
	// One leaf record only; the SWITCH shell adds nothing.
	if log.n[CostProc] != 1 {
		t.Errorf("Cp records: %d, want 1", log.n[CostProc])
	}
	if log.durs[CostProc] < 2*time.Millisecond {
		t.Errorf("inner time lost: %v", log.durs[CostProc])
	}
}

func TestProcessValidate(t *testing.T) {
	ok := &Process{ID: "P", Event: E2, Ops: []Operator{
		Assign{To: "m", Fn: func(*Context) (*Message, error) { return &Message{}, nil }},
	}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid process rejected: %v", err)
	}
	bad := []*Process{
		{Event: E2, Ops: []Operator{Receive{To: "m"}}}, // no ID
		{ID: "P", Ops: []Operator{Receive{To: "m"}}},   // no event type
		{ID: "P", Event: E2},                           // no operators
		{ID: "P", Event: E1, Ops: []Operator{Assign{To: "m", Fn: func(*Context) (*Message, error) { return nil, nil }}}}, // E1 without RECEIVE
		{ID: "P", Event: E2, Ops: []Operator{Assign{To: "m"}}},                                                           // ASSIGN without fn
		{ID: "P", Event: E2, Ops: []Operator{Custom{}}},                                                                  // CUSTOM without fn
		{ID: "P", Event: E2, Ops: []Operator{Subprocess{}}},                                                              // subprocess without target
		{ID: "P", Event: E2, Ops: []Operator{nil}},                                                                       // nil operator
		{ID: "P", Event: E2, Ops: []Operator{Switch{Cases: []SwitchCase{{}}}}},                                           // case without condition
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad process %d accepted", i)
		}
	}
}

func TestSubprocessAndOperatorCount(t *testing.T) {
	child := &Process{ID: "C", Event: E2, Ops: []Operator{
		Custom{Cat: CostProc, Fn: func(ctx *Context) error {
			ctx.Set("fromChild", XMLMessage(x.New("X")))
			return nil
		}},
	}}
	parent := &Process{ID: "P", Event: E2, Ops: []Operator{
		Subprocess{Process: child},
		Fork{Branches: [][]Operator{
			{Custom{Cat: CostProc, Fn: func(*Context) error { return nil }}},
			{Custom{Cat: CostProc, Fn: func(*Context) error { return nil }}},
		}},
	}}
	if err := parent.Validate(); err != nil {
		t.Fatal(err)
	}
	ctx := NewContext(nil, nil, nil)
	if err := Run(parent, ctx); err != nil {
		t.Fatal(err)
	}
	if ctx.Get("fromChild") == nil {
		t.Fatal("subprocess shares context")
	}
	// parent: subprocess(1) + child custom(1) + fork(1) + 2 branch ops = 5
	if got := parent.OperatorCount(); got != 5 {
		t.Errorf("OperatorCount = %d, want 5", got)
	}
}

func TestRunWrapsErrorsWithProcessID(t *testing.T) {
	p := &Process{ID: "P42", Event: E2, Ops: []Operator{
		Custom{Cat: CostProc, Fn: func(*Context) error { return errors.New("inner") }},
	}}
	err := Run(p, NewContext(nil, nil, nil))
	if err == nil || err.Error() != "P42: inner" {
		t.Fatalf("error wrapping: %v", err)
	}
}

func TestMessageHelpers(t *testing.T) {
	var nilMsg *Message
	if nilMsg.IsXML() || nilMsg.IsData() {
		t.Error("nil message helpers")
	}
	m := XMLMessage(x.New("A", x.New("B")))
	if !m.IsXML() || m.IsData() {
		t.Errorf("xml message: %v", m)
	}
	d := DataMessage(rel.MustRelation(kvSchema(), []rel.Row{{rel.NewInt(1), rel.NewString("x")}}))
	if !d.IsData() {
		t.Error("data message")
	}
	if _, err := m.RequireData("v"); err == nil {
		t.Error("RequireData on xml")
	}
	if _, err := d.RequireDoc("v"); err == nil {
		t.Error("RequireDoc on data")
	}
}

func TestEventTypeAndGroupStrings(t *testing.T) {
	if E1.String() != "E1" || E2.String() != "E2" || EventType(9).String() != "?" {
		t.Error("EventType.String")
	}
	if CostComm.String() != "Cc" || CostMgmt.String() != "Cm" || CostProc.String() != "Cp" {
		t.Error("Cost.String")
	}
}

package engine

import (
	"strconv"
	"testing"

	"repro/internal/datagen"
	"repro/internal/monitor"
	"repro/internal/processes"
	rel "repro/internal/relational"
	"repro/internal/scenario"
	"repro/internal/schema"
)

type fixture struct {
	s   *scenario.Scenario
	g   *datagen.Generator
	mon *monitor.Monitor
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	s, err := scenario.New(scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	g := datagen.MustNew(datagen.Config{Seed: 11, Datasize: 0.01, Dist: datagen.Uniform})
	if err := s.InitializeSources(g); err != nil {
		t.Fatal(err)
	}
	return &fixture{s: s, g: g, mon: monitor.New(1)}
}

func (f *fixture) federated(t *testing.T) *Engine {
	t.Helper()
	e, err := NewFederated(processes.MustNew(), f.s.Gateway(), f.mon)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func (f *fixture) pipeline(t *testing.T) *Engine {
	t.Helper()
	e, err := NewPipeline(processes.MustNew(), f.s.Gateway(), f.mon)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewValidation(t *testing.T) {
	f := newFixture(t)
	if _, err := New("x", Options{}, nil, f.s.Gateway(), f.mon); err == nil {
		t.Error("nil defs accepted")
	}
	if _, err := New("x", Options{}, processes.MustNew(), nil, f.mon); err == nil {
		t.Error("nil gateway accepted")
	}
	// nil monitor is tolerated (costs discarded).
	if _, err := New("x", Options{}, processes.MustNew(), f.s.Gateway(), nil); err != nil {
		t.Errorf("nil monitor rejected: %v", err)
	}
}

func TestFederatedE1QueueTrigger(t *testing.T) {
	// Fig. 9 a): the E1 message goes through the queue table; the insert
	// trigger runs the process.
	f := newFixture(t)
	e := f.federated(t)
	msg := f.g.HongkongOrder(0)
	if err := e.Execute("P08", msg.AppendXML(nil), 0); err != nil {
		t.Fatal(err)
	}
	// The message is queued...
	if e.QueueDepth() != 1 {
		t.Errorf("queue depth: %d", e.QueueDepth())
	}
	// ...and the process ran: the order reached the CDB.
	key, _ := strconv.ParseInt(msg.PathText("OrdNo"), 10, 64)
	if f.s.DB(schema.SysCDB).MustTable("Orders").Lookup(rel.NewInt(key)) == nil {
		t.Fatal("trigger did not run the process")
	}
	e.ResetQueues()
	if e.QueueDepth() != 0 {
		t.Error("queues not reset")
	}
}

func TestFederatedE2Procedure(t *testing.T) {
	// Fig. 9 b): time events execute directly (stored-procedure style).
	f := newFixture(t)
	e := f.federated(t)
	if err := e.Execute("P03", nil, 0); err != nil {
		t.Fatal(err)
	}
	if f.s.DB(schema.SysUSEastcoast).MustTable("Orders").Len() == 0 {
		t.Fatal("E2 process had no effect")
	}
}

func TestExecuteArgumentValidation(t *testing.T) {
	f := newFixture(t)
	e := f.pipeline(t)
	if err := e.Execute("P99", nil, 0); err == nil {
		t.Error("unknown process accepted")
	}
	if err := e.Execute("P08", nil, 0); err == nil {
		t.Error("E1 without message accepted")
	}
	if err := e.Execute("P03", f.g.AppendHongkongOrder(nil, 0), 0); err == nil {
		t.Error("E2 with message accepted")
	}
}

func TestMonitorReceivesRecordsWithCategories(t *testing.T) {
	f := newFixture(t)
	e := f.federated(t)
	if err := e.Execute("P03", nil, 2); err != nil {
		t.Fatal(err)
	}
	recs := f.mon.Records()
	if len(recs) != 1 {
		t.Fatalf("records: %d", len(recs))
	}
	r := recs[0]
	if r.Process != "P03" || r.Period != 2 {
		t.Errorf("record meta: %+v", r)
	}
	if r.Cc == 0 {
		t.Error("no communication cost recorded for a process full of INVOKEs")
	}
	if r.Cp == 0 {
		t.Error("no processing cost recorded despite UNION DISTINCT")
	}
	if r.Cm == 0 {
		t.Error("no management cost recorded despite plan compilation")
	}
}

func TestPlanCacheBehaviour(t *testing.T) {
	f := newFixture(t)
	fed := f.federated(t)
	pipe := f.pipeline(t)
	// Federated: every instance recompiles.
	for i := 0; i < 3; i++ {
		if err := fed.Execute("P12", nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	_, fedBuilds := fed.Stats()
	if fedBuilds != 3 {
		t.Errorf("federated plan builds: %d, want 3", fedBuilds)
	}
	// Pipeline: compiled once.
	for i := 0; i < 3; i++ {
		if err := pipe.Execute("P12", nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	_, pipeBuilds := pipe.Stats()
	if pipeBuilds != 1 {
		t.Errorf("pipeline plan builds: %d, want 1", pipeBuilds)
	}
}

func TestBothEnginesProduceIdenticalResults(t *testing.T) {
	// The two engines must be functionally equivalent: same CDB contents
	// after the same work.
	runAll := func(t *testing.T, makeEngine func(*fixture, *testing.T) *Engine) (int, int, int) {
		f := newFixture(t)
		e := makeEngine(f, t)
		for _, id := range []string{"P03", "P05", "P06", "P07", "P09", "P11"} {
			if err := e.Execute(id, nil, 0); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 5; i++ {
			if err := e.Execute("P04", f.g.AppendViennaOrder(nil, i), 0); err != nil {
				t.Fatal(err)
			}
		}
		cdb := f.s.DB(schema.SysCDB)
		return cdb.MustTable("Customer").Len(), cdb.MustTable("Orders").Len(),
			cdb.MustTable("Orderline").Len()
	}
	fc, fo, fl := runAll(t, func(f *fixture, t *testing.T) *Engine { return f.federated(t) })
	pc, po, pl := runAll(t, func(f *fixture, t *testing.T) *Engine { return f.pipeline(t) })
	if fc != pc || fo != po || fl != pl {
		t.Errorf("engines diverge: federated (%d,%d,%d) vs pipeline (%d,%d,%d)",
			fc, fo, fl, pc, po, pl)
	}
}

func TestMaterializationPreservesSemantics(t *testing.T) {
	f := newFixture(t)
	// Same options as federated but with direct dispatch, isolating the
	// materialization wrapper.
	e, err := New("mat-only", Options{Materialize: true}, processes.MustNew(), f.s.Gateway(), f.mon)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Execute("P03", nil, 0); err != nil {
		t.Fatal(err)
	}
	us := f.s.DB(schema.SysUSEastcoast)
	uniq := map[int64]bool{}
	for _, src := range []string{schema.SysChicago, schema.SysBaltimore, schema.SysMadison} {
		for _, k := range f.g.CustomerKeys(src) {
			uniq[k] = true
		}
	}
	if us.MustTable("Customer").Len() != len(uniq) {
		t.Errorf("materialized run wrong result: %d vs %d", us.MustTable("Customer").Len(), len(uniq))
	}
}

func TestQueueSurvivesQuotesInPayload(t *testing.T) {
	// Messages with apostrophes must survive the SQL queue insert.
	f := newFixture(t)
	e := f.federated(t)
	msg := f.g.MDMCustomer(0)
	msg.Child("Customer").Child("Name").Text = "O'Brien & Söhne"
	if err := e.Execute("P02", msg.AppendXML(nil), 0); err != nil {
		t.Fatal(err)
	}
	key, _ := strconv.ParseInt(msg.Child("Customer").Attr("custkey"), 10, 64)
	sys := schema.SysBerlinParis
	if key >= 1_000_000 {
		sys = schema.SysTrondheim
	}
	row := f.s.DB(sys).MustTable("Customer").Lookup(rel.NewInt(key))
	if row == nil || row[1].Str() != "O'Brien & Söhne" {
		t.Fatalf("payload mangled: %v", row)
	}
}

func TestE1FailureRecordedAsFailedInstance(t *testing.T) {
	f := newFixture(t)
	e := f.federated(t)
	// A San Diego message that fails validation is NOT a process failure —
	// P10 handles it. But a Vienna message with garbage must fail.
	msg := f.g.ViennaOrder(0)
	msg.Child("Head").Child("CustRef").Text = "garbage"
	if err := e.Execute("P04", msg.AppendXML(nil), 0); err == nil {
		t.Fatal("broken message accepted")
	}
	recs := f.mon.Records()
	if len(recs) != 1 || recs[0].Err == nil {
		t.Fatalf("failure not recorded: %+v", recs)
	}
}

func TestP10BrokenMessageIsHandledNotFailed(t *testing.T) {
	f := newFixture(t)
	e := f.federated(t)
	var broken bool
	for i := 0; i < 40; i++ {
		m, b := f.g.AppendSanDiegoOrder(nil, i)
		if b {
			broken = true
		}
		if err := e.Execute("P10", m, 0); err != nil {
			t.Fatalf("P10 message %d: %v", i, err)
		}
	}
	if !broken {
		t.Fatal("no broken message in sample")
	}
	for _, r := range f.mon.Records() {
		if r.Err != nil {
			t.Fatal("P10 instance recorded as failed")
		}
	}
	if f.s.DB(schema.SysCDB).MustTable("FailedMessages").Len() == 0 {
		t.Fatal("failed data destination empty")
	}
}

func TestEngineNamesAndOptions(t *testing.T) {
	f := newFixture(t)
	fed := f.federated(t)
	pipe := f.pipeline(t)
	if fed.Name() == pipe.Name() {
		t.Error("engines should have distinct names")
	}
	if !fed.Options().QueueTrigger || !fed.Options().Materialize || fed.Options().PlanCache {
		t.Errorf("federated options: %+v", fed.Options())
	}
	if pipe.Options().QueueTrigger || pipe.Options().Materialize || !pipe.Options().PlanCache {
		t.Errorf("pipeline options: %+v", pipe.Options())
	}
	if fed.Monitor() != f.mon {
		t.Error("monitor accessor")
	}
	inst, _ := fed.Stats()
	_ = inst
}

func TestConcurrentE1Submissions(t *testing.T) {
	f := newFixture(t)
	e := f.federated(t)
	done := make(chan error, 10)
	for i := 0; i < 10; i++ {
		go func(i int) {
			done <- e.Execute("P08", f.g.AppendHongkongOrder(nil, i), 0)
		}(i)
	}
	for i := 0; i < 10; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	// All ten orders landed despite concurrent queue inserts.
	got := 0
	cdb := f.s.DB(schema.SysCDB).MustTable("Orders").Scan()
	for i := 0; i < cdb.Len(); i++ {
		if cdb.Get(i, "SrcSystem").Str() == schema.SysHongkong {
			got++
		}
	}
	if got != 10 {
		t.Errorf("concurrent messages: %d/10 arrived", got)
	}
}

package processes

import (
	"context"
	"testing"

	"repro/internal/datagen"
	"repro/internal/mtm"
	rel "repro/internal/relational"
	"repro/internal/schema"
)

// stubExternal answers every call without work, so an allocation count
// of an instance is the process's own: RECEIVE, VALIDATE, TRANSLATE and
// the scanners that turn a message into rows.
type stubExternal struct{ customer *rel.Relation }

func (s stubExternal) Query(context.Context, string, string, rel.Predicate) (*rel.Relation, error) {
	return s.customer, nil
}
func (stubExternal) FetchXML(context.Context, string, string) ([]byte, error) { return nil, nil }
func (stubExternal) Insert(context.Context, string, string, *rel.Relation) error {
	return nil
}
func (stubExternal) Upsert(context.Context, string, string, *rel.Relation) error {
	return nil
}
func (stubExternal) Delete(context.Context, string, string, rel.Predicate) (int, error) {
	return 0, nil
}
func (stubExternal) Update(context.Context, string, string, rel.Predicate, map[string]rel.Value) (int, error) {
	return 0, nil
}
func (stubExternal) Call(context.Context, string, string, ...rel.Value) (*rel.Relation, error) {
	return nil, nil
}
func (stubExternal) Send(context.Context, string, []byte) error { return nil }

// raceEnabled is set by race_test.go under the race detector.
var raceEnabled bool

// TestE1ProcessAllocBudget holds one instance of each message-triggered
// process type, fed the bytes the driver sends, to an allocation budget.
// A DOM tree of the message costs two or more allocations per element
// (a Vienna order at d=1 has 30 to 60), so a budget below that fails as
// soon as a step parses the message into a tree.
func TestE1ProcessAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are stated for builds without the race detector")
	}
	g := datagen.MustNew(datagen.Config{Seed: 42, Datasize: 1, Dist: datagen.Uniform})
	customer := rel.MustRelation(schema.EuropeCustomer, []rel.Row{{
		rel.NewInt(1), rel.NewString("Ada"), rel.NewString("Street 1"), rel.NewInt(1),
		rel.NewInt(schema.CityByName(schema.LocBerlin).Key), rel.NewString("1"), rel.NewString(schema.LocBerlin),
	}})
	defs := MustNew()
	valid := func(i int) []byte {
		for ; ; i++ {
			if b, broken := g.AppendSanDiegoOrder(nil, i); !broken {
				return b
			}
		}
	}
	cases := []struct {
		id     string
		msg    func(i int) []byte
		budget float64
	}{
		{"P01", func(i int) []byte { return g.AppendBeijingCustomerMsg(nil, i) }, 11},
		{"P02", func(i int) []byte { return g.AppendMDMCustomer(nil, i) }, 20},
		{"P04", func(i int) []byte { return g.AppendViennaOrder(nil, i) }, 30},
		{"P08", func(i int) []byte { return g.AppendHongkongOrder(nil, i) }, 30},
		{"P10", valid, 30},
	}
	for _, c := range cases {
		msgs := make([][]byte, 64)
		for i := range msgs {
			msgs[i] = c.msg(i * 7)
		}
		p := defs.ByID(c.id)
		i := 0
		var err error
		n := testing.AllocsPerRun(200, func() {
			ctx := mtm.NewContext(stubExternal{customer}, mtm.RawXMLMessage(msgs[i%len(msgs)]), nil)
			if e := mtm.Run(p, ctx); e != nil {
				err = e
			}
			i++
		})
		if err != nil {
			t.Fatalf("%s: %v", c.id, err)
		}
		t.Logf("%s: %.1f allocations per instance", c.id, n)
		if n > c.budget {
			t.Errorf("%s: %.1f allocations per instance, budget %.0f", c.id, n, c.budget)
		}
	}
}

// TestUSCityKeyAllocFree: the city assignment of every TPC-H and San
// Diego customer reads the American cities from a slice computed once.
func TestUSCityKeyAllocFree(t *testing.T) {
	key := int64(4_000_001)
	if n := testing.AllocsPerRun(1000, func() { _ = USCityKey(key); key++ }); n != 0 {
		t.Fatalf("USCityKey: %.1f allocations per call, want 0", n)
	}
}

package datagen

import (
	"bytes"
	"strconv"
	"testing"

	"repro/internal/schema"
	x "repro/internal/xmlmsg"
)

func TestViennaOrderValidAndDeterministic(t *testing.T) {
	g := testGen(t)
	m1 := g.ViennaOrder(3)
	m2 := g.ViennaOrder(3)
	if !m1.Equal(m2) {
		t.Fatal("Vienna message not deterministic")
	}
	if errs := schema.XSDVienna.Validate(m1); len(errs) != 0 {
		t.Fatalf("Vienna message invalid: %v", errs)
	}
	// Customer reference resolvable in the Europe sources.
	ref, err := strconv.ParseInt(m1.PathText("Head/CustRef"), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !schema.CustKeys[schema.SysBerlinParis].Contains(ref) &&
		!schema.CustKeys[schema.SysTrondheim].Contains(ref) {
		t.Errorf("CustRef %d outside Europe ranges", ref)
	}
	// Order ids unique across i.
	if g.ViennaOrder(4).Attr("id") == m1.Attr("id") {
		t.Error("order ids collide")
	}
}

func TestMDMCustomerValidAndRoutable(t *testing.T) {
	g := testGen(t)
	sawBP, sawTr := false, false
	for i := 0; i < 50; i++ {
		m := g.MDMCustomer(i)
		if errs := schema.XSDMDM.Validate(m); len(errs) != 0 {
			t.Fatalf("MDM message %d invalid: %v", i, errs)
		}
		key, err := strconv.ParseInt(m.Child("Customer").Attr("custkey"), 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		if key < 1_000_000 {
			sawBP = true
		} else {
			sawTr = true
		}
		// MDM always sends clean names.
		if m.PathText("Customer/Name") == "" {
			t.Fatal("MDM message with empty name")
		}
	}
	if !sawBP || !sawTr {
		t.Errorf("switch routing not exercised: bp=%v tr=%v", sawBP, sawTr)
	}
}

func TestHongkongOrderValidAndDisjointFromDataset(t *testing.T) {
	g := testGen(t)
	m := g.HongkongOrder(0)
	if errs := schema.XSDHongkong.Validate(m); len(errs) != 0 {
		t.Fatalf("Hongkong message invalid: %v", errs)
	}
	key, _ := strconv.ParseInt(m.PathText("OrdNo"), 10, 64)
	// Message keys start above the extracted dataset keys.
	for _, dk := range g.OrderKeysFor(schema.SysHongkong) {
		if dk == key {
			t.Fatal("message order key collides with dataset order key")
		}
	}
}

func TestSanDiegoErrorInjection(t *testing.T) {
	g := MustNew(Config{Seed: 42, Datasize: 0.05})
	const n = 400
	bad := 0
	for i := 0; i < n; i++ {
		doc, broken := g.SanDiegoOrder(i)
		valid := schema.XSDSanDiego.Valid(doc)
		if broken {
			bad++
			if valid {
				t.Fatalf("message %d flagged broken but validates", i)
			}
		} else if !valid {
			t.Fatalf("message %d flagged clean but invalid: %v", i, schema.XSDSanDiego.Validate(doc))
		}
	}
	rate := float64(bad) / n
	if rate < SanDiegoErrorRate/2 || rate > SanDiegoErrorRate*2 {
		t.Errorf("error rate %.3f far from %.3f", rate, SanDiegoErrorRate)
	}
}

func TestSanDiegoDeterministic(t *testing.T) {
	g := testGen(t)
	a, ba := g.SanDiegoOrder(7)
	b, bb := g.SanDiegoOrder(7)
	if ba != bb || !a.Equal(b) {
		t.Fatal("San Diego message not deterministic")
	}
}

func TestBeijingCustomerMsgValid(t *testing.T) {
	g := testGen(t)
	m := g.BeijingCustomerMsg(2)
	if errs := schema.XSDBeijing.Validate(m); len(errs) != 0 {
		t.Fatalf("Beijing message invalid: %v", errs)
	}
	key, _ := strconv.ParseInt(m.PathText("Cust_ID"), 10, 64)
	if !schema.CustKeys[schema.SysBeijing].Contains(key) {
		t.Errorf("Beijing message key %d outside range", key)
	}
	if m.PathText("Cust_Name") == "" {
		t.Error("master data exchange should carry clean names")
	}
}

// e1Builders are the byte builders of the E1 message kinds.
func e1Builders(g *Generator) map[string]func(dst []byte, i int) []byte {
	return map[string]func([]byte, int) []byte{
		"P01": g.AppendBeijingCustomerMsg,
		"P02": g.AppendMDMCustomer,
		"P04": g.AppendViennaOrder,
		"P08": g.AppendHongkongOrder,
		"P10": func(dst []byte, i int) []byte {
			b, _ := g.AppendSanDiegoOrder(dst, i)
			return b
		},
	}
}

// TestE1ByteBuildersCanonical checks that every builder writes exactly
// what AppendXML writes for the parsed message, so the message-triggered
// path reads it in one pass, and that a builder appends to dst.
func TestE1ByteBuildersCanonical(t *testing.T) {
	for _, seed := range []uint64{42, 7} {
		g := MustNew(Config{Seed: seed, Datasize: 0.05, Dist: Skewed})
		for kind, build := range e1Builders(g) {
			for i := 0; i < 200; i++ {
				b := build(nil, i)
				doc, err := x.ParseBytes(b)
				if err != nil {
					t.Fatalf("%s %d: %v", kind, i, err)
				}
				if canon := doc.AppendXML(nil); !bytes.Equal(b, canon) {
					t.Fatalf("%s %d not canonical:\n%s\n%s", kind, i, b, canon)
				}
				if got := build([]byte("<>"), i); !bytes.Equal(got[2:], b) {
					t.Fatalf("%s %d: appended %q", kind, i, got)
				}
			}
		}
	}
}

// raceEnabled is set by race_test.go under the race detector.
var raceEnabled bool

// TestE1ByteBuildersAllocBudget holds each builder, writing into a
// reused buffer, to the entity it derives: the order lines of an order,
// or the one string that holds a customer's name, address and phone.
func TestE1ByteBuildersAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are stated for builds without the race detector")
	}
	g := MustNew(Config{Seed: 42, Datasize: 1, Dist: Uniform})
	budget := map[string]float64{"P01": 1, "P02": 1, "P04": 1, "P08": 1, "P10": 1}
	buf := make([]byte, 0, 8<<10)
	for kind, build := range e1Builders(g) {
		i := 0
		n := testing.AllocsPerRun(100, func() {
			buf = build(buf[:0], i)
			i++
		})
		if n > budget[kind] {
			t.Errorf("%s: %.1f allocations per message, budget %.0f", kind, n, budget[kind])
		}
	}
}

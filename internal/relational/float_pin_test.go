package relational

import (
	"encoding/hex"
	"math"
	"testing"
)

// Float edge cases pinned bit for bit: how they order, print, parse,
// hash and checkpoint. A change to how a Value stores its float payload
// must leave every line below as it is.

// floatEdge is one pinned float cell.
type floatEdge struct {
	name  string
	bits  uint64 // math.Float64bits of the cell
	str   string // Value.String
	parse uint64 // bits of ParseValue(TypeFloat, str)
	hash  uint64 // hashValue
}

// floatEdges are the pinned cells. The NaN carries a payload other than
// math.NaN()'s, which its text form does not keep.
var floatEdges = []floatEdge{
	{"-0", 1 << 63, "-0", 1 << 63, 0x0cd9acf54dc6ef65},
	{"+0", 0, "0", 0, 0x0cd92cf54dc615e5},
	{"NaN", 0x7ff800000000beef, "NaN", 0x7ff8000000000001, 0x29a2a4725a008f35},
	{"+Inf", 0x7ff0000000000000, "+Inf", 0x7ff0000000000000, 0x0de89df54eac5618},
	{"-Inf", 0xfff0000000000000, "-Inf", 0xfff0000000000000, 0x0de81df54eab7c98},
	{"MaxFloat64", 0x7fefffffffffffff, "1.7976931348623157e+308", 0x7fefffffffffffff, 0xaf5e30dfc54e656d},
	{"subnormal", 1, "5e-324", 1, 0xedde65ec42d6cbc4},
}

func (e floatEdge) value() Value { return NewFloat(math.Float64frombits(e.bits)) }

// floatEdgeCompare[i][j] is floatEdges[i].Compare(floatEdgeOthers()[j]):
// the edges in order, then NewInt(0), then NULL. NaN compares 0 with
// every number, so Equal holds between NaN and anything numeric.
var floatEdgeCompare = [][]int{
	//  -0  +0 NaN +Inf -Inf Max sub int0 NULL
	{0, 0, 0, -1, 1, -1, -1, 0, 1},    // -0
	{0, 0, 0, -1, 1, -1, -1, 0, 1},    // +0
	{0, 0, 0, 0, 0, 0, 0, 0, 1},       // NaN
	{1, 1, 0, 0, 1, 1, 1, 1, 1},       // +Inf
	{-1, -1, 0, -1, 0, -1, -1, -1, 1}, // -Inf
	{1, 1, 0, -1, 1, 0, 1, 1, 1},      // MaxFloat64
	{1, 1, 0, -1, 1, -1, 0, 1, 1},     // subnormal
}

func floatEdgeOthers() []Value {
	vs := make([]Value, 0, len(floatEdges)+2)
	for _, e := range floatEdges {
		vs = append(vs, e.value())
	}
	return append(vs, NewInt(0), Null)
}

func TestFloatEdgeCasesPinned(t *testing.T) {
	others := floatEdgeOthers()
	for i, e := range floatEdges {
		v := e.value()
		if got := math.Float64bits(v.Float()); got != e.bits {
			t.Errorf("%s: Float() bits %#016x, want %#016x", e.name, got, e.bits)
		}
		if got := v.String(); got != e.str {
			t.Errorf("%s: String() = %q, want %q", e.name, got, e.str)
		}
		p, err := ParseValue(TypeFloat, v.String())
		if err != nil || p.Type() != TypeFloat || math.Float64bits(p.Float()) != e.parse {
			t.Errorf("%s: ParseValue(String()) = %v (bits %#016x), %v; want bits %#016x",
				e.name, p, math.Float64bits(p.Float()), err, e.parse)
		}
		if got := hashValue(v); got != e.hash {
			t.Errorf("%s: hashValue = %#016x, want %#016x", e.name, got, e.hash)
		}
		for j, o := range others {
			want := floatEdgeCompare[i][j]
			if got := v.Compare(o); got != want {
				t.Errorf("%s.Compare(%v) = %d, want %d", e.name, o, got, want)
			}
			if got := v.Equal(o); got != (want == 0) {
				t.Errorf("%s.Equal(%v) = %v, want %v", e.name, o, got, want == 0)
			}
			if j < len(floatEdges) {
				if got := o.Compare(v); got != -want {
					t.Errorf("%v.Compare(%s) = %d, want %d", o, e.name, got, -want)
				}
			}
		}
	}
}

// TestFloatSignedZerosHashApart records an existing oddity as it stands:
// -0 and +0 are Equal, but hash apart because the hash reads the bits, so
// a hash index files them under different keys.
func TestFloatSignedZerosHashApart(t *testing.T) {
	neg, pos := NewFloat(math.Copysign(0, -1)), NewFloat(0)
	if !neg.Equal(pos) {
		t.Fatal("-0 and +0 are not Equal")
	}
	if hashValue(neg) == hashValue(pos) {
		t.Fatal("-0 and +0 hash alike; update the pinned hashes and this test")
	}
}

// floatEdgeSnapshot is Database.Snapshot of floatEdgeDB, in hex.
const floatEdgeSnapshot = "444950444253310a010543656c6c7314284b20424947494e542c204620444f55424c452907070201" +
	"0002000000000000008002010202000000000000000002010402efbe00000000f87f0201060200000000" +
	"0000f07f02010802000000000000f0ff02010a02ffffffffffffef7f02010c020100000000000000"

// floatEdgeDB holds one table with a row (k, edge) per pinned edge.
func floatEdgeDB(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase("pin")
	tb := db.MustCreateTable("Cells", MustSchema([]Column{Col("K", TypeInt), Col("F", TypeFloat)}, "K"))
	for k, e := range floatEdges {
		if err := tb.Insert(Row{NewInt(int64(k)), e.value()}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestFloatEdgeCasesCheckpointGolden(t *testing.T) {
	blob, err := floatEdgeDB(t).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(blob); got != floatEdgeSnapshot {
		t.Fatalf("snapshot bytes:\n got %s\nwant %s", got, floatEdgeSnapshot)
	}
	db := NewDatabase("pin")
	db.MustCreateTable("Cells", MustSchema([]Column{Col("K", TypeInt), Col("F", TypeFloat)}, "K"))
	if n, err := db.Restore(blob); err != nil || n != len(floatEdges) {
		t.Fatalf("Restore: %d rows, %v", n, err)
	}
	rows := db.MustTable("Cells").Scan().Rows()
	if len(rows) != len(floatEdges) {
		t.Fatalf("restored %d rows, want %d", len(rows), len(floatEdges))
	}
	for k, row := range rows {
		e := floatEdges[k]
		if row[0].Int() != int64(k) || row[1].Type() != TypeFloat || math.Float64bits(row[1].Float()) != e.bits {
			t.Errorf("row %d: restored %v (bits %#016x), want %s (bits %#016x)",
				k, row, math.Float64bits(row[1].Float()), e.name, e.bits)
		}
	}
}

package scenario

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	rel "repro/internal/relational"
	"repro/internal/schema"
)

// mvFixtureOrder is one Orders fact of the pinned OrdersMV fixture.
type mvFixtureOrder struct {
	cust  int64
	date  time.Time
	total float64
}

// mvFixture interleaves the groups in scan order, repeats custkeys across
// month and year boundaries (a nanosecond either side of New Year), and
// carries totals whose float sum depends on the addition order:
// (0.1+0.2)+0.3 and 0.1+(0.2+0.3) differ in the last bit, and so do the
// cancellation runs around 1e16.
var mvFixture = func() []mvFixtureOrder {
	eve := time.Date(2006, time.December, 31, 23, 59, 59, 999999999, time.UTC)
	ny := time.Date(2007, time.January, 1, 0, 0, 0, 0, time.UTC)
	feb := time.Date(2007, time.February, 14, 12, 0, 0, 0, time.UTC)
	dec := time.Date(2007, time.December, 1, 0, 0, 0, 0, time.UTC)
	return []mvFixtureOrder{
		{7, eve, 0.1},
		{8, ny, 1e16},
		{7, ny, 0.3},
		{7, eve, 0.2},
		{9, feb, 2.5},
		{8, ny, 1},
		{7, feb, 0.7},
		{7, eve, 0.3},
		{8, eve, 100.25},
		{8, ny, 1},
		{7, ny, 0.2},
		{9, dec, 1e-3},
		{8, ny, -1e16},
		{7, ny, 0.1},
		{9, feb, 1e17},
		{7, dec, 3},
		{9, feb, 1.5},
		{9, feb, -1e17},
		{9, dec, 1e-3},
		{7, feb, 0.1},
	}
}()

// insertMVFixture loads the fixture into db's Orders in slice order.
func insertMVFixture(t *testing.T, db *rel.Database) {
	t.Helper()
	orders := db.MustTable("Orders")
	for i, o := range mvFixture {
		if err := orders.Insert(rel.Row{
			rel.NewInt(int64(1000 + i)), rel.NewInt(o.cust), rel.NewInt(100),
			rel.NewTime(o.date), rel.NewString("OPEN"), rel.NewString("LOW"),
			rel.NewFloat(o.total),
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// renderMV renders view rows one per line, the sum as its IEEE bits.
func renderMV(r *rel.Relation) string {
	var b strings.Builder
	for i := 0; i < r.Len(); i++ {
		row := r.Row(i)
		fmt.Fprintf(&b, "%d|%d|%d|%d|%#016x\n", row[0].Int(), row[1].Int(), row[2].Int(),
			row[3].Int(), math.Float64bits(row[4].Float()))
	}
	return b.String()
}

// mvGolden is the fixture's view: groups in first-appearance order, each
// sum folded from +0.0 in scan order.
const mvGolden = `2006|12|7|3|0x3fe3333333333334
2007|1|8|4|0x0000000000000000
2007|1|7|3|0x3fe3333333333333
2007|2|9|4|0x0000000000000000
2007|2|7|2|0x3fe9999999999999
2006|12|8|1|0x4059100000000000
2007|12|9|2|0x3f60624dd2f1a9fc
2007|12|7|1|0x4008000000000000
`

// TestComputeOrdersMVPinned pins sp_refreshOrdersMV's output — group
// order, counts and the bits of every float sum — both as computed and
// as stored in the view table.
func TestComputeOrdersMVPinned(t *testing.T) {
	s := newScenario(t)
	dwh := s.DB(schema.SysDWH)
	insertMVFixture(t, dwh)

	got, err := ComputeOrdersMV(dwh)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Schema().Equal(dwh.MustTable("OrdersMV").Schema()) {
		t.Fatalf("schema %s, want the OrdersMV schema", got.Schema())
	}
	if r := renderMV(got); r != mvGolden {
		t.Fatalf("ComputeOrdersMV:\n%s\nwant:\n%s", r, mvGolden)
	}
	res, err := dwh.Call("sp_refreshOrdersMV")
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Get(0, "groups").Int(); n != 8 {
		t.Errorf("refresh reported %d groups, want 8", n)
	}
	if r := renderMV(dwh.MustTable("OrdersMV").Scan()); r != mvGolden {
		t.Fatalf("stored OrdersMV:\n%s\nwant:\n%s", r, mvGolden)
	}
}

// TestMVFixtureOrderSensitive guards the pin itself: summing some
// group's totals in reverse scan order must change its bits, or the
// golden sums would not notice a reordered fold.
func TestMVFixtureOrderSensitive(t *testing.T) {
	type key struct{ y, m, c int64 }
	fwd, rev := map[key]float64{}, map[key]float64{}
	for i := range mvFixture {
		o, r := mvFixture[i], mvFixture[len(mvFixture)-1-i]
		fwd[key{int64(o.date.Year()), int64(o.date.Month()), o.cust}] += o.total
		rev[key{int64(r.date.Year()), int64(r.date.Month()), r.cust}] += r.total
	}
	differ := 0
	for k, f := range fwd {
		if math.Float64bits(f) != math.Float64bits(rev[k]) {
			differ++
		}
	}
	if differ < 3 {
		t.Fatalf("only %d groups' sums depend on the addition order, want at least 3", differ)
	}
}

// seedOrders bulk-loads n Orders facts cycling through custs customers
// and the 24 months of 2006-2007: the first min(n, lcm(12, custs))
// rows each open a new (Year, Month, Custkey) group.
func seedOrders(tb testing.TB, t *rel.Table, n, custs int) {
	tb.Helper()
	rows := make([]rel.Row, n)
	for i := range rows {
		rows[i] = rel.Row{
			rel.NewInt(int64(i)),
			rel.NewInt(int64(1 + i%custs)),
			rel.NewInt(int64(1 + i%11)),
			rel.NewTime(time.Date(2006+i%2, time.Month(1+i%12), 1+i%28, 0, 0, 0, 0, time.UTC)),
			rel.NewString("O"),
			rel.NewString("3-MEDIUM"),
			rel.NewFloat(100.5 * float64(1+i%97)),
		}
	}
	batch, err := rel.NewRelation(t.Schema(), rows)
	if err != nil {
		tb.Fatal(err)
	}
	if err := t.InsertAll(batch); err != nil {
		tb.Fatal(err)
	}
}

// mvDatabase is a bare instance holding just the refresh's two tables.
func mvDatabase() *rel.Database {
	db := rel.NewDatabase("mv")
	db.MustCreateTable("Orders", schema.WHOrders)
	db.MustCreateTable("OrdersMV", schema.WHOrdersMV)
	return db
}

// TestComputeOrdersMVAllocBudget pins the refresh's allocations per call
// to the fold's map and group slice and the output's backing arrays: the
// count must not grow with the number of groups. The 20,500-row cases
// open 12, 2,388 and 20,500 groups; a fold that allocated once per group
// (the generic grouped-aggregation kernels did) would pass 2,388.
func TestComputeOrdersMVAllocBudget(t *testing.T) {
	const rows, budget = 20500, 256
	for _, custs := range []int{1, 199, 1999} {
		db := mvDatabase()
		seedOrders(t, db.MustTable("Orders"), rows, custs)
		groups := 0
		allocs := testing.AllocsPerRun(5, func() {
			out, err := ComputeOrdersMV(db)
			if err != nil {
				t.Fatal(err)
			}
			groups = out.Len()
		})
		t.Logf("%d customers: %d groups, %.0f allocations per call", custs, groups, allocs)
		if allocs > budget {
			t.Errorf("ComputeOrdersMV over %d groups: %.0f allocations per call, budget %d",
				groups, allocs, budget)
		}
	}
}

// mvPropertyOrders loads one fact per fuzzed draw: the custkey and the
// month come from the draw, the total is a small whole number so that
// every float sum is exact in any order.
func mvPropertyOrders(draws []uint16) (*rel.Database, error) {
	db := mvDatabase()
	orders := db.MustTable("Orders")
	for i, d := range draws {
		if err := orders.Insert(rel.Row{
			rel.NewInt(int64(i)), rel.NewInt(int64(d % 5)), rel.NewInt(1),
			rel.NewTime(time.Date(2006+int(d/5%2), time.Month(1+d/10%12), 1, 0, 0, 0, 0, time.UTC)),
			rel.NewString("O"), rel.NewString("LOW"), rel.NewFloat(float64(d % 1000)),
		}); err != nil {
			return nil, err
		}
	}
	return db, nil
}

func TestComputeOrdersMVCountMatchesLenProperty(t *testing.T) {
	f := func(draws []uint16) bool {
		db, err := mvPropertyOrders(draws)
		if err != nil {
			return false
		}
		mv, err := ComputeOrdersMV(db)
		if err != nil {
			return false
		}
		total := int64(0)
		for i := 0; i < mv.Len(); i++ {
			total += mv.Get(i, "OrderCount").Int()
		}
		return total == int64(len(draws))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestComputeOrdersMVSumMatchesTotalProperty(t *testing.T) {
	f := func(draws []uint16) bool {
		db, err := mvPropertyOrders(draws)
		if err != nil {
			return false
		}
		mv, err := ComputeOrdersMV(db)
		if err != nil {
			return false
		}
		var total, groupTotal float64
		for _, d := range draws {
			total += float64(d % 1000)
		}
		for i := 0; i < mv.Len(); i++ {
			groupTotal += mv.Get(i, "TotalSum").Float()
		}
		return total == groupTotal
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

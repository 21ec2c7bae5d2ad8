package driver

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	rel "repro/internal/relational"
	"repro/internal/scenario"
	"repro/internal/schema"
)

// Materialized-view verification: a stored OrdersMV must equal the view
// recomputed from scratch off the current fact table. The recompute is a typed fold
// of the Orders scan into one (count, sum) per (Year, Month, Custkey),
// written here independently of scenario.ComputeOrdersMV and of every
// relational kernel the refresh procedure uses. Each stored row is then
// looked up by key and compared exactly: int equality on the count and
// bit equality on the float sum. The fold sums Totalprice from 0.0 in scan
// order, the IEEE operation sequence of the recompute, so the check is
// insensitive to physical row order but exact on every value. A message is rendered only
// for a mismatch.

// mvSystems are the systems carrying an OrdersMV.
func mvSystems() []string {
	out := []string{schema.SysDWH}
	for _, v := range schema.Marts {
		out = append(out, v.Name)
	}
	sort.Strings(out)
	return out
}

// mvKey is the grouping key of one OrdersMV row.
type mvKey struct{ year, month, custkey int64 }

func (k mvKey) String() string {
	return fmt.Sprintf("(Year, Month, Custkey) = (%d, %d, %d)", k.year, k.month, k.custkey)
}

// mvAgg is one group's recomputed aggregate.
type mvAgg struct {
	count int64
	sum   float64
}

// VerifyMV compares every system's stored OrdersMV against a from-scratch
// recompute off its Orders table.
func VerifyMV(s *scenario.Scenario) *VerificationResult {
	v := &VerificationResult{}
	// One model map serves all systems; clear keeps its buckets.
	model := make(map[mvKey]mvAgg)
	for _, sys := range mvSystems() {
		name := "OrdersMV model " + sys
		db := s.DB(sys)
		if db == nil {
			v.Checks = append(v.Checks, Check{Name: name, OK: false, Info: "system missing"})
			continue
		}
		clear(model)
		info, ok := checkOrdersMV(db, model)
		v.Checks = append(v.Checks, Check{Name: name, OK: ok, Info: info})
	}
	return v
}

// checkOrdersMV folds db's Orders into model and matches every stored
// OrdersMV row against it, deleting each matched group from the model.
// A stored group absent from the model (extra, or stored twice) fails at
// its row; a model group left over at the end is missing from the store.
// Together the two checks require equal group counts.
func checkOrdersMV(db *rel.Database, model map[mvKey]mvAgg) (string, bool) {
	orders := db.MustTable("Orders").Scan()
	fs := orders.Schema()
	dOrd, cOrd, pOrd := fs.MustOrdinal("Orderdate"), fs.MustOrdinal("Custkey"), fs.MustOrdinal("Totalprice")
	for i := 0; i < orders.Len(); i++ {
		row := orders.Row(i)
		d := row[dOrd].Time()
		k := mvKey{int64(d.Year()), int64(d.Month()), row[cOrd].Int()}
		a := model[k]
		a.count++ // count(*)
		if p := row[pOrd]; !p.IsNull() {
			a.sum += p.Float()
		}
		model[k] = a
	}

	tab := db.MustTable("OrdersMV")
	ms := tab.Schema()
	stored := tab.Scan()
	groups := len(model)
	yOrd, mOrd, kOrd := ms.MustOrdinal("Year"), ms.MustOrdinal("Month"), ms.MustOrdinal("Custkey")
	nOrd, tOrd := ms.MustOrdinal("OrderCount"), ms.MustOrdinal("TotalSum")
	for i := 0; i < stored.Len(); i++ {
		row := stored.Row(i)
		for c, col := range ms.Columns {
			if row[c].IsNull() || row[c].Type() != col.Type {
				return fmt.Sprintf("stored row %d: %s is %s %q, want non-NULL %s",
					i, col.Name, row[c].Type(), row[c].String(), col.Type), false
			}
		}
		k := mvKey{row[yOrd].Int(), row[mOrd].Int(), row[kOrd].Int()}
		a, ok := model[k]
		if !ok {
			return fmt.Sprintf("stored group %s is not in the recompute (or is stored twice)", k), false
		}
		if n := row[nOrd].Int(); n != a.count {
			return fmt.Sprintf("group %s: stored OrderCount %d, recompute %d", k, n, a.count), false
		}
		if sum := row[tOrd].Float(); math.Float64bits(sum) != math.Float64bits(a.sum) {
			return fmt.Sprintf("group %s: stored TotalSum %v (%#016x), recompute %v (%#016x)",
				k, sum, math.Float64bits(sum), a.sum, math.Float64bits(a.sum)), false
		}
		delete(model, k)
	}
	if len(model) > 0 {
		// Name the smallest missing key so the message is deterministic.
		keys := make([]mvKey, 0, len(model))
		for k := range model {
			keys = append(keys, k)
		}
		missing := slices.MinFunc(keys, func(a, b mvKey) int {
			return cmp.Or(cmp.Compare(a.year, b.year), cmp.Compare(a.month, b.month),
				cmp.Compare(a.custkey, b.custkey))
		})
		a := model[missing]
		return fmt.Sprintf("group %s is missing: recompute has OrderCount %d, TotalSum %v (stored %d groups, recompute %d)",
			missing, a.count, a.sum, stored.Len(), groups), false
	}
	return fmt.Sprintf("%d groups identical to recompute", groups), true
}

// checkMV runs VerifyMV and converts a failure into a loud error — the
// periodic in-run check aborts the benchmark instead of letting a
// drifted view silently contaminate the remaining periods.
func checkMV(s *scenario.Scenario, period int) error {
	v := VerifyMV(s)
	if v.OK() {
		return nil
	}
	for _, c := range v.Checks {
		if !c.OK {
			return fmt.Errorf("driver: period %d: %s: %s", period, c.Name, c.Info)
		}
	}
	return nil
}

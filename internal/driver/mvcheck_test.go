package driver

import (
	"fmt"
	"math"
	"regexp"
	"testing"

	rel "repro/internal/relational"
	"repro/internal/schema"
)

// mvTarget is the mart and group a corruption aims at: the group whose
// canonical row sorts first, so every rendering of a divergence (first
// differing line or keyed lookup) lands on it.
type mvTarget struct {
	sys              string
	tab              *rel.Table
	year, month, cus int64
}

// mvRig runs one clean pipeline period, asserts the per-period MV check
// passes on it, and picks a mart group to corrupt.
func mvRig(t *testing.T) (*rig, mvTarget) {
	t.Helper()
	r, _, _ := verifiedRig(t)
	if err := checkMV(r.s, 0); err != nil {
		t.Fatalf("clean run fails the MV check: %v", err)
	}
	for _, m := range schema.Marts {
		tab := r.s.DB(m.Name).MustTable("OrdersMV")
		stored := tab.Scan()
		if stored.Len() < 2 {
			continue
		}
		best := stored.Row(0)
		for i := 1; i < stored.Len(); i++ {
			if canonicalRow(stored.Row(i)) < canonicalRow(best) {
				best = stored.Row(i)
			}
		}
		s := schema.WHOrdersMV
		return r, mvTarget{
			sys: m.Name, tab: tab,
			year:  best[s.MustOrdinal("Year")].Int(),
			month: best[s.MustOrdinal("Month")].Int(),
			cus:   best[s.MustOrdinal("Custkey")].Int(),
		}
	}
	t.Fatal("no mart holds two OrdersMV groups")
	return nil, mvTarget{}
}

// keyPred matches the stored row of one OrdersMV group.
func keyPred(year, month, cus int64) rel.Predicate {
	return rel.And(rel.ColEq("Year", rel.NewInt(year)),
		rel.ColEq("Month", rel.NewInt(month)), rel.ColEq("Custkey", rel.NewInt(cus)))
}

// wantMVError asserts checkMV fails and that its error names the system
// and the (Year, Month, Custkey) key, the three numbers in that order.
func wantMVError(t *testing.T, r *rig, sys string, year, month, cus int64) {
	t.Helper()
	err := checkMV(r.s, 0)
	if err == nil {
		t.Fatal("checkMV passed a corrupted OrdersMV")
	}
	msg := err.Error()
	t.Log(msg)
	if !regexp.MustCompile(`\b` + regexp.QuoteMeta(sys) + `\b`).MatchString(msg) {
		t.Errorf("error does not name system %s: %s", sys, msg)
	}
	key := regexp.MustCompile(fmt.Sprintf(`(^|\D)%d\D{1,12}%d\D{1,12}%d(\D|$)`, year, month, cus))
	if !key.MatchString(msg) {
		t.Errorf("error does not name key (%d, %d, %d): %s", year, month, cus, msg)
	}
}

// updateGroup rewrites one column of the target group's stored row.
func updateGroup(t *testing.T, g mvTarget, col string, fn func(rel.Value) rel.Value) {
	t.Helper()
	ord := schema.WHOrdersMV.MustOrdinal(col)
	n, err := g.tab.Update(keyPred(g.year, g.month, g.cus), func(row rel.Row) rel.Row {
		nr := row.Clone()
		nr[ord] = fn(row[ord])
		return nr
	})
	if err != nil || n != 1 {
		t.Fatalf("update %s: %d rows, %v", col, n, err)
	}
}

// TestCheckMVDetectsCorruptMart corrupts one mart's OrdersMV four ways
// after a clean period; the per-period check must fail loudly each time
// and point at the damaged group.
func TestCheckMVDetectsCorruptMart(t *testing.T) {
	t.Run("TotalSumOneULP", func(t *testing.T) {
		r, g := mvRig(t)
		updateGroup(t, g, "TotalSum", func(v rel.Value) rel.Value {
			return rel.NewFloat(math.Nextafter(v.Float(), math.Inf(1)))
		})
		wantMVError(t, r, g.sys, g.year, g.month, g.cus)
	})
	t.Run("OrderCountPlusOne", func(t *testing.T) {
		r, g := mvRig(t)
		updateGroup(t, g, "OrderCount", func(v rel.Value) rel.Value {
			return rel.NewInt(v.Int() + 1)
		})
		wantMVError(t, r, g.sys, g.year, g.month, g.cus)
	})
	t.Run("GroupDeleted", func(t *testing.T) {
		r, g := mvRig(t)
		n, err := g.tab.Delete(keyPred(g.year, g.month, g.cus))
		if err != nil || n != 1 {
			t.Fatalf("delete: %d rows, %v", n, err)
		}
		wantMVError(t, r, g.sys, g.year, g.month, g.cus)
	})
	t.Run("GroupInserted", func(t *testing.T) {
		r, g := mvRig(t)
		// A month no order falls in, sorting before every real group.
		const year, month, cus = 1900, 1, 987654321
		if err := g.tab.Insert(rel.Row{rel.NewInt(year), rel.NewInt(month),
			rel.NewInt(cus), rel.NewInt(1), rel.NewFloat(42)}); err != nil {
			t.Fatal(err)
		}
		wantMVError(t, r, g.sys, year, month, cus)
	})
}

package scenario

import (
	"sync"

	rel "repro/internal/relational"
)

// Stored procedures of the consolidation layer. Process P12 invokes
// sp_runMasterDataCleansing, P13 invokes sp_runMovementDataCleansing and
// sp_refreshOrdersMV (on the warehouse); P15 refreshes the marts' views.

// registerCDBProcedures installs the cleansing procedures on the
// consolidated database.
func registerCDBProcedures(db *rel.Database) {
	db.RegisterProcedure("sp_runMasterDataCleansing", spRunMasterDataCleansing)
	db.RegisterProcedure("sp_runMovementDataCleansing", spRunMovementDataCleansing)
}

// registerMVProcedure installs the OrdersMV refresh on a warehouse or
// data-mart instance. Each instance gets its own refresher so the MV
// watermark lives server-side, next to the view it protects — the same
// state works for the in-process and the remote transport.
func registerMVProcedure(db *rel.Database) {
	r := &mvRefresher{}
	db.RegisterProcedure("sp_refreshOrdersMV", r.refresh)
}

// cleansingResult wraps removal counts as a one-row result relation.
func cleansingResult(removed int) (*rel.Relation, error) {
	s := rel.MustSchema([]rel.Column{rel.Col("removed", rel.TypeInt)})
	return rel.NewRelation(s, []rel.Row{{rel.NewInt(int64(removed))}})
}

// spRunMasterDataCleansing eliminates error-prone master data within the
// consolidated database: customers without a name or with malformed phone
// numbers, products without a name or with non-positive prices.
// (Duplicate keys are already collapsed by the upsert-based load paths.)
func spRunMasterDataCleansing(db *rel.Database, _ []rel.Value) (*rel.Relation, error) {
	removed := 0
	n, err := db.MustTable("Customer").Delete(rel.Or(
		rel.ColEq("Name", rel.NewString("")),
		rel.ColEq("Phone", rel.NewString("INVALID")),
	))
	if err != nil {
		return nil, err
	}
	removed += n
	n, err = db.MustTable("Product").Delete(rel.Or(
		rel.ColEq("Name", rel.NewString("")),
		rel.Cmp("Price", rel.OpLe, rel.NewFloat(0)),
	))
	if err != nil {
		return nil, err
	}
	removed += n
	return cleansingResult(removed)
}

// spRunMovementDataCleansing eliminates movement-data errors within the
// consolidated database: orders with corrupted (non-positive) totals and
// orderlines orphaned by that removal.
func spRunMovementDataCleansing(db *rel.Database, _ []rel.Value) (*rel.Relation, error) {
	orders := db.MustTable("Orders")
	bad, err := orders.SelectWhere(rel.Cmp("Totalprice", rel.OpLe, rel.NewFloat(0)))
	if err != nil {
		return nil, err
	}
	removed := 0
	lines := db.MustTable("Orderline")
	for i := 0; i < bad.Len(); i++ {
		key := bad.Get(i, "Ordkey")
		n, err := orders.Delete(rel.ColEq("Ordkey", key))
		if err != nil {
			return nil, err
		}
		removed += n
		n, err = lines.Delete(rel.ColEq("Ordkey", key))
		if err != nil {
			return nil, err
		}
		removed += n
	}
	return cleansingResult(removed)
}

// mvRefresher maintains OrdersMV on one database instance. A full
// refresh recomputes the view from the Orders fact table; an incremental
// refresh (requested with a true boolean argument) applies only the
// fact-table delta since the last refresh.
//
// The incremental path is restricted to insert-only deltas so its result
// stays byte-identical to a full recompute: the full aggregation folds
// float sums in table-scan order, and for an append-only fact table the
// delta's insert order is exactly the tail of that scan order — the
// stored sum plus the delta prices is the same IEEE operation sequence
// the recompute would execute. Group rows keep their first-occurrence
// positions because existing groups are upserted in place and new groups
// append. Any delta carrying updates or deletes (or a lost watermark)
// falls back to the full recompute, keeping correctness unconditional.
type mvRefresher struct {
	mu        sync.Mutex
	primed    bool   // the MV reflects Orders as of watermark
	watermark uint64 // Orders row version behind the current MV
}

// refresh implements sp_refreshOrdersMV. args[0] (optional, boolean)
// requests incremental maintenance.
func (rf *mvRefresher) refresh(db *rel.Database, args []rel.Value) (*rel.Relation, error) {
	incremental := len(args) > 0 && !args[0].IsNull() && args[0].Type() == rel.TypeBool && args[0].Bool()
	rf.mu.Lock()
	defer rf.mu.Unlock()
	if incremental && rf.primed {
		d, err := db.MustTable("Orders").DeltaSince(rf.watermark)
		if err == nil && d.Updates.Len() == 0 && d.Deletes.Len() == 0 {
			if res, aerr := rf.applyInserts(db, d); aerr == nil {
				return res, nil
			} else {
				return nil, aerr
			}
		}
		// Watermark lost (truncate, eviction) or non-append delta: the
		// algebraic path cannot guarantee bit-identity, recompute.
	}
	return rf.recompute(db)
}

// applyInserts folds an insert-only fact delta into the stored view.
// Caller holds rf.mu.
func (rf *mvRefresher) applyInserts(db *rel.Database, d *rel.Delta) (*rel.Relation, error) {
	mv := db.MustTable("OrdersMV")
	ins := d.Inserts
	s := ins.Schema()
	var (
		dateOrd  = s.MustOrdinal("Orderdate")
		custOrd  = s.MustOrdinal("Custkey")
		priceOrd = s.MustOrdinal("Totalprice")
	)
	for i := 0; i < ins.Len(); i++ {
		row := ins.Row(i)
		dt := row[dateOrd].Time()
		y := rel.NewInt(int64(dt.Year()))
		m := rel.NewInt(int64(dt.Month()))
		ck := row[custOrd]
		// Mirror the group accumulator exactly: count counts rows, sum
		// starts at 0.0 and skips NULLs (an all-NULL group is stored as 0
		// by the full path, which is the float the fold continues from).
		var cnt int64
		var sum float64
		if cur := mv.Lookup(y, m, ck); cur != nil {
			cnt = cur[3].Int()
			sum = cur[4].Float()
		}
		cnt++
		if p := row[priceOrd]; !p.IsNull() {
			sum += p.Float()
		}
		if err := mv.Upsert(rel.Row{y, m, ck, rel.NewInt(cnt), rel.NewFloat(sum)}); err != nil {
			return nil, err
		}
	}
	rf.watermark = d.To
	return refreshResult(mv.Len(), "incremental", ins.Len())
}

// ComputeOrdersMV computes the OrdersMV contents from scratch off the
// database's Orders fact table, returning the view rows (in the stored
// column order) and the Orders row version they reflect. The full
// refresh path and the driver's model-vs-stored verification share this
// single definition of the view.
func ComputeOrdersMV(db *rel.Database) (*rel.Relation, uint64, error) {
	orders, version := db.MustTable("Orders").ScanWithVersion()
	// Table scans carry no scheduler attribution; tag the fold's input so
	// the vectorized fold bills to this instance's fair-share handle.
	orders = orders.WithPool(db.Scheduler())
	dateOrd := orders.Schema().MustOrdinal("Orderdate")
	// The extension columns and the closure are shared between the row and
	// the columnar path, so the two variants cannot drift apart.
	timeCols := []rel.Column{
		{Name: "Year", Type: rel.TypeInt, Nullable: true},
		{Name: "Month", Type: rel.TypeInt, Nullable: true},
	}
	timeFn := func(row rel.Row, out []rel.Value) {
		d := row[dateOrd].Time()
		out[0] = rel.NewInt(int64(d.Year()))
		out[1] = rel.NewInt(int64(d.Month()))
	}
	mvGroup := []string{"Year", "Month", "Custkey"}
	mvAggs := []rel.AggSpec{
		{Func: "count", As: "OrderCount"},
		{Func: "sum", Col: "Totalprice", As: "TotalSum"},
	}
	var (
		agg *rel.Relation
		err error
	)
	if db.Columnar() {
		// Fused extend+group: the 9-wide extended relation is never
		// materialized (GroupAggExtVec is pinned bit-identical to the
		// sequential row pipeline below).
		agg, _, err = orders.GroupAggExtVec(db.Parallelism(), timeCols, timeFn, mvGroup, mvAggs)
	} else {
		var withTime *rel.Relation
		withTime, err = orders.ExtendMany(timeCols, timeFn)
		if err != nil {
			return nil, 0, err
		}
		agg, err = withTime.GroupBy(mvGroup, mvAggs)
	}
	if err != nil {
		return nil, 0, err
	}
	as := agg.Schema()
	var (
		yOrd = as.MustOrdinal("Year")
		mOrd = as.MustOrdinal("Month")
		cOrd = as.MustOrdinal("Custkey")
		nOrd = as.MustOrdinal("OrderCount")
		tOrd = as.MustOrdinal("TotalSum")
	)
	rows := make([]rel.Row, agg.Len())
	for i := range rows {
		row := agg.Row(i)
		sum := row[tOrd]
		if sum.IsNull() {
			sum = rel.NewFloat(0)
		}
		rows[i] = rel.Row{row[yOrd], row[mOrd], row[cOrd], row[nOrd], sum}
	}
	batch, err := rel.NewRelation(db.MustTable("OrdersMV").Schema(), rows)
	if err != nil {
		return nil, 0, err
	}
	return batch, version, nil
}

// recompute rebuilds the view from scratch and re-arms the watermark.
// Caller holds rf.mu.
func (rf *mvRefresher) recompute(db *rel.Database) (*rel.Relation, error) {
	batch, version, err := ComputeOrdersMV(db)
	if err != nil {
		return nil, err
	}
	mv := db.MustTable("OrdersMV")
	mv.Truncate()
	if err := mv.InsertAll(batch); err != nil {
		return nil, err
	}
	rf.primed = true
	rf.watermark = version
	return refreshResult(batch.Len(), "full", db.MustTable("Orders").Len())
}

// refreshResult renders the refresh outcome: the group count (the
// historical result contract), the maintenance mode and how many fact
// rows the refresh had to touch.
func refreshResult(groups int, mode string, applied int) (*rel.Relation, error) {
	s := rel.MustSchema([]rel.Column{
		rel.Col("groups", rel.TypeInt),
		rel.Col("mode", rel.TypeString),
		rel.Col("applied", rel.TypeInt),
	})
	return rel.NewRelation(s, []rel.Row{{
		rel.NewInt(int64(groups)), rel.NewString(mode), rel.NewInt(int64(applied)),
	}})
}

package scenario

import rel "repro/internal/relational"

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
// data-mart instance.
func registerMVProcedure(db *rel.Database) {
	db.RegisterProcedure("sp_refreshOrdersMV", refreshOrdersMV)
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

// mvKey is an OrdersMV group key.
type mvKey struct {
	year, month int32
	custkey     int64
}

// mvGroup is one OrdersMV group of the refresh fold: its key and running
// aggregates.
type mvGroup struct {
	mvKey
	count int64
	sum   float64
}

// ComputeOrdersMV computes the OrdersMV contents from scratch off the
// database's Orders fact table, returning the view rows in the stored
// column order. It is one sequential fold over the scan: groups are
// emitted in first-appearance order, count(*) counts every row, and each
// TotalSum adds the non-NULL Totalprice values to +0.0 in scan order (a
// group without any stays 0.0), so the float sums are bit-reproducible.
func ComputeOrdersMV(db *rel.Database) (*rel.Relation, error) {
	orders := db.MustTable("Orders").Scan()
	fs := orders.Schema()
	dOrd, cOrd, pOrd := fs.MustOrdinal("Orderdate"), fs.MustOrdinal("Custkey"), fs.MustOrdinal("Totalprice")
	// A group never outnumbers the rows, and on the benchmark's data
	// nearly every order opens its own (a customer seldom orders twice in
	// a month: ~92 % at d=1), so sizing for every row up front costs
	// less than growing.
	rows := orders.Rows()
	index := make(map[mvKey]int32, len(rows))
	groups := make([]mvGroup, 0, len(rows))
	for _, row := range rows {
		y, m, _ := row[dOrd].Time().Date()
		k := mvKey{int32(y), int32(m), row[cOrd].Int()}
		gi, ok := index[k]
		if !ok {
			gi = int32(len(groups))
			index[k] = gi
			groups = append(groups, mvGroup{mvKey: k})
		}
		g := &groups[gi]
		g.count++
		if p := row[pOrd]; !p.IsNull() {
			g.sum += p.Float()
		}
	}
	// Every view row is carved from one backing array, cap-limited so no
	// row can grow into its neighbour.
	const w = 5
	backing := make([]rel.Value, len(groups)*w)
	out := make([]rel.Row, len(groups))
	for i, g := range groups {
		row := backing[i*w : i*w+w : i*w+w]
		row[0], row[1], row[2] = rel.NewInt(int64(g.year)), rel.NewInt(int64(g.month)), rel.NewInt(g.custkey)
		row[3], row[4] = rel.NewInt(g.count), rel.NewFloat(g.sum)
		out[i] = row
	}
	return rel.NewRelation(db.MustTable("OrdersMV").Schema(), out)
}

// refreshOrdersMV implements sp_refreshOrdersMV: it recomputes the view
// from the Orders fact table and replaces the stored rows.
func refreshOrdersMV(db *rel.Database, _ []rel.Value) (*rel.Relation, error) {
	batch, err := ComputeOrdersMV(db)
	if err != nil {
		return nil, err
	}
	mv := db.MustTable("OrdersMV")
	mv.Truncate()
	if err := mv.InsertAll(batch); err != nil {
		return nil, err
	}
	return refreshResult(batch.Len())
}

// refreshResult wraps the view's group count as a one-row result
// relation.
func refreshResult(groups int) (*rel.Relation, error) {
	s := rel.MustSchema([]rel.Column{rel.Col("groups", rel.TypeInt)})
	return rel.NewRelation(s, []rel.Row{{rel.NewInt(int64(groups))}})
}

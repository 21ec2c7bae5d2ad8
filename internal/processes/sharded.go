package processes

import (
	"fmt"

	"repro/internal/mtm"
	rel "repro/internal/relational"
	"repro/internal/schema"
)

// Region-sharded variants of the group C/D processes. Under
// engine.Options.Shards the scenario is partitioned by business region:
// each shard owns its region's sources (group A/B routing is a pure
// lookup, see RegionOfProcess), extracts its region's slice of the
// consolidation stream, and refreshes its region's mart. The warehouse
// stays a single store fed through a deterministic merge barrier: every
// region extraction emits its validated batch into an exchange, and the
// coordinator process folds the batches into the DWH in the fixed
// schema.Regions order. Because the fold order depends only on the region
// order — never on shard count or shard completion order — the final
// state is byte-identical for every -shards value.

// ShardVar names the coordinator-context variable that carries one
// region's exchanged batch (e.g. "ord_wh@Europe").
func ShardVar(tag, region string) string { return tag + "@" + region }

// processRegions maps every group A/B process type to the business region
// whose shard owns it. The group C/D types are absent: they run through
// the coordinator + per-region variants below.
var processRegions = map[string]string{
	"P01": schema.RegionAsia,    // Beijing master data -> Seoul
	"P02": schema.RegionEurope,  // MDM subscription -> Berlin/Paris/Trondheim
	"P03": schema.RegionAmerica, // Chicago/Baltimore/Madison -> US_Eastcoast
	"P04": schema.RegionEurope,  // Vienna orders
	"P05": schema.RegionEurope,
	"P06": schema.RegionEurope,
	"P07": schema.RegionEurope,
	"P08": schema.RegionAsia, // Hongkong orders
	"P09": schema.RegionAsia,
	"P10": schema.RegionAmerica, // San Diego orders
	"P11": schema.RegionAmerica, // US_Eastcoast -> CDB
}

// RegionOfProcess returns the business region whose shard owns the given
// group A/B process type; ok is false for the coordinator-managed group
// C/D types.
func RegionOfProcess(id string) (region string, ok bool) {
	region, ok = processRegions[id]
	return region, ok
}

// MartForRegion returns the data-mart variant serving a business region.
func MartForRegion(region string) (schema.MartVariant, bool) {
	for _, v := range schema.Marts {
		if v.Region == region {
			return v, true
		}
	}
	return schema.MartVariant{}, false
}

// ShardEmit publishes one region's validated batch into the cross-shard
// exchange. The engine's shard controller provides the implementation.
type ShardEmit func(region, tag string, r *rel.Relation)

// emitStep emits the dataset bound to in as the region's batch for tag.
func emitStep(emit ShardEmit, region, tag, in string) mtm.Operator {
	return mtm.Custom{Name: "SHARD_EMIT", Cat: mtm.CostComm, Fn: func(ctx *mtm.Context) error {
		r, err := ctx.Data(in)
		if err != nil {
			return err
		}
		emit(region, tag, r)
		return nil
	}}
}

// regionOrdersPred selects the orders whose city belongs to the region —
// the pushdown form of the region partition. Handing it to the Invoke's
// Pred lets the store evaluate it during its own scan, so a region
// extraction never materializes the other regions' rows into the process
// context. A city outside the catalog matches no region's predicate and
// would surface as a row-count divergence in the shard twin verification.
func regionOrdersPred(region string) rel.Predicate {
	return martCityPred(region)
}

// filterByOrders keeps the orderlines whose Ordkey appears in the region's
// order slice, preserving row order.
func filterByOrders(in, ordersVar, out string) mtm.Operator {
	return mtm.Custom{Name: "FILTER_ORDERS", Cat: mtm.CostProc, Fn: func(ctx *mtm.Context) error {
		lines, err := ctx.Data(in)
		if err != nil {
			return err
		}
		orders, err := ctx.Data(ordersVar)
		if err != nil {
			return err
		}
		ordKeyOrd := orders.Schema().MustOrdinal("Ordkey")
		keys := make(map[int64]struct{}, orders.Len())
		for i := 0; i < orders.Len(); i++ {
			keys[orders.Row(i)[ordKeyOrd].Int()] = struct{}{}
		}
		lineOrd := lines.Schema().MustOrdinal("Ordkey")
		var rows []rel.Row
		for i := 0; i < lines.Len(); i++ {
			row := lines.Row(i)
			if _, ok := keys[row[lineOrd].Int()]; ok {
				rows = append(rows, row)
			}
		}
		sel, err := rel.NewRelation(lines.Schema(), rows)
		if err != nil {
			return err
		}
		ctx.Set(out, mtm.DataMessage(sel))
		return nil
	}}
}

// NewP12RegionExtract builds the per-shard half of the sharded P12: pull
// the cleansed, not-yet-integrated master data of one region from the
// consolidated database, validate it, and emit it into the exchange under
// the "cust_wh" tag. Cleansing and the Product path are global and stay on
// the coordinator.
func NewP12RegionExtract(region string, emit ShardEmit) *mtm.Process {
	notIntegrated := rel.ColEq("Integrated", rel.NewBool(false))
	return &mtm.Process{
		ID: "P12@" + region, Name: "Warehouse master data extraction " + region,
		Group: mtm.GroupC, Event: mtm.E2,
		Ops: []mtm.Operator{
			// The region slice is part of the pushed-down predicate: the
			// store's scan evaluates it, the process only sees its region.
			mtm.Invoke{Service: schema.SysCDB, Operation: mtm.OpQuery,
				Table: "Customer",
				Pred:  rel.And(notIntegrated, rel.ColEq("Region", rel.NewString(region))),
				Out:   "cust_r"},
			mtm.Projection{In: "cust_r", Out: "cust_wh",
				Cols: []string{"Custkey", "Name", "Address", "Phone", "City", "Nation", "Region"}},
			validateStep("cust_wh", schema.WHCustomer),
			emitStep(emit, region, "cust_wh", "cust_wh"),
		},
	}
}

// NewP13RegionExtract builds the per-shard half of the sharded P13:
// extract one region's slice of the cleansed movement data, validate it,
// and emit the order and orderline batches into the exchange. The loads,
// the view refresh and the trailing staging deletes are the coordinator's
// merge step.
func NewP13RegionExtract(region string, emit ShardEmit) *mtm.Process {
	ops := []mtm.Operator{
		// The region partition is pushed into the staging scan: the store
		// evaluates the city predicate while scanning, so only the
		// region's slice ever crosses into the process.
		mtm.Invoke{Service: schema.SysCDB, Operation: mtm.OpQuery,
			Table: "Orders", Pred: regionOrdersPred(region), Out: "ord_r"},
		mtm.Invoke{Service: schema.SysCDB, Operation: mtm.OpQuery,
			Table: "Orderline", Out: "line"},
		mtm.Projection{In: "ord_r", Out: "ord_wh",
			Cols: []string{"Ordkey", "Custkey", "Citykey", "Orderdate", "Status", "Priority", "Totalprice"}},
		validateStep("ord_wh", schema.WHOrders),
		emitStep(emit, region, "ord_wh", "ord_wh"),

		filterByOrders("line", "ord_r", "line_r"),
		mtm.Projection{In: "line_r", Out: "line_wh",
			Cols: []string{"Ordkey", "Pos", "Prodkey", "Quantity", "Extendedprice"}},
		validateStep("line_wh", schema.WHOrderline),
		emitStep(emit, region, "line_wh", "line_wh"),
	}
	return &mtm.Process{
		ID: "P13@" + region, Name: "Warehouse movement data extraction " + region,
		Group: mtm.GroupC, Event: mtm.E2,
		Ops: ops,
	}
}

// NewShardedP12 builds the coordinator variant of P12: cleanse once,
// scatter the per-region customer extractions to the shards (the scatter
// hook is the engine's merge barrier — it returns only when every region's
// batch arrived), then fold the batches into the warehouse in the fixed
// schema.Regions order. The Product path is region-free master data and
// runs on the coordinator exactly as in the unsharded process.
func NewShardedP12(scatter func(*mtm.Context) error) *mtm.Process {
	notIntegrated := rel.ColEq("Integrated", rel.NewBool(false))
	ops := []mtm.Operator{
		mtm.Invoke{Service: schema.SysCDB, Operation: mtm.OpCall,
			Table: "sp_runMasterDataCleansing", Out: "cleansed"},
		mtm.Custom{Name: "SHARD_SCATTER", Cat: mtm.CostComm, Fn: scatter},
	}
	for _, region := range schema.Regions {
		ops = append(ops, mtm.Invoke{Service: schema.SysDWH, Operation: mtm.OpUpsert,
			Table: "Customer", In: ShardVar("cust_wh", region)})
	}
	ops = append(ops,
		mtm.Invoke{Service: schema.SysCDB, Operation: mtm.OpUpdate,
			Table: "Customer", Pred: notIntegrated,
			Set: map[string]rel.Value{"Integrated": rel.NewBool(true)}},

		mtm.Invoke{Service: schema.SysCDB, Operation: mtm.OpQuery,
			Table: "Product", Pred: notIntegrated, Out: "prod"},
		mtm.Projection{In: "prod", Out: "prod_wh",
			Cols: []string{"Prodkey", "Name", "Price", "Groupkey"}},
		validateStep("prod_wh", schema.WHProduct),
		mtm.Invoke{Service: schema.SysDWH, Operation: mtm.OpUpsert,
			Table: "Product", In: "prod_wh"},
		mtm.Invoke{Service: schema.SysCDB, Operation: mtm.OpUpdate,
			Table: "Product", Pred: notIntegrated,
			Set: map[string]rel.Value{"Integrated": rel.NewBool(true)}},
	)
	return &mtm.Process{
		ID: "P12", Name: "Bulk-loading data warehouse master data (sharded)",
		Group: mtm.GroupC, Event: mtm.E2,
		Ops: ops,
	}
}

// NewShardedP13 builds the coordinator variant of P13: cleanse once,
// scatter the per-region movement extractions, then insert the order and
// orderline batches into the warehouse region by region in the fixed
// schema.Regions order — the fact-table fold order (and with it every
// downstream float sum in OrdersMV) therefore depends only on the region
// order, never on the shard count. The view refresh and the staging
// cleanup close the stream exactly as in the unsharded process.
func NewShardedP13(scatter func(*mtm.Context) error) *mtm.Process {
	ops := []mtm.Operator{
		mtm.Invoke{Service: schema.SysCDB, Operation: mtm.OpCall,
			Table: "sp_runMovementDataCleansing", Out: "cleansed"},
		mtm.Custom{Name: "SHARD_SCATTER", Cat: mtm.CostComm, Fn: scatter},
	}
	for _, region := range schema.Regions {
		ops = append(ops, mtm.Invoke{Service: schema.SysDWH, Operation: mtm.OpInsert,
			Table: "Orders", In: ShardVar("ord_wh", region)})
	}
	for _, region := range schema.Regions {
		ops = append(ops, mtm.Invoke{Service: schema.SysDWH, Operation: mtm.OpInsert,
			Table: "Orderline", In: ShardVar("line_wh", region)})
	}
	ops = append(ops,
		mtm.Invoke{Service: schema.SysDWH, Operation: mtm.OpCall,
			Table: "sp_refreshOrdersMV"},
		mtm.Invoke{Service: schema.SysCDB, Operation: mtm.OpDelete, Table: "Orders"},
		mtm.Invoke{Service: schema.SysCDB, Operation: mtm.OpDelete, Table: "Orderline"},
	)
	return &mtm.Process{
		ID: "P13", Name: "Bulk-loading data warehouse movement data (sharded)",
		Group: mtm.GroupC, Event: mtm.E2,
		Ops: ops,
	}
}

// NewP14Region builds the per-shard P14 variant refreshing one region's
// data mart. The warehouse reads are shared-store queries; the mart
// writes are exclusively the owning shard's.
func NewP14Region(region string) (*mtm.Process, error) {
	v, ok := MartForRegion(region)
	if !ok {
		return nil, fmt.Errorf("processes: no data mart serves region %q", region)
	}
	// The refresh pushes the region slice into the warehouse reads:
	// Customer and Orders are scanned under the region predicate inside
	// the store, so each shard pulls only its region's fact rows. The
	// dimension tables and the orderlines (keyed by order, not by city)
	// stay full reads, exactly as in the unsharded process.
	s1 := &mtm.Process{
		ID: "P14_S1@" + region, Name: "Load warehouse data " + region,
		Group: mtm.GroupD, Event: mtm.E2,
		Ops: []mtm.Operator{
			mtm.Invoke{Service: schema.SysDWH, Operation: mtm.OpQuery, Table: "Customer",
				Pred: rel.ColEq("Region", rel.NewString(v.Region)), Out: v.Name + "_cust"},
			mtm.Invoke{Service: schema.SysDWH, Operation: mtm.OpQuery, Table: "Product", Out: "wh_prod"},
			mtm.Invoke{Service: schema.SysDWH, Operation: mtm.OpQuery, Table: "ProductGroup", Out: "wh_group"},
			mtm.Invoke{Service: schema.SysDWH, Operation: mtm.OpQuery, Table: "ProductLine", Out: "wh_line"},
			mtm.Invoke{Service: schema.SysDWH, Operation: mtm.OpQuery, Table: "City", Out: "wh_city"},
			mtm.Invoke{Service: schema.SysDWH, Operation: mtm.OpQuery, Table: "Nation", Out: "wh_nation"},
			mtm.Invoke{Service: schema.SysDWH, Operation: mtm.OpQuery, Table: "Region", Out: "wh_region"},
			mtm.Invoke{Service: schema.SysDWH, Operation: mtm.OpQuery, Table: "Orders",
				Pred: regionOrdersPred(v.Region), Out: v.Name + "_orders"},
			mtm.Invoke{Service: schema.SysDWH, Operation: mtm.OpQuery, Table: "Orderline", Out: "wh_lines"},
		},
	}
	return &mtm.Process{
		ID: "P14@" + region, Name: "Refreshing data mart " + v.Name,
		Group: mtm.GroupD, Event: mtm.E2,
		Ops: []mtm.Operator{
			mtm.Subprocess{Process: s1},
			mtm.Subprocess{Process: newMartLoad(v)},
		},
	}, nil
}

// NewP15Region builds the per-shard P15 variant refreshing one region
// mart's materialized view.
func NewP15Region(region string) (*mtm.Process, error) {
	v, ok := MartForRegion(region)
	if !ok {
		return nil, fmt.Errorf("processes: no data mart serves region %q", region)
	}
	return &mtm.Process{
		ID: "P15@" + region, Name: "Refreshing data mart materialized view " + v.Name,
		Group: mtm.GroupD, Event: mtm.E2,
		Ops: []mtm.Operator{
			mtm.Invoke{Service: v.Name, Operation: mtm.OpCall, Table: "sp_refreshOrdersMV"},
		},
	}, nil
}

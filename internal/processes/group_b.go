package processes

import (
	"strconv"

	"repro/internal/mtm"
	rel "repro/internal/relational"
	"repro/internal/schema"
	"repro/internal/stx"
)

// Group B: data consolidation into the global consolidated database.

// newP04 builds "Receive messages from Vienna": the deep-structured Vienna
// order message is received, enriched with extracted master data (the
// referenced customer's record, fetched from the owning European source),
// translated to the canonical CDB order form, and loaded.
func newP04() *mtm.Process {
	custRef := func(ctx *mtm.Context) (int64, error) {
		msg, err := ctx.XML("msg1")
		if err != nil {
			return 0, err
		}
		return viennaCustRef(msg)
	}
	queryCustomer := func(service string) mtm.Operator {
		return mtm.Invoke{Service: service, Operation: mtm.OpQuery, Table: "Customer",
			Out: "msg2",
			PredFn: func(ctx *mtm.Context) (rel.Predicate, error) {
				ref, err := custRef(ctx)
				if err != nil {
					return nil, err
				}
				return rel.ColEq("Custkey", rel.NewInt(ref)), nil
			}}
	}
	// translate writes the canonical CDB order message from the Vienna
	// message plus the enrichment dataset.
	translate := mtm.Custom{Name: "TRANSLATE", Cat: mtm.CostProc, Fn: func(ctx *mtm.Context) error {
		msg, err := ctx.XML("msg1")
		if err != nil {
			return err
		}
		enrich, err := ctx.Data("msg2")
		if err != nil {
			return err
		}
		cityKey := schema.CityByName("Vienna").Key
		if enrich.Len() > 0 {
			cityKey = enrich.Get(0, "Citykey").Int()
		}
		out, err := appendViennaToCDB(nil, msg, cityKey)
		if err != nil {
			return err
		}
		ctx.Set("msg3", mtm.RawXMLMessage(out))
		return nil
	}}
	ops := []mtm.Operator{
		mtm.Receive{To: "msg1"},
		mtm.Switch{
			Cases: []mtm.SwitchCase{{
				When: func(ctx *mtm.Context) (bool, error) {
					ref, err := custRef(ctx)
					return err == nil && ref < 1_000_000, err
				},
				Ops: []mtm.Operator{queryCustomer(schema.SysBerlinParis)},
			}},
			Else: []mtm.Operator{queryCustomer(schema.SysTrondheim)},
		},
		translate,
	}
	ops = append(ops, loadCDBOrderOps("msg3", -1, schema.SysVienna)...)
	return &mtm.Process{
		ID: "P04", Name: "Receive messages from Vienna",
		Group: mtm.GroupB, Event: mtm.E1,
		Ops: ops,
	}
}

// loadCDBOrderOps converts a CDBOrder XML variable into datasets and
// inserts them into the consolidated database.
func loadCDBOrderOps(docVar string, cityKey int64, src string) []mtm.Operator {
	return []mtm.Operator{
		mtm.Custom{Name: "ASSIGN", Cat: mtm.CostProc, Fn: func(ctx *mtm.Context) error {
			msg, err := ctx.XML(docVar)
			if err != nil {
				return err
			}
			orders, lines, err := CDBOrderFromXML(msg, cityKey, src)
			if err != nil {
				return err
			}
			ctx.Set(docVar+"_orders", mtm.DataMessage(orders))
			ctx.Set(docVar+"_lines", mtm.DataMessage(lines))
			return nil
		}},
		mtm.Invoke{Service: schema.SysCDB, Operation: mtm.OpInsert,
			Table: "Orders", In: docVar + "_orders"},
		mtm.Invoke{Service: schema.SysCDB, Operation: mtm.OpInsert,
			Table: "Orderline", In: docVar + "_lines"},
	}
}

// newExtractEurope builds P05/P06/P07: extract the dataset from a European
// source, filter the location (P05 Berlin, P06 Paris; Trondheim needs no
// filter), rename/map the attributes to the consolidated schema, and load.
// The extraction deliberately scans full tables and filters afterwards —
// the paper's suboptimal process modelling.
func newExtractEurope(id, location, service string) *mtm.Process {
	src := location
	if location == "" {
		src = service
	}
	pred := rel.Predicate(rel.True())
	if location != "" {
		pred = rel.ColEq("Location", rel.NewString(location))
	}
	mapStep := func(name string, fn func(*rel.Relation, string) (*rel.Relation, error), in, out string) mtm.Operator {
		return mtm.Custom{Name: name, Cat: mtm.CostProc, Fn: func(ctx *mtm.Context) error {
			r, err := ctx.Data(in)
			if err != nil {
				return err
			}
			mapped, err := fn(r, src)
			if err != nil {
				return err
			}
			ctx.Set(out, mtm.DataMessage(mapped))
			return nil
		}}
	}
	return &mtm.Process{
		ID: id, Name: "Extract data from " + src,
		Group: mtm.GroupB, Event: mtm.E2,
		Ops: []mtm.Operator{
			// Master data: customers and products.
			mtm.Invoke{Service: service, Operation: mtm.OpQuery, Table: "Customer", Out: "cust_raw"},
			mtm.Selection{In: "cust_raw", Out: "cust_sel", Pred: pred},
			mapStep("TRANSLATE", EuropeCustomerToCDB, "cust_sel", "cust_cdb"),
			mtm.Invoke{Service: schema.SysCDB, Operation: mtm.OpUpsert, Table: "Customer", In: "cust_cdb"},

			mtm.Invoke{Service: service, Operation: mtm.OpQuery, Table: "Product", Out: "prod_raw"},
			mapStep("TRANSLATE", EuropeProductToCDB, "prod_raw", "prod_cdb"),
			mtm.Invoke{Service: schema.SysCDB, Operation: mtm.OpUpsert, Table: "Product", In: "prod_cdb"},

			// Movement data: orders of the location plus their lines.
			mtm.Invoke{Service: service, Operation: mtm.OpQuery, Table: "Orders", Out: "ord_raw"},
			mtm.Selection{In: "ord_raw", Out: "ord_sel", Pred: pred},
			mapStep("TRANSLATE", EuropeOrdersToCDB, "ord_sel", "ord_cdb"),
			mtm.Invoke{Service: schema.SysCDB, Operation: mtm.OpInsert, Table: "Orders", In: "ord_cdb"},

			mtm.Invoke{Service: service, Operation: mtm.OpQuery, Table: "Orderline", Out: "line_raw"},
			// Keep only the lines of the selected orders (join + project).
			mtm.Join{Left: "line_raw", Right: "ord_sel", Out: "line_joined",
				LeftCol: "Ordkey", RightCol: "Ordkey", ClashPrefix: "o_"},
			mtm.Projection{In: "line_joined", Out: "line_sel",
				Cols: []string{"Ordkey", "Pos", "Prodkey", "Amount", "Price"}},
			mapStep("TRANSLATE", EuropeOrderlineToCDB, "line_sel", "line_cdb"),
			mtm.Invoke{Service: schema.SysCDB, Operation: mtm.OpInsert, Table: "Orderline", In: "line_cdb"},
		},
	}
}

// newP08 builds "Receive messages from Hongkong": schema translation of
// the pushed order message, then load into the consolidated database.
func newP08() *mtm.Process {
	hk := schema.CityByName("Hongkong").Key
	ops := []mtm.Operator{
		mtm.Receive{To: "msg1"},
		mtm.Translate{In: "msg1", Out: "msg2", Sheet: SheetHongkongToCDB},
	}
	ops = append(ops, loadCDBOrderOps("msg2", hk, schema.SysHongkong)...)
	return &mtm.Process{
		ID: "P08", Name: "Receive messages from Hongkong",
		Group: mtm.GroupB, Event: mtm.E1,
		Ops: ops,
	}
}

// newP09 builds "Extract wrapped data from Beijing and Seoul": large XML
// result sets are extracted from both web services, translated to the CDB
// schema with two different STX stylesheets, merged with UNION DISTINCT on
// the order, customer and product keys, and loaded.
func newP09() *mtm.Process {
	bj := schema.CityByName("Beijing").Key
	se := schema.CityByName("Seoul").Key

	type feed struct {
		table    string // consolidated table
		wsTable  string // service-side table name (same on both services)
		keyCols  []string
		sheets   map[string]*stx.Stylesheet // per service
		finalize func(r *rel.Relation, service string) (*rel.Relation, error)
		insert   mtm.InvokeOp
	}
	feeds := []feed{
		{
			table: "Customer", wsTable: "Customers", keyCols: []string{"Custkey"},
			sheets: map[string]*stx.Stylesheet{
				schema.SysBeijing: SheetBeijingCustomersRS, schema.SysSeoul: SheetSeoulCustomersRS,
			},
			finalize: func(r *rel.Relation, service string) (*rel.Relation, error) {
				return AsiaCustomersToCDB(r, service)
			},
			insert: mtm.OpUpsert,
		},
		{
			table: "Product", wsTable: "Products", keyCols: []string{"Prodkey"},
			sheets: map[string]*stx.Stylesheet{
				schema.SysBeijing: SheetBeijingProductsRS, schema.SysSeoul: SheetSeoulProductsRS,
			},
			finalize: func(r *rel.Relation, service string) (*rel.Relation, error) {
				return AsiaProductsToCDB(r, service)
			},
			insert: mtm.OpUpsert,
		},
		{
			table: "Orders", wsTable: "Orders", keyCols: []string{"Ordkey"},
			sheets: map[string]*stx.Stylesheet{
				schema.SysBeijing: SheetBeijingOrdersRS, schema.SysSeoul: SheetSeoulOrdersRS,
			},
			finalize: func(r *rel.Relation, service string) (*rel.Relation, error) {
				city := bj
				if service == schema.SysSeoul {
					city = se
				}
				return AsiaOrdersToCDB(r, city, service)
			},
			insert: mtm.OpInsert,
		},
		{
			table: "Orderline", wsTable: "OrderItems", keyCols: []string{"Ordkey", "Pos"},
			sheets: map[string]*stx.Stylesheet{
				schema.SysBeijing: SheetBeijingItemsRS, schema.SysSeoul: SheetSeoulItemsRS,
			},
			finalize: func(r *rel.Relation, service string) (*rel.Relation, error) {
				return AsiaItemsToCDB(r, service)
			},
			insert: mtm.OpInsert,
		},
	}
	var ops []mtm.Operator
	for _, f := range feeds {
		f := f
		var ins []string
		for _, service := range []string{schema.SysBeijing, schema.SysSeoul} {
			service := service
			raw := "raw_" + f.table + "_" + service
			xlat := "xlat_" + f.table + "_" + service
			data := "data_" + f.table + "_" + service
			final := "cdb_" + f.table + "_" + service
			ins = append(ins, final)
			ops = append(ops,
				mtm.Invoke{Service: service, Operation: mtm.OpFetchXML, Table: f.wsTable, Out: raw},
				mtm.Translate{In: raw, Out: xlat, Sheet: f.sheets[service]},
				mtm.ToData{In: xlat, Out: data},
				mtm.Custom{Name: "TRANSLATE", Cat: mtm.CostProc, Fn: func(ctx *mtm.Context) error {
					r, err := ctx.Data(data)
					if err != nil {
						return err
					}
					out, err := f.finalize(r, service)
					if err != nil {
						return err
					}
					ctx.Set(final, mtm.DataMessage(out))
					return nil
				}},
			)
		}
		merged := "merged_" + f.table
		ops = append(ops,
			mtm.UnionDistinct{Ins: ins, Out: merged, KeyCols: f.keyCols},
			mtm.Invoke{Service: schema.SysCDB, Operation: f.insert, Table: f.table, In: merged},
		)
	}
	return &mtm.Process{
		ID: "P09", Name: "Extract wrapped data from Beijing and Seoul",
		Group: mtm.GroupB, Event: mtm.E2,
		Ops: ops,
	}
}

// newP10 builds "Receive error-prone messages from San Diego": validate
// the message against XSD_SanDiego; failures are diverted to the
// failed-data destination, valid messages are translated and loaded.
// The failed-data key is the order number itself: every injected schema
// violation leaves OrderNo intact, and a key derived from the message —
// rather than an arrival-order counter — keeps the failed-data table
// deterministic when concurrent instances fail, which the crash-recovery
// equivalence checks rely on.
func newP10() *mtm.Process {
	insertFailed := []mtm.Operator{
		mtm.Custom{Name: "ASSIGN", Cat: mtm.CostProc, Fn: func(ctx *mtm.Context) error {
			msg, err := ctx.XML("msg1")
			if err != nil {
				return err
			}
			reason := "schema validation failed"
			if rep := ctx.Get("errs"); rep != nil && rep.Doc != nil && len(rep.Doc.Children) > 0 {
				reason = rep.Doc.Children[0].Text
			}
			failID, payload, err := sanDiegoFailed(msg)
			if err != nil {
				return err
			}
			r, err := rel.NewRelation(schema.CDBFailedMessages, []rel.Row{{
				rel.NewInt(failID),
				rel.NewString(schema.SysSanDiego),
				rel.NewString(reason),
				rel.NewString(payload),
			}})
			if err != nil {
				return err
			}
			ctx.Set("failrow", mtm.DataMessage(r))
			return nil
		}},
		mtm.Invoke{Service: schema.SysCDB, Operation: mtm.OpInsert,
			Table: "FailedMessages", In: "failrow"},
	}
	valid := []mtm.Operator{
		mtm.Translate{In: "msg1", Out: "msg2", Sheet: SheetSanDiegoToCDB},
		mtm.Custom{Name: "ASSIGN", Cat: mtm.CostProc, Fn: func(ctx *mtm.Context) error {
			msg, err := ctx.XML("msg2")
			if err != nil {
				return err
			}
			m, err := cdbOrderShape.scan(msg)
			if err != nil {
				return err
			}
			defer scans.Put(m)
			// San Diego messages carry no location; assign the customer's
			// deterministic US city.
			custkey, err := strconv.ParseInt(m.fields[cdbCustkey], 10, 64)
			if err != nil {
				return err
			}
			orders, lines, err := cdbOrderRows(m, USCityKey(custkey), schema.SysSanDiego)
			if err != nil {
				return err
			}
			ctx.Set("orders", mtm.DataMessage(orders))
			ctx.Set("lines", mtm.DataMessage(lines))
			return nil
		}},
		mtm.Invoke{Service: schema.SysCDB, Operation: mtm.OpInsert, Table: "Orders", In: "orders"},
		mtm.Invoke{Service: schema.SysCDB, Operation: mtm.OpInsert, Table: "Orderline", In: "lines"},
	}
	return &mtm.Process{
		ID: "P10", Name: "Receive error-prone messages from San Diego",
		Group: mtm.GroupB, Event: mtm.E1,
		Ops: []mtm.Operator{
			mtm.Receive{To: "msg1"},
			mtm.Validate{In: "msg1", Schema: schema.XSDSanDiego,
				Valid: valid, Invalid: insertFailed, ErrorsTo: "errs"},
		},
	}
}

// newP11 builds "Extract data from CDB America": ship everything
// consolidated in US_Eastcoast to the global consolidated database,
// applying the TPC-H -> CDB schema mapping projections.
func newP11() *mtm.Process {
	mapStep := func(fn func(*rel.Relation, string) (*rel.Relation, error), in, out string) mtm.Operator {
		return mtm.Custom{Name: "TRANSLATE", Cat: mtm.CostProc, Fn: func(ctx *mtm.Context) error {
			r, err := ctx.Data(in)
			if err != nil {
				return err
			}
			mapped, err := fn(r, schema.SysUSEastcoast)
			if err != nil {
				return err
			}
			ctx.Set(out, mtm.DataMessage(mapped))
			return nil
		}}
	}
	return &mtm.Process{
		ID: "P11", Name: "Extract data from CDB America",
		Group: mtm.GroupB, Event: mtm.E2,
		Ops: []mtm.Operator{
			mtm.Invoke{Service: schema.SysUSEastcoast, Operation: mtm.OpQuery, Table: "Customer", Out: "cust"},
			mapStep(TPCHCustomerToCDB, "cust", "cust_cdb"),
			mtm.Invoke{Service: schema.SysCDB, Operation: mtm.OpUpsert, Table: "Customer", In: "cust_cdb"},

			mtm.Invoke{Service: schema.SysUSEastcoast, Operation: mtm.OpQuery, Table: "Part", Out: "part"},
			mapStep(TPCHPartToCDB, "part", "part_cdb"),
			mtm.Invoke{Service: schema.SysCDB, Operation: mtm.OpUpsert, Table: "Product", In: "part_cdb"},

			mtm.Invoke{Service: schema.SysUSEastcoast, Operation: mtm.OpQuery, Table: "Orders", Out: "ord"},
			mapStep(TPCHOrdersToCDB, "ord", "ord_cdb"),
			mtm.Invoke{Service: schema.SysCDB, Operation: mtm.OpInsert, Table: "Orders", In: "ord_cdb"},

			mtm.Invoke{Service: schema.SysUSEastcoast, Operation: mtm.OpQuery, Table: "Lineitem", Out: "line"},
			mapStep(TPCHLineitemToCDB, "line", "line_cdb"),
			mtm.Invoke{Service: schema.SysCDB, Operation: mtm.OpInsert, Table: "Orderline", In: "line_cdb"},
		},
	}
}

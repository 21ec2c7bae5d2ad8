package processes

import (
	"repro/internal/mtm"
	rel "repro/internal/relational"
	"repro/internal/schema"
)

// Group A: source system management.

// newP01 builds "Master data exchange Asia": an XSD_Beijing message is
// received, translated to XSD_Seoul with an STX stylesheet, and sent to
// the Seoul web service.
func newP01() *mtm.Process {
	return &mtm.Process{
		ID: "P01", Name: "Master data exchange Asia",
		Group: mtm.GroupA, Event: mtm.E1,
		Ops: []mtm.Operator{
			mtm.Receive{To: "msg1"},
			mtm.Translate{In: "msg1", Out: "msg2", Sheet: SheetBeijingToSeoul},
			mtm.Invoke{Service: schema.SysSeoul, Operation: mtm.OpSend, In: "msg2"},
		},
	}
}

// newP02 builds "Master data subscription Europe" (Fig. 4): an MDM message
// is received, translated to the Europe schema, and routed by the SWITCH
// on the customer key — Custkey < 1,000,000 updates Berlin/Paris, the rest
// updates Trondheim.
func newP02() *mtm.Process {
	// assignCustomer converts the translated message into a one-row
	// Europe customer dataset and remembers the routing key.
	assignCustomer := mtm.Assign{To: "msg3", Fn: func(ctx *mtm.Context) (*mtm.Message, error) {
		msg, err := ctx.XML("msg2")
		if err != nil {
			return nil, err
		}
		row, _, err := EuropeCustomerRowFromXML(msg)
		if err != nil {
			return nil, err
		}
		r, err := rel.NewRelation(schema.EuropeCustomer, []rel.Row{row})
		if err != nil {
			return nil, err
		}
		return mtm.DataMessage(r), nil
	}}
	custkeyBelow := func(bound int64) func(*mtm.Context) (bool, error) {
		return func(ctx *mtm.Context) (bool, error) {
			r, err := ctx.Data("msg3")
			if err != nil {
				return false, err
			}
			return r.Len() > 0 && r.Get(0, "Custkey").Int() < bound, nil
		}
	}
	return &mtm.Process{
		ID: "P02", Name: "Master data subscription Europe",
		Group: mtm.GroupA, Event: mtm.E1,
		Ops: []mtm.Operator{
			mtm.Receive{To: "msg1"},
			mtm.Translate{In: "msg1", Out: "msg2", Sheet: SheetMDMToEurope},
			assignCustomer,
			mtm.Switch{
				Cases: []mtm.SwitchCase{{
					When: custkeyBelow(1_000_000),
					Ops: []mtm.Operator{
						mtm.Invoke{Service: schema.SysBerlinParis, Operation: mtm.OpUpsert,
							Table: "Customer", In: "msg3"},
					},
				}},
				Else: []mtm.Operator{
					mtm.Invoke{Service: schema.SysTrondheim, Operation: mtm.OpUpsert,
						Table: "Customer", In: "msg3"},
				},
			},
		},
	}
}

// newP03 builds "Local data consolidation America" (Fig. 5): extract the
// datasets of Chicago, Baltimore and Madison, UNION DISTINCT the Orders,
// Customer and Part tables (and the lineitems, keyed by order and line
// number, so the movement data stays complete), and load the result into
// the local consolidated database US_Eastcoast.
func newP03() *mtm.Process {
	sources := []string{schema.SysChicago, schema.SysBaltimore, schema.SysMadison}
	var ops []mtm.Operator
	union := func(table string, keyCols []string) {
		ins := make([]string, len(sources))
		for i, src := range sources {
			v := "msg_" + table + "_" + src
			ins[i] = v
			ops = append(ops, mtm.Invoke{Service: src, Operation: mtm.OpQuery,
				Table: table, Out: v})
		}
		merged := "msg_" + table
		ops = append(ops,
			mtm.UnionDistinct{Ins: ins, Out: merged, KeyCols: keyCols},
			mtm.Invoke{Service: schema.SysUSEastcoast, Operation: mtm.OpInsert,
				Table: table, In: merged},
		)
	}
	union("Orders", []string{"O_Orderkey"})
	union("Customer", []string{"C_Custkey"})
	union("Part", []string{"P_Partkey"})
	union("Lineitem", []string{"L_Orderkey", "L_Linenumber"})
	return &mtm.Process{
		ID: "P03", Name: "Local data consolidation America",
		Group: mtm.GroupA, Event: mtm.E2,
		Ops: ops,
	}
}

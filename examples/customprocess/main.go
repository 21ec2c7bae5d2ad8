// Custom process: shows how to define a new integration process type with
// the MTM operator API and execute it against the scenario topology — the
// way a DIPBench user would model workloads beyond the 15 built-in types.
//
// The example builds a "priority escalation" process: it extracts all open
// orders from the Trondheim source, selects those above a total threshold,
// renames the columns to a reporting schema, and loads the result into a
// fresh reporting table on the warehouse instance.
//
//	go run ./examples/customprocess
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/datagen"
	"repro/internal/monitor"
	"repro/internal/mtm"
	rel "repro/internal/relational"
	"repro/internal/scenario"
	"repro/internal/schema"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

func run(w io.Writer, args []string) error {
	if err := flag.NewFlagSet("customprocess", flag.ContinueOnError).Parse(args); err != nil {
		return err
	}
	// Stand the topology up and load one period of source data.
	s, err := scenario.New(scenario.Options{})
	if err != nil {
		return err
	}
	defer s.Close()
	gen := datagen.MustNew(datagen.Config{Seed: 7, Datasize: 0.05, Dist: datagen.Uniform})
	if err := s.InitializeSources(gen); err != nil {
		return err
	}

	// Create the custom target table on the warehouse instance.
	reportSchema := rel.MustSchema([]rel.Column{
		rel.Col("OrderID", rel.TypeInt),
		rel.Col("CustomerID", rel.TypeInt),
		rel.Col("Amount", rel.TypeFloat),
	}, "OrderID")
	if _, err := s.DB(schema.SysDWH).CreateTable("HighValueOpenOrders", reportSchema); err != nil {
		return err
	}

	// Define the process with MTM operators.
	const threshold = 2000.0
	p := &mtm.Process{
		ID:    "PX1",
		Name:  "High-value open order report",
		Group: mtm.GroupC,
		Event: mtm.E2,
		Ops: []mtm.Operator{
			// Extract: full scan of the Trondheim orders.
			mtm.Invoke{Service: schema.SysTrondheim, Operation: mtm.OpQuery,
				Table: "Orders", Out: "orders"},
			// Select: open orders above the threshold.
			mtm.Selection{In: "orders", Out: "hot", Pred: rel.And(
				rel.ColEq("State", rel.NewString("O")),
				rel.Cmp("Total", rel.OpGt, rel.NewFloat(threshold)),
			)},
			// Map to the reporting schema.
			mtm.Projection{In: "hot", Out: "slim", Cols: []string{"Ordkey", "Custkey", "Total"}},
			mtm.RenameData{In: "slim", Out: "report", Mapping: map[string]string{
				"Ordkey": "OrderID", "Custkey": "CustomerID", "Total": "Amount",
			}},
			// Load into the warehouse reporting table.
			mtm.Invoke{Service: schema.SysDWH, Operation: mtm.OpInsert,
				Table: "HighValueOpenOrders", In: "report"},
		},
	}
	if err := p.Validate(); err != nil {
		return err
	}

	// Execute one instance with cost monitoring attached.
	mon := monitor.New(1)
	rec := mon.StartInstance(p.ID, 0)
	ctx := mtm.NewContext(s.Gateway(), nil, rec)
	err = mtm.Run(p, ctx)
	rec.Finish(err)
	if err != nil {
		return err
	}

	// Inspect the outcome.
	report := s.DB(schema.SysDWH).MustTable("HighValueOpenOrders").Scan()
	fmt.Fprintf(w, "custom process %s (%d operators) loaded %d high-value open orders:\n",
		p.ID, p.OperatorCount(), report.Len())
	sorted, err := report.Sort("Amount")
	if err != nil {
		return err
	}
	for i := 0; i < sorted.Len() && i < 5; i++ {
		fmt.Fprintf(w, "  order %d, customer %d, amount %.2f\n",
			sorted.Get(i, "OrderID").Int(),
			sorted.Get(i, "CustomerID").Int(),
			sorted.Get(i, "Amount").Float())
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, mon.Analyze())
	return nil
}

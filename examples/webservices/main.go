// Web services: stands up the Asia region's web-service substrate
// (Beijing, Seoul, Hongkong over real HTTP on loopback) and drives the two
// Asian integration flows by hand: the P01 master-data exchange
// (Beijing-format message translated to Seoul format with STX) and the P09
// wrapped-data extraction (XML result sets translated to the consolidated
// schema and merged with UNION DISTINCT).
//
//	go run ./examples/webservices
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/datagen"
	"repro/internal/mtm"
	"repro/internal/processes"
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
	if err := flag.NewFlagSet("webservices", flag.ContinueOnError).Parse(args); err != nil {
		return err
	}
	s, err := scenario.New(scenario.Options{})
	if err != nil {
		return err
	}
	defer s.Close()
	gen := datagen.MustNew(datagen.Config{Seed: 99, Datasize: 0.03, Dist: datagen.Skewed})
	if err := s.InitializeSources(gen); err != nil {
		return err
	}
	fmt.Fprintf(w, "application server: %s\n", s.WSBaseURL())
	for _, name := range scenario.WebServiceSystems {
		db := s.WS.Service(name).Database()
		fmt.Fprintf(w, "  %-10s %5d rows (%d customers, %d orders)\n", name, db.TotalRows(),
			db.MustTable("Customers").Len(), db.MustTable("Orders").Len())
	}

	defs, err := processes.New()
	if err != nil {
		return err
	}
	gw := s.Gateway()

	// --- P01: master data exchange Beijing -> Seoul --------------------
	msg := gen.BeijingCustomerMsg(0)
	fmt.Fprintf(w, "\nP01 input (XSD_Beijing):\n  %s\n", msg)
	ctx := mtm.NewContext(gw, mtm.XMLMessage(msg), nil)
	if err := mtm.Run(defs.ByID("P01"), ctx); err != nil {
		return err
	}
	translated, err := ctx.Doc("msg2")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "P01 translated (XSD_Seoul):\n  %s\n", translated)
	// The exchanged customer is now in Seoul's table.
	cid := translated.PathText("CID")
	seoulCustomers, err := s.WSClient(schema.SysSeoul).QueryRelation("Customers")
	if err != nil {
		return err
	}
	found := false
	for i := 0; i < seoulCustomers.Len(); i++ {
		if seoulCustomers.Get(i, "CID").String() == cid {
			found = true
		}
	}
	fmt.Fprintf(w, "customer %s present in Seoul after exchange: %v\n", cid, found)

	// --- P09: wrapped-data extraction Beijing + Seoul -> CDB -----------
	before := s.DB(schema.SysCDB).MustTable("Orders").Len()
	if err := mtm.Run(defs.ByID("P09"), mtm.NewContext(gw, nil, nil)); err != nil {
		return err
	}
	cdb := s.DB(schema.SysCDB)
	fmt.Fprintf(w, "\nP09 extracted wrapped data into the consolidated database:\n")
	fmt.Fprintf(w, "  orders:    %d (was %d)\n", cdb.MustTable("Orders").Len(), before)
	fmt.Fprintf(w, "  customers: %d\n", cdb.MustTable("Customer").Len())
	fmt.Fprintf(w, "  products:  %d\n", cdb.MustTable("Product").Len())

	// Show the dedup at work: count the Beijing/Seoul provenance split.
	ords := cdb.MustTable("Orders").Scan()
	src := map[string]int{}
	for i := 0; i < ords.Len(); i++ {
		src[ords.Get(i, "SrcSystem").Str()]++
	}
	fmt.Fprintf(w, "  provenance after UNION DISTINCT: %v\n", src)
	shared := gen.OrderKeysFor(schema.SysSeoul)[0]
	row := cdb.MustTable("Orders").Lookup(rel.NewInt(shared))
	fmt.Fprintf(w, "  shared order %d kept the %s copy (first union operand wins)\n",
		shared, row[schema.CDBOrders.MustOrdinal("SrcSystem")].Str())
	return nil
}

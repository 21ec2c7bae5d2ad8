// Quickstart: run a small DIPBench configuration end to end and print the
// NAVG+ performance report.
//
//	go run ./examples/quickstart
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/core"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

func run(w io.Writer, args []string) error {
	if err := flag.NewFlagSet("quickstart", flag.ContinueOnError).Parse(args); err != nil {
		return err
	}
	// A small configuration: 2 periods at datasize 0.02 on the federated
	// reference engine, functional clock (no schedule waiting), with the
	// post-phase verification enabled.
	b, err := core.New(core.Config{
		Datasize:  0.02,
		TimeScale: 1.0,
		Periods:   2,
		Seed:      42,
		Engine:    core.EngineFederated,
		FastClock: true,
		Verify:    true,
	})
	if err != nil {
		return err
	}
	defer b.Close()

	res, err := b.Run()
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "executed %d process instances over %d periods in %v\n\n",
		res.Stats.Events, res.Stats.Periods, res.Stats.Elapsed.Round(1e6))
	fmt.Fprint(w, res.Report)
	fmt.Fprintln(w)
	if err := res.Report.Plot(w, b.Config().Datasize); err != nil {
		return err
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, res.Stats.Verification)
	if !res.Stats.Verification.OK() {
		return errors.New("functional verification failed")
	}
	return nil
}

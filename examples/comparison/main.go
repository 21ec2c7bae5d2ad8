// Comparison: runs the identical benchmark configuration against all four
// integration engines — the federated "System A" reference, the optimized
// pipeline engine, the EAI-server-style engine and the ETL-style engine —
// and prints a
// side-by-side NAVG+ table. This is the use the paper designed DIPBench
// for: "we hope that it will be used by research groups and system vendors
// in order to provide comparability concerning the system performance."
//
//	go run ./examples/comparison [-d datasize] [-periods n]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/quality"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("comparison", flag.ContinueOnError)
	d := fs.Float64("d", 0.05, "scale factor datasize")
	periods := fs.Int("periods", 2, "benchmark periods")
	if err := fs.Parse(args); err != nil {
		return err
	}

	engines := []string{core.EngineFederated, core.EnginePipeline, core.EngineEAI, core.EngineETL}
	reports := make(map[string]*monitor.Report, len(engines))
	elapsed := make(map[string]string, len(engines))

	for _, eng := range engines {
		b, err := core.New(core.Config{
			Datasize: *d, TimeScale: 1, Periods: *periods, Seed: 42,
			Engine: eng, FastClock: true, Verify: true,
		})
		if err != nil {
			return err
		}
		res, err := b.Run()
		if err != nil {
			_ = b.Close()
			return err
		}
		if !res.Stats.Verification.OK() {
			fmt.Fprint(w, res.Stats.Verification)
			_ = b.Close()
			return fmt.Errorf("%s: functional verification failed", eng)
		}
		reports[eng] = res.Report
		elapsed[eng] = res.Stats.Elapsed.Round(1e6).String()
		if eng == engines[len(engines)-1] {
			// Show the data-quality state the last engine left behind —
			// identical across engines, since they are functionally
			// equivalent.
			fmt.Fprint(w, quality.Assess(b.Scenario()))
			fmt.Fprintln(w)
		}
		_ = b.Close()
	}

	fmt.Fprintf(w, "NAVG+ per process type [tu], d=%g, %d periods, functional clock:\n\n", *d, *periods)
	fmt.Fprintf(w, "%-6s", "Proc")
	for _, eng := range engines {
		fmt.Fprintf(w, " %12s", eng)
	}
	fmt.Fprintln(w)
	for _, st := range reports[engines[0]].Stats {
		fmt.Fprintf(w, "%-6s", st.Process)
		for _, eng := range engines {
			row := reports[eng].ByProcess(st.Process)
			if row == nil {
				fmt.Fprintf(w, " %12s", "-")
				continue
			}
			fmt.Fprintf(w, " %12.2f", row.NAVGPlus)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "\nwall time per run:")
	for _, eng := range engines {
		fmt.Fprintf(w, "  %s=%s", eng, elapsed[eng])
	}
	fmt.Fprintln(w)
	return nil
}

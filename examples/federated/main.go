// Federated reference experiment: reproduces the experiment pair of the
// paper's Section VI (Figs. 10 and 11) — the federated DBMS reference
// implementation evaluated at datasize d=0.05 and d=0.1, with timescale
// t=1.0 and uniform-distributed datasets — and prints the two performance
// plots plus the observations the paper highlights.
//
//	go run ./examples/federated [-periods n] [-t timescale]
//
// The default runs 3 periods per configuration with an accelerated
// schedule (t=50) so the example finishes in seconds; pass -t 1 -periods
// 100 for the paper's full configuration.
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
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("federated", flag.ContinueOnError)
	periods := fs.Int("periods", 3, "benchmark periods per configuration")
	timeScale := fs.Float64("t", 50, "time scale factor t (paper: 1.0)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	runAt := func(d float64) (*monitor.Report, error) {
		b, err := core.New(core.Config{
			Datasize:     d,
			TimeScale:    *timeScale,
			Distribution: "uniform",
			Periods:      *periods,
			Seed:         42,
			Engine:       core.EngineFederated,
			Verify:       true,
		})
		if err != nil {
			return nil, err
		}
		defer b.Close()
		fmt.Fprintf(w, "== running federated reference implementation: d=%g, t=%g, %d periods ==\n",
			d, *timeScale, *periods)
		res, err := b.Run()
		if err != nil {
			return nil, err
		}
		if res.Stats.Verification != nil && !res.Stats.Verification.OK() {
			fmt.Fprint(w, res.Stats.Verification)
			return nil, errors.New("functional verification failed")
		}
		fmt.Fprintf(w, "executed %d events in %v (%d failures)\n\n",
			res.Stats.Events, res.Stats.Elapsed.Round(1e6), res.Stats.Failures)
		if err := res.Report.Plot(w, d); err != nil {
			return nil, err
		}
		fmt.Fprintln(w)
		return res.Report, nil
	}

	// Fig. 10: d = 0.05.  Fig. 11: d = 0.1.
	rep005, err := runAt(0.05)
	if err != nil {
		return err
	}
	rep010, err := runAt(0.1)
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "== observations (cf. Section VI of the paper) ==")
	// 1. Serialized data-intensive processes vs. concurrent message-driven.
	serialized := []string{"P11", "P12", "P13", "P14", "P15"}
	concurrent := []string{"P01", "P02", "P04", "P08", "P10"}
	avg := func(rep *monitor.Report, ids []string) float64 {
		var sum float64
		n := 0
		for _, id := range ids {
			if st := rep.ByProcess(id); st != nil {
				sum += st.NAVGPlus
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	s, c := avg(rep005, serialized), avg(rep005, concurrent)
	fmt.Fprintf(w, "1. NAVG+ difference at d=0.05: serialized data-intensive avg %.1f tu vs. "+
		"concurrent message-driven avg %.1f tu (x%.1f)\n", s, c, s/c)

	// 2. Impact of doubling d on E1-driven process types.
	fmt.Fprintln(w, "2. raising d from 0.05 to 0.1:")
	for _, id := range []string{"P04", "P08", "P10", "P13"} {
		a, b := rep005.ByProcess(id), rep010.ByProcess(id)
		if a == nil || b == nil {
			continue
		}
		fmt.Fprintf(w, "   %s: NAVG+ %.2f -> %.2f tu (instances %d -> %d)\n",
			id, a.NAVGPlus, b.NAVGPlus, a.Instances, b.Instances)
	}
	return nil
}

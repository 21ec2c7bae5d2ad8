// Command dipmon is the DIPBench Monitor's offline analysis tool: it reads
// a raw per-instance records CSV (written by dipbench -records), computes
// the NAVG+ metric per process type and renders the performance report and
// plot — the paper's "plotting functions for the generation of performance
// diagrams from the measured integration system performance".
//
// With -dlq it switches to the recovery audit: it scans a write-ahead
// log (a wal.log file or the checkpoint directory holding one) and dumps
// every dead-lettered message with its process, period and cause.
//
// With -live it switches to service-mode monitoring: it reads a running
// dipbenchd's /metrics endpoint and renders per-tenant period progress,
// resilience counters, breaker states and admission shed counts. Add
// -watch to refresh until interrupted. The header includes the shared
// scheduler pool (workers, queue depth, steals) and the governor's
// admitted weight; per-tenant SHARE shows weight@utilization, where
// utilization 1.00 means the tenant received exactly its fair share of
// the executed morsels.
//
// Usage:
//
//	dipmon -in records.csv [-t timescale] [-d datasize] [-csv out.csv] [-dat out.dat]
//	dipmon -dlq <wal.log | checkpoint-dir>
//	dipmon -live 127.0.0.1:7717 [-watch]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/monitor"
	"repro/internal/serve"
	"repro/internal/wal"
)

func main() {
	var (
		in      = flag.String("in", "", "raw per-instance records CSV (required)")
		t       = flag.Float64("t", 1.0, "time scale factor used during the run")
		d       = flag.Float64("d", 0.05, "datasize scale factor (plot label only)")
		warmup  = flag.Int("warmup", 0, "discard the first N periods from the metric")
		series  = flag.String("series", "", "print the per-period NAVG development of this process type")
		csvPath = flag.String("csv", "", "write the analyzed report CSV to this path")
		datPath = flag.String("dat", "", "write the gnuplot data file to this path")
		dlqPath = flag.String("dlq", "", "dump the dead-letter queue from this WAL file or checkpoint directory")
		live    = flag.String("live", "", "render a running dipbenchd's live metrics from this address")
		watch   = flag.Bool("watch", false, "with -live: refresh every 2s until interrupted")
	)
	flag.Parse()
	if *live != "" {
		if err := liveMetrics(os.Stdout, *live, *watch); err != nil {
			fatal(err)
		}
		return
	}
	if *dlqPath != "" {
		if err := dumpDLQ(os.Stdout, *dlqPath); err != nil {
			fatal(err)
		}
		return
	}
	if *in == "" {
		fmt.Fprintln(os.Stderr, "dipmon: -in is required")
		flag.Usage()
		os.Exit(2)
	}
	fh, err := os.Open(*in)
	if err != nil {
		fatal(err)
	}
	defer fh.Close()
	m, err := monitor.ReadRecordsCSV(fh, *t)
	if err != nil {
		fatal(err)
	}
	rep := m.AnalyzeFrom(*warmup)
	fmt.Print(rep)
	fmt.Println()
	if err := rep.Plot(os.Stdout, *d); err != nil {
		fatal(err)
	}
	if *series != "" {
		printSeries(m, *series)
	}
	if *csvPath != "" {
		out, err := os.Create(*csvPath)
		if err != nil {
			fatal(err)
		}
		defer out.Close()
		if err := rep.WriteCSV(out); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", *csvPath)
	}
	if *datPath != "" {
		out, err := os.Create(*datPath)
		if err != nil {
			fatal(err)
		}
		defer out.Close()
		if err := rep.WriteGnuplotDat(out); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", *datPath)
	}
}

// printSeries renders the per-period NAVG development of one process type
// as an ASCII chart.
func printSeries(m *monitor.Monitor, process string) {
	points := m.PeriodSeries(process)
	if len(points) == 0 {
		fmt.Printf("\nno records for process %s\n", process)
		return
	}
	maxVal := 0.0
	for _, p := range points {
		if p.NAVG > maxVal {
			maxVal = p.NAVG
		}
	}
	if maxVal == 0 {
		maxVal = 1
	}
	fmt.Printf("\nper-period NAVG of %s [tu]:\n", process)
	const width = 50
	for _, p := range points {
		bar := int(p.NAVG / maxVal * width)
		fmt.Printf("  k=%3d |%-*s| %8.2f (%d inst)\n",
			p.Period, width, strings.Repeat("#", bar), p.NAVG, p.Instances)
	}
}

// dumpDLQ scans a WAL for dead-letter records and prints the audit
// trail. The argument may be the wal.log itself or the checkpoint
// directory containing it.
func dumpDLQ(out *os.File, path string) error {
	if st, err := os.Stat(path); err == nil && st.IsDir() {
		path = filepath.Join(path, "wal.log")
	}
	recs, _, torn, err := wal.ReadAll(path, 0)
	if err != nil {
		return err
	}
	total, byProcess := 0, map[string]int{}
	fmt.Fprintf(out, "dead-letter queue of %s:\n", path)
	for _, r := range recs {
		if r.Type != wal.TypeDLQ {
			continue
		}
		e, err := wal.DecodeDLQEntry(r.Payload)
		if err != nil {
			return fmt.Errorf("corrupt DLQ record at offset %d: %w", r.End, err)
		}
		total++
		byProcess[e.Process]++
		msg := e.Message
		if len(msg) > 60 {
			msg = msg[:57] + "..."
		}
		fmt.Fprintf(out, "  %-4s period %-3d cause=%q message=%q\n", e.Process, e.Period, e.Cause, msg)
	}
	if total == 0 {
		fmt.Fprintln(out, "  (empty)")
	} else {
		procs := make([]string, 0, len(byProcess))
		for p := range byProcess {
			procs = append(procs, p)
		}
		sort.Strings(procs)
		parts := make([]string, 0, len(procs))
		for _, p := range procs {
			parts = append(parts, fmt.Sprintf("%s:%d", p, byProcess[p]))
		}
		fmt.Fprintf(out, "  total %d (%s)\n", total, strings.Join(parts, " "))
	}
	if torn {
		fmt.Fprintln(out, "  note: WAL has a torn tail (records past the tear are unrecoverable)")
	}
	return nil
}

// liveMetrics fetches and renders a dipbenchd /metrics snapshot; with
// watch it refreshes every 2 seconds until interrupted.
func liveMetrics(out *os.File, addr string, watch bool) error {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	client := &http.Client{Timeout: 10 * time.Second}
	for {
		m, err := fetchMetrics(client, addr+"/metrics")
		if err != nil {
			return err
		}
		renderMetrics(out, m)
		if !watch {
			return nil
		}
		time.Sleep(2 * time.Second)
		fmt.Fprintln(out)
	}
}

func fetchMetrics(client *http.Client, url string) (*serve.Metrics, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		return nil, fmt.Errorf("%s: HTTP %d: %s", url, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	var m serve.Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("decode metrics: %w", err)
	}
	return &m, nil
}

// renderMetrics prints the per-tenant progress table.
func renderMetrics(out *os.File, m *serve.Metrics) {
	state := "accepting"
	if m.Draining {
		state = "draining"
	}
	fmt.Fprintf(out, "dipbenchd: %s | running %d queued %d shed %d\n",
		state, m.Running, m.Queued, m.Shed)
	fmt.Fprintf(out, "scheduler: workers %d/%d depth %d dispatches %d steals %d | governor %.3g/%.3g\n",
		m.Sched.Workers, m.Sched.MaxWorkers, m.Sched.QueueDepth,
		m.Sched.Dispatches, m.Sched.Steals, m.Sched.Used, m.Sched.Capacity)
	if len(m.Tenants) == 0 {
		fmt.Fprintln(out, "  (no tenants)")
		return
	}
	fmt.Fprintf(out, "  %-16s %-13s %-14s %8s %8s %-11s %s\n",
		"TENANT", "STATE", "PERIODS", "EVENTS", "FAILURES", "SHARE", "RESILIENCE")
	const width = 10
	for _, t := range m.Tenants {
		done := t.PeriodsDone
		bar := 0
		if t.Periods > 0 {
			bar = done * width / t.Periods
			if bar > width {
				bar = width
			}
		}
		progress := fmt.Sprintf("%3d/%-3d", done, t.Periods)
		resilience := "-"
		if t.Retries > 0 || t.Trips > 0 || t.DeadLetters > 0 {
			resilience = fmt.Sprintf("retries=%d trips=%d dlq=%d", t.Retries, t.Trips, t.DeadLetters)
		}
		open := 0
		for _, st := range t.Breakers {
			if st != "closed" {
				open++
			}
		}
		if open > 0 {
			resilience += fmt.Sprintf(" breakers-open=%d", open)
		}
		stateCol := t.State
		if t.Resumed {
			stateCol += "*"
		}
		share := "-"
		if t.Share > 0 {
			share = fmt.Sprintf("%g", t.Share)
			if t.ShareUtilization > 0 {
				share += fmt.Sprintf("@%.2f", t.ShareUtilization)
			}
		}
		fmt.Fprintf(out, "  %-16s %-13s [%-*s] %s %8d %8d %-11s %s\n",
			t.ID, stateCol, width, strings.Repeat("#", bar), progress, t.Events, t.Failures, share, resilience)
		if t.Error != "" {
			fmt.Fprintf(out, "  %-16s   error: %s\n", "", t.Error)
		}
	}
	fmt.Fprintln(out, "  (* = resumed from checkpoint)")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dipmon:", err)
	os.Exit(1)
}

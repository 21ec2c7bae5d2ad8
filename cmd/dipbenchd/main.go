// Command dipbenchd is the DIPBench service daemon: an HTTP control
// plane hosting many concurrent benchmark runs as isolated tenants.
//
// Usage:
//
//	dipbenchd -data-dir /var/lib/dipbench [flags]
//
// Flags:
//
//	-addr s             listen address (default 127.0.0.1:7717)
//	-data-dir path      tenant state root (required)
//	-max-tenants n      concurrently executing runs (default 4)
//	-max-queue n        admitted-but-waiting runs (default -max-tenants)
//	-watchdog d         per-tenant wall-clock deadline, 0 = unbounded
//	-checkpoint-every n default checkpoint cadence for tenant WALs (default 1)
//	-retry-after d      Retry-After hint on shed submissions (default 5s)
//	-drain-timeout d    max wait for in-flight runs on SIGTERM (default 60s)
//	-sched-workers n    worker bound of the shared morsel scheduler (0 = GOMAXPROCS)
//	-sched-share w      default fair-share weight of tenants (default 1)
//	-kill-after n       chaos: die hard (exit 137) after the Nth completed tenant period
//
// All tenants execute on one process-wide work-stealing scheduler;
// admission reserves fair-share weight (RunSpec.Share, default
// -sched-share) under a governor capacity of max-tenants x sched-share,
// so concurrency is bounded by weight, not by parked goroutines.
//
// Submit runs with POST /runs (a serve.RunSpec JSON body), watch them
// with GET /metrics or `dipmon -live <addr>`. SIGTERM drains: admission
// stops, every in-flight run stops at its next committed stream-barrier
// checkpoint, and a restarted daemon with the same -data-dir resumes
// all unfinished tenants exactly-once.
//
// -kill-after n is the hard-kill chaos plan: the daemon exits 137
// (128+SIGKILL) after the nth completed tenant period, with no drain.
// A restart with the same -data-dir (without the flag) resumes every
// unfinished tenant from its last committed checkpoint.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/fault"
	"repro/internal/sched"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7717", "listen address")
	dataDir := flag.String("data-dir", "", "tenant state root (required)")
	maxTenants := flag.Int("max-tenants", 4, "concurrently executing runs")
	maxQueue := flag.Int("max-queue", 0, "admitted-but-waiting runs (default -max-tenants)")
	watchdog := flag.Duration("watchdog", 0, "per-tenant wall-clock deadline, 0 = unbounded")
	checkpointEvery := flag.Int("checkpoint-every", 1, "default checkpoint cadence for tenant WALs")
	retryAfter := flag.Duration("retry-after", 5*time.Second, "Retry-After hint on shed submissions")
	drainTimeout := flag.Duration("drain-timeout", 60*time.Second, "max wait for in-flight runs on SIGTERM")
	schedWorkers := flag.Int("sched-workers", 0, "worker bound of the shared morsel scheduler (0 = GOMAXPROCS)")
	schedShare := flag.Float64("sched-share", 1, "default fair-share weight of tenants that do not set one")
	killAfter := flag.Int("kill-after", 0, "chaos: die hard (exit 137) after the Nth completed tenant period")
	flag.Parse()

	if *schedWorkers > 0 {
		sched.Default().SetMaxWorkers(*schedWorkers)
	}

	if *dataDir == "" {
		fmt.Fprintln(os.Stderr, "dipbenchd: -data-dir is required")
		os.Exit(2)
	}
	srv, err := serve.NewServer(serve.Options{
		DataDir:         *dataDir,
		MaxTenants:      *maxTenants,
		MaxQueue:        *maxQueue,
		Watchdog:        *watchdog,
		CheckpointEvery: *checkpointEvery,
		RetryAfter:      *retryAfter,
		DefaultShare:    *schedShare,
		Kill:            fault.NewDaemonKill(*killAfter),
		OnKill: func() {
			// The in-repo stand-in for `kill -9 $PID` at a deterministic
			// point: no drain, no flush — a restart on the same -data-dir
			// resumes from the last committed checkpoint.
			// 137 = 128+SIGKILL.
			log.Printf("dipbenchd: daemon-kill fault point fired (after %d periods); dying hard", *killAfter)
			os.Exit(137)
		},
	})
	if err != nil {
		log.Fatalf("dipbenchd: %v", err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("dipbenchd: listen: %v", err)
	}
	hs := &http.Server{
		Handler:      srv.Handler(),
		ReadTimeout:  15 * time.Second,
		WriteTimeout: 30 * time.Second,
		IdleTimeout:  60 * time.Second,
	}
	go func() {
		if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Fatalf("dipbenchd: serve: %v", err)
		}
	}()
	log.Printf("dipbenchd: listening on http://%s (data %s, %d tenants)", ln.Addr(), *dataDir, *maxTenants)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	<-sig
	log.Printf("dipbenchd: draining (timeout %v)", *drainTimeout)

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		log.Printf("dipbenchd: drain incomplete: %v", err)
		_ = hs.Close()
		os.Exit(1)
	}
	if err := hs.Shutdown(ctx); err != nil {
		_ = hs.Close()
	}
	log.Printf("dipbenchd: drained; unfinished tenants resume on restart")
}

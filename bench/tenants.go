package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/driver"
	"repro/internal/monitor"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/wal"
)

// pollEvery is the control-plane polling interval of the tenants
// workload. Period boundaries are observed from outside, as dipmon -live
// observes them: the resolution is one poll, 1-2 % of a tenant period.
const pollEvery = 5 * time.Millisecond

// tenantTrack is what the client saw of one tenant.
type tenantTrack struct {
	id        string
	submitted time.Time
	running   time.Time   // first poll that saw it past "queued"
	ends      []time.Time // first poll that saw periods_done > k
	done      time.Time
	final     serve.TenantMetrics
}

// daemon is an in-process serve.Server behind a loopback listener.
type daemon struct {
	base   string
	client *http.Client
	stop   func() error // drain, shut the listener down, wait for both
}

func startDaemon(w workload, dataDir string) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv, err := serve.NewServer(serve.Options{
		DataDir: dataDir, MaxTenants: w.MaxTenants, MaxQueue: w.Tenants - w.MaxTenants,
		CheckpointEvery: 1,
	})
	if err != nil {
		ln.Close()
		return nil, fmt.Errorf("serve.NewServer: %w", err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	return &daemon{
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Timeout: 30 * time.Second},
		stop: func() error {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			err := srv.Drain(ctx)
			_ = hs.Shutdown(ctx)
			<-served
			return err
		},
	}, nil
}

// submit posts one tenant's RunSpec and returns when it was accepted.
func (d *daemon) submit(spec serve.RunSpec) error {
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	resp, err := d.client.Post(d.base+"/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return nil
}

// watch polls the run list until every tracked tenant is terminal,
// stamping what it sees onto the tracks.
func (d *daemon) watch(tracks []*tenantTrack) error {
	byID := make(map[string]*tenantTrack, len(tracks))
	for _, tr := range tracks {
		byID[tr.id] = tr
	}
	deadline := time.Now().Add(150 * time.Second)
	for open := len(tracks); open > 0; {
		if time.Now().After(deadline) {
			return fmt.Errorf("tenants not terminal after 150 s")
		}
		time.Sleep(pollEvery)
		var list []serve.TenantMetrics
		if err := d.get("/runs", &list); err != nil {
			return err
		}
		now := time.Now()
		for _, tm := range list {
			tr := byID[tm.ID]
			if tr == nil || !tr.done.IsZero() {
				continue
			}
			if tr.running.IsZero() && tm.State != serve.StateQueued {
				tr.running = now
			}
			for len(tr.ends) < tm.PeriodsDone {
				tr.ends = append(tr.ends, now)
			}
			switch tm.State {
			case serve.StateDone, serve.StateFailed, serve.StateCanceled:
				tr.done = now
				tr.final = tm
				open--
			}
		}
	}
	return nil
}

func (d *daemon) get(path string, v any) error {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// runTenantsUnit runs one daemon lifetime: start a serve.Server behind a
// loopback listener, submit every tenant at t0, poll until all are
// terminal, drain. Tenant t runs seed+t.
func runTenantsUnit(w workload, seed uint64, traced bool, run int, outDir string) (*unitResult, error) {
	u := &unitResult{Traced: traced}
	var rec *spanRecorder
	if traced {
		rec = &spanRecorder{run: run}
	}
	dataDir, err := os.MkdirTemp(outDir, "tenants-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dataDir)

	start := time.Now()
	root := rec.open("unit", start, 0)
	d, err := startDaemon(w, dataDir)
	if err != nil {
		return nil, err
	}
	rec.add("serve.NewServer", start, time.Now(), root)

	r0 := readResources()
	tracks := make([]*tenantTrack, w.Tenants)
	var submitMS []float64
	firstSubmit := time.Now()
	for t := range tracks {
		spec := serve.RunSpec{
			Name: fmt.Sprintf("t%d", t), Datasize: w.Datasize, TimeScale: 1,
			Distribution: w.Dist, Periods: w.Periods, Seed: seed + uint64(t),
			Engine: w.Engine, FastClock: true,
		}
		t0 := time.Now()
		err := d.submit(spec)
		t1 := time.Now()
		if err != nil {
			_ = d.stop()
			return nil, fmt.Errorf("submit %s: %w", spec.Name, err)
		}
		rec.add("serve.submit", t0, t1, root)
		submitMS = append(submitMS, ms(t1.Sub(t0)))
		tracks[t] = &tenantTrack{id: spec.Name, submitted: t0}
	}
	var metrics serve.Metrics
	err = d.watch(tracks)
	lastDone := time.Now()
	r1 := readResources()
	if err == nil {
		err = d.get("/metrics", &metrics)
	}
	if serr := d.stop(); err == nil && serr != nil {
		err = fmt.Errorf("drain: %w", serr)
	}
	if err != nil {
		return nil, err
	}
	end := time.Now()
	rec.add("serve.Drain", lastDone, end, root)
	rec.close(root, end)

	// First submit to last tenant done is the workload's wall; the daemon
	// start before it belongs to set-up.
	u.Wall = lastDone.Sub(firstSubmit).Seconds()
	u.SteadyWall = u.Wall
	u.SteadyPeriods = float64(w.Tenants * w.Periods)
	u.CPU = r1.cpu - r0.cpu
	u.Mallocs = r1.mallocs - r0.mallocs
	u.AllocBytes = r1.bytes - r0.bytes
	var firstWarm time.Time
	var walls []float64
	var digests, raw []string
	var dones []time.Time
	for _, tr := range tracks {
		span := rec.add("tenant."+tr.id, tr.running, tr.done, root)
		prev := tr.running
		for k, e := range tr.ends {
			rec.add(fmt.Sprintf("tenant.%s.period.%d", tr.id, k), prev, e, span)
			if k > 0 {
				u.Periods = append(u.Periods, e.Sub(prev).Seconds())
			}
			prev = e
		}
		if len(tr.ends) > 0 && (firstWarm.IsZero() || tr.ends[0].Before(firstWarm)) {
			firstWarm = tr.ends[0]
		}
		walls = append(walls, tr.done.Sub(tr.running).Seconds())
		dones = append(dones, tr.done)
		u.Events += tr.final.Events
		u.Attempted += tr.final.Events + 1 // + the tenant itself ending as it should
		u.Failed += tr.final.Failures + int(tr.final.DeadLetters)
		// The tenant must end done, and its last checkpoint must hold
		// the end of the run: the canonical digest is computed from it.
		digest, err := checkpointDigest(filepath.Join(dataDir, "tenants", tr.id, "wal"), w.Periods)
		if tr.final.State != serve.StateDone || err != nil {
			u.Failed++
			u.Problems = append(u.Problems, fmt.Sprintf("tenant %s ended %s after %d periods: %s %v",
				tr.id, tr.final.State, tr.final.PeriodsDone, tr.final.Error, err))
		}
		raw = append(raw, tr.final.Digest)
		digests = append(digests, digest)
	}
	u.Digest = strings.Join(digests, ",")
	u.RawDigest = strings.Join(raw, ",")
	if !firstWarm.IsZero() {
		u.Setup = firstWarm.Sub(start).Seconds()
	}

	// A finished tenant keeps its governor slot until its Close returns,
	// and Close sometimes blocks for five seconds (README.md, "Findings"):
	// the queued tenants then start that much later. The k-th queued
	// tenant takes the k-th freed slot, so its start against the k-th
	// completion shows the wait. Like a core unit's Close it is reported
	// apart (CloseS, CloseErr), and a unit it hit is left out of the
	// end-to-end medians.
	sort.Slice(dones, func(i, j int) bool { return dones[i].Before(dones[j]) })
	for k, tr := range tracks[w.MaxTenants:] {
		u.CloseS = max(u.CloseS, tr.running.Sub(dones[k]).Seconds())
	}
	if u.CloseS > 2 {
		u.CloseErr = "governor slot held by a tenant blocked in Close"
	}

	if traced && len(u.Problems) == 0 {
		m := metricSet{}
		m["serve.submit_ms"] = median(submitMS)
		var waits []float64
		for _, tr := range tracks[w.MaxTenants:] {
			waits = append(waits, tr.running.Sub(tr.submitted).Seconds())
		}
		m["serve.queue_wait_s"] = mean(waits)
		lo, hi := walls[0], walls[0]
		for _, x := range walls {
			lo, hi = min(lo, x), max(hi, x)
		}
		m["serve.tenant_spread"] = ratio(hi, lo)
		m["serve.shed"] = float64(metrics.Shed)
		var stolen uint64
		for _, tr := range tracks {
			stolen += tr.final.SchedStolen
		}
		m["sched.stolen_per_period"] = float64(stolen) / u.SteadyPeriods
		if err := durabilityLayers(m, w, filepath.Join(dataDir, "tenants"), outDir, rec); err != nil {
			return nil, err
		}
		u.Layers = m
	}
	if rec != nil {
		u.Spans = rec.spans
	}
	return u, nil
}

// checkpointDigest computes a finished tenant's canonical state digest
// from outside the daemon: the last committed checkpoint (taken at the
// final period-end barrier) is restored into a fresh topology and
// digested like a solo run. Besides making the tenant comparable under
// canonicalDigest, this proves the durability write path holds the
// state the run ended in.
func checkpointDigest(dir string, periods int) (string, error) {
	man, err := checkpoint.ReadManifest(dir)
	if err != nil {
		return "", err
	}
	if man.Period != periods-1 || man.Barrier != driver.BarrierPeriodEnd {
		return "", fmt.Errorf("last checkpoint is at period %d barrier %d, not the end of the run", man.Period, man.Barrier)
	}
	blob, err := os.ReadFile(filepath.Join(dir, man.Snapshot))
	if err != nil {
		return "", err
	}
	// The fields of core's snapshot payload this check needs; gob skips
	// the rest.
	var payload struct {
		Databases map[string][]byte
		Ledger    []monitor.LedgerEntry
	}
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&payload); err != nil {
		return "", fmt.Errorf("decode %s: %w", man.Snapshot, err)
	}
	scn, err := scenario.New(scenario.Options{})
	if err != nil {
		return "", err
	}
	defer scn.Close()
	if err := scn.RestoreDatabases(payload.Databases); err != nil {
		return "", err
	}
	mon := monitor.New(1)
	mon.RestoreLedger(payload.Ledger)
	return canonicalDigest(driver.SnapshotIntegrated(scn), mon.LedgerDigest()), nil
}

// durabilityLayers reads what the finished tenants left on disk: the WAL
// (record and byte counts) and the last committed checkpoint, whose
// snapshot is committed once more into a scratch directory to time the
// commit path on its own.
func durabilityLayers(m metricSet, w workload, tenantsDir, outDir string, rec *spanRecorder) error {
	periods := float64(w.Tenants * w.Periods)
	var walBytes, walRecords, commits, snapBytes float64
	var commitMS []float64
	for t := 0; t < w.Tenants; t++ {
		dir := filepath.Join(tenantsDir, fmt.Sprintf("t%d", t), "wal")
		man, err := checkpoint.ReadManifest(dir)
		if err != nil {
			return fmt.Errorf("tenant t%d: %w", t, err)
		}
		recs, end, torn, err := wal.ReadAll(filepath.Join(dir, man.WALFile()), 0)
		if err != nil || torn {
			return fmt.Errorf("tenant t%d: wal torn=%v: %v", t, torn, err)
		}
		walBytes += float64(end)
		walRecords += float64(len(recs))
		commits += float64(man.Seq)
		snapBytes += float64(man.SnapshotSize)
		blob, err := os.ReadFile(filepath.Join(dir, man.Snapshot))
		if err != nil {
			return fmt.Errorf("tenant t%d: %w", t, err)
		}
		scratch, err := os.MkdirTemp(outDir, "commit-*")
		if err != nil {
			return err
		}
		mgr, err := checkpoint.NewManager(scratch)
		if err == nil {
			var d time.Duration
			d, err = timed(rec, "checkpoint.Commit", 3, nil, func() error {
				_, err := mgr.Commit(man.Meta, man.Period, man.Barrier, man.WALOffset, blob)
				return err
			})
			commitMS = append(commitMS, ms(d))
		}
		_ = os.RemoveAll(scratch)
		if err != nil {
			return fmt.Errorf("tenant t%d: %w", t, err)
		}
	}
	m["wal.bytes_per_period"] = walBytes / periods
	m["wal.records_per_period"] = walRecords / periods
	m["checkpoint.commits"] = commits
	m["checkpoint.snapshot_mb"] = mb(snapBytes) / float64(w.Tenants)
	m["checkpoint.commit_ms"] = median(commitMS)
	return nil
}

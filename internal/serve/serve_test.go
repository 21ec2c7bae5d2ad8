package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// daemon spins up a Server plus an httptest front end and tears both
// down at test end.
func daemon(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.DataDir == "" {
		opts.DataDir = t.TempDir()
	}
	s, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
		ts.Close()
	})
	return s, ts
}

// submit posts a RunSpec and returns (id, status code).
func submit(t *testing.T, ts *httptest.Server, spec RunSpec) (string, int) {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ack struct {
		ID string `json:"id"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&ack)
	return ack.ID, resp.StatusCode
}

// status fetches one tenant's metrics.
func status(t *testing.T, ts *httptest.Server, id string) TenantMetrics {
	t.Helper()
	resp, err := http.Get(ts.URL + "/runs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tm TenantMetrics
	if err := json.NewDecoder(resp.Body).Decode(&tm); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	return tm
}

// waitState polls until the tenant reaches one of the wanted states.
func waitState(t *testing.T, ts *httptest.Server, id string, timeout time.Duration, want ...string) TenantMetrics {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		tm := status(t, ts, id)
		for _, w := range want {
			if tm.State == w {
				return tm
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("tenant %s stuck in state %q (want %v, err %q)", id, tm.State, want, tm.Error)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// soloDigest runs the spec's configuration alone — its own full stack,
// its own WAL — and returns the final state digest. Cached per spec.
var (
	soloMu    sync.Mutex
	soloCache = map[string]string{}
)

func soloDigest(t *testing.T, spec RunSpec) string {
	t.Helper()
	spec.Name = ""
	key, _ := json.Marshal(spec)
	soloMu.Lock()
	d, ok := soloCache[string(key)]
	soloMu.Unlock()
	if ok {
		return d
	}
	solo := &tenant{spec: spec, dir: t.TempDir()}
	cfg := solo.coreConfig(1, nil, nil, nil)
	b, err := core.New(cfg)
	if err != nil {
		t.Fatalf("solo run: %v", err)
	}
	defer b.Close()
	if _, err := b.Run(); err != nil {
		t.Fatalf("solo run: %v", err)
	}
	d = b.StateDigest()
	soloMu.Lock()
	soloCache[string(key)] = d
	soloMu.Unlock()
	return d
}

// TestTenantIsolationMatrix is the isolation invariant: N concurrent
// tenants — across engines, the remote-database boundary and fault
// injection — each finish byte-identical to their solo runs. A faulty
// neighbour must be invisible in everyone else's state.
func TestTenantIsolationMatrix(t *testing.T) {
	cases := []struct {
		tenants   int
		variant   string // "pipeline" | "remote"
		faultRate float64
	}{
		{2, "pipeline", 0},
		{2, "pipeline", 0.2},
		{2, "remote", 0},
		{2, "remote", 0.2},
		{4, "pipeline", 0},
		{4, "pipeline", 0.2},
		{4, "remote", 0},
		{4, "remote", 0.2},
	}
	for _, tc := range cases {
		tc := tc
		name := fmt.Sprintf("%dx%s_fault%.1f", tc.tenants, tc.variant, tc.faultRate)
		t.Run(name, func(t *testing.T) {
			_, ts := daemon(t, Options{MaxTenants: tc.tenants})
			specs := make([]RunSpec, tc.tenants)
			ids := make([]string, tc.tenants)
			for i := range specs {
				spec := RunSpec{
					Name:      fmt.Sprintf("tenant-%d", i),
					Datasize:  0.005,
					Periods:   2,
					Seed:      uint64(100 + i),
					FastClock: true,
					FaultRate: tc.faultRate,
				}
				switch tc.variant {
				case "pipeline":
					spec.Engine = "pipeline"
				case "remote":
					spec.RemoteDB = true
				}
				specs[i] = spec
				id, code := submit(t, ts, spec)
				if code != http.StatusAccepted {
					t.Fatalf("submit %d: status %d", i, code)
				}
				ids[i] = id
			}
			for i, id := range ids {
				tm := waitState(t, ts, id, 90*time.Second, StateDone, StateFailed)
				if tm.State != StateDone {
					t.Fatalf("tenant %s failed: %s", id, tm.Error)
				}
				if want := soloDigest(t, specs[i]); tm.Digest != want {
					t.Errorf("tenant %s: digest %s != solo digest %s — isolation broken", id, tm.Digest, want)
				}
			}
		})
	}
}

// slowSpec is a run that takes many real-time seconds: the occupant for
// admission-control and watchdog tests.
func slowSpec(name string) RunSpec {
	return RunSpec{Name: name, Datasize: 0.005, Periods: 50, Seed: 7, TimeScale: 1}
}

// TestAdmissionControlShedsWith429 pins the backpressure contract: with
// one execution slot and one queue slot, the third submission is shed
// with 429 + Retry-After instead of being admitted unboundedly.
func TestAdmissionControlShedsWith429(t *testing.T) {
	_, ts := daemon(t, Options{MaxTenants: 1, MaxQueue: 1, RetryAfter: 7 * time.Second})
	id1, code := submit(t, ts, slowSpec("occupant"))
	if code != http.StatusAccepted {
		t.Fatalf("submit occupant: %d", code)
	}
	waitState(t, ts, id1, 10*time.Second, StateRunning)
	if _, code := submit(t, ts, slowSpec("waiter")); code != http.StatusAccepted {
		t.Fatalf("submit waiter: %d", code)
	}
	body, _ := json.Marshal(slowSpec("shed-me"))
	resp, err := http.Post(ts.URL+"/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submission: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "7" {
		t.Errorf("Retry-After = %q, want \"7\"", ra)
	}
	var m Metrics
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	_ = json.NewDecoder(mresp.Body).Decode(&m)
	mresp.Body.Close()
	if m.Shed != 1 {
		t.Errorf("metrics shed = %d, want 1", m.Shed)
	}
	// A shed run is not a tenant: resubmitting the same name must work
	// once capacity frees up.
	cancelRun(t, ts, id1)
	waitState(t, ts, id1, 10*time.Second, StateCanceled)
	id2 := waitRunning(t, ts, "waiter")
	cancelRun(t, ts, id2)
	waitState(t, ts, id2, 10*time.Second, StateCanceled)
	if _, code := submit(t, ts, RunSpec{Name: "shed-me", Datasize: 0.005, Periods: 1, Seed: 7, FastClock: true}); code != http.StatusAccepted {
		t.Fatalf("resubmission after shed: %d", code)
	}
	waitState(t, ts, "shed-me", 30*time.Second, StateDone)
}

func waitRunning(t *testing.T, ts *httptest.Server, id string) string {
	t.Helper()
	waitState(t, ts, id, 10*time.Second, StateRunning)
	return id
}

func cancelRun(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/runs/"+id+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel %s: status %d", id, resp.StatusCode)
	}
}

// TestWatchdogFailsRunawayTenant pins the per-tenant deadline: a run
// exceeding the watchdog is failed and its slot freed; the daemon stays
// healthy.
func TestWatchdogFailsRunawayTenant(t *testing.T) {
	_, ts := daemon(t, Options{MaxTenants: 1, Watchdog: 300 * time.Millisecond})
	id, code := submit(t, ts, slowSpec("runaway"))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	tm := waitState(t, ts, id, 15*time.Second, StateFailed)
	if tm.Error == "" {
		t.Error("watchdog failure carries no error message")
	}
	// The slot is free again: a well-behaved run completes.
	if _, code := submit(t, ts, RunSpec{Name: "ok", Datasize: 0.005, Periods: 1, Seed: 9, FastClock: true}); code != http.StatusAccepted {
		t.Fatalf("submit after watchdog: %d", code)
	}
	waitState(t, ts, "ok", 30*time.Second, StateDone)
}

// TestBadSpecFailsInIsolation pins the failure boundary: an invalid
// configuration fails its own tenant and nothing else.
func TestBadSpecFailsInIsolation(t *testing.T) {
	_, ts := daemon(t, Options{MaxTenants: 2})
	good := RunSpec{Name: "good", Datasize: 0.005, Periods: 1, Seed: 5, FastClock: true}
	bad := RunSpec{Name: "bad", Datasize: 0.005, Periods: 1, Distribution: "bogus", FastClock: true}
	submit(t, ts, good)
	submit(t, ts, bad)
	if tm := waitState(t, ts, "bad", 30*time.Second, StateFailed); tm.Error == "" {
		t.Error("failed tenant carries no error")
	}
	tm := waitState(t, ts, "good", 30*time.Second, StateDone)
	if want := soloDigest(t, good); tm.Digest != want {
		t.Errorf("good tenant digest diverged next to a failing neighbour")
	}
}

// TestSubmitRejectsUnknownFields pins that a spec naming an option the
// service does not know (such as the removed "incremental" and "shards")
// is refused with a 400 that names the field instead of running without
// it, while a spec with every field the CI service and soak jobs send is
// still accepted.
func TestSubmitRejectsUnknownFields(t *testing.T) {
	_, ts := daemon(t, Options{MaxTenants: 1})
	post := func(body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		msg, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(msg)
	}
	for field, body := range map[string]string{
		"incremental": `{"name":"inc","datasize":0.004,"periods":1,"fast_clock":true,"incremental":true}`,
		"shards":      `{"name":"sh","datasize":0.004,"periods":1,"fast_clock":true,"shards":2}`,
	} {
		code, msg := post(body)
		if code != http.StatusBadRequest || !strings.Contains(msg, `"`+field+`"`) {
			t.Errorf("%s: got %d %q, want 400 naming the field", field, code, msg)
		}
	}
	code, msg := post(`{"name":"ci","datasize":0.004,"periods":1,"seed":21,"fast_clock":true,"engine":"pipeline","share":2}`)
	if code != http.StatusAccepted {
		t.Fatalf("CI-shaped spec: got %d %q, want 202", code, msg)
	}
	waitState(t, ts, "ci", 60*time.Second, StateDone)
}

// TestDrainCheckpointsAndRestartResumes is the graceful-drain contract
// end to end: Drain stops both in-flight tenants at a committed stream
// barrier, a second daemon on the same data dir resumes them, and the
// final digests equal the uninterrupted solo digests — exactly-once.
func TestDrainCheckpointsAndRestartResumes(t *testing.T) {
	dataDir := t.TempDir()
	// 100 fast-clock periods last a few seconds — the drain, fired after
	// the first completed period, is guaranteed to catch both mid-run.
	specs := []RunSpec{
		{Name: "drain-a", Datasize: 0.005, Periods: 100, Seed: 21, FastClock: true},
		{Name: "drain-b", Datasize: 0.005, Periods: 100, Seed: 22, FastClock: true, Engine: "pipeline"},
	}

	s1, err := NewServer(Options{DataDir: dataDir, MaxTenants: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	for _, spec := range specs {
		if _, code := submit(t, ts1, spec); code != http.StatusAccepted {
			t.Fatalf("submit %s: %d", spec.Name, code)
		}
	}
	// Let both runs make some progress, then drain mid-run.
	deadline := time.Now().Add(60 * time.Second)
	for {
		a, b := status(t, ts1, "drain-a"), status(t, ts1, "drain-b")
		if a.PeriodsDone >= 1 && b.PeriodsDone >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("runs made no progress: %+v %+v", a, b)
		}
		time.Sleep(10 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s1.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, spec := range specs {
		tm := status(t, ts1, spec.Name)
		if tm.State != StateCheckpointed {
			t.Fatalf("%s: post-drain state %q, want %q", spec.Name, tm.State, StateCheckpointed)
		}
		if tm.PeriodsDone >= spec.Periods {
			t.Errorf("%s: drained but all %d periods done", spec.Name, spec.Periods)
		}
		// The checkpointed state survives the daemon: tenant.json is what
		// the restarted daemon re-admits from.
		data, err := os.ReadFile(filepath.Join(dataDir, "tenants", spec.Name, "tenant.json"))
		if err != nil {
			t.Fatal(err)
		}
		var rec tenantRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.State != StateCheckpointed {
			t.Errorf("%s: persisted state %q, want %q", spec.Name, rec.State, StateCheckpointed)
		}
	}
	// Draining daemons stop admitting.
	if _, code := submit(t, ts1, RunSpec{Name: "late", Datasize: 0.005, Periods: 1}); code != http.StatusServiceUnavailable {
		t.Errorf("submission to draining daemon: status %d, want 503", code)
	}
	resp, err := http.Get(ts1.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining: %d, want 503", resp.StatusCode)
	}
	ts1.Close()

	// Restart: the second daemon re-admits both tenants and resumes the
	// checkpointed ones.
	s2, err := NewServer(Options{DataDir: dataDir, MaxTenants: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s2.Drain(ctx)
		ts2.Close()
	})
	for _, spec := range specs {
		tm := waitState(t, ts2, spec.Name, 120*time.Second, StateDone, StateFailed)
		if tm.State != StateDone {
			t.Fatalf("%s after restart: %s (%s)", spec.Name, tm.State, tm.Error)
		}
		if want := soloDigest(t, spec); tm.Digest != want {
			t.Errorf("%s: resumed digest %s != solo digest %s — not exactly-once", spec.Name, tm.Digest, want)
		}
	}
}

// TestKillRestartResumes is the hard-kill contract: a daemon killed
// mid-run (Kill, the in-process kill -9 double — no drain, no persist)
// leaves its tenant's durable state as the kill found it, and a new
// daemon on the same data dir re-admits the tenant, resumes it from the
// last committed checkpoint and finishes with the solo digest. The
// remote cell injects faults; breaker trips are order-sensitive
// (wall-clock cooldown), so both cells disable them.
func TestKillRestartResumes(t *testing.T) {
	cases := []struct {
		variant   string // "pipeline" | "remote"
		faultRate float64
	}{
		{"pipeline", 0},
		{"remote", 0.2},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s_fault%.1f", tc.variant, tc.faultRate), func(t *testing.T) {
			dataDir := t.TempDir()
			spec := RunSpec{
				Name: "kr", Datasize: 0.005, Periods: 60, Seed: 33,
				FastClock: true, FaultRate: tc.faultRate,
				BreakerThreshold: 1.1,
			}
			switch tc.variant {
			case "pipeline":
				spec.Engine = "pipeline"
			case "remote":
				spec.RemoteDB = true
			}

			s1, err := NewServer(Options{DataDir: dataDir, MaxTenants: 2})
			if err != nil {
				t.Fatal(err)
			}
			ts1 := httptest.NewServer(s1.Handler())
			if _, code := submit(t, ts1, spec); code != http.StatusAccepted {
				t.Fatalf("submit: %d", code)
			}
			// Kill only after a checkpoint exists (the first period's
			// barriers have committed).
			deadline := time.Now().Add(60 * time.Second)
			for status(t, ts1, spec.Name).PeriodsDone < 1 {
				if time.Now().After(deadline) {
					t.Fatal("run made no progress before the kill")
				}
				time.Sleep(10 * time.Millisecond)
			}
			s1.Kill()
			ts1.Close()

			_, ts2 := daemon(t, Options{DataDir: dataDir, MaxTenants: 2})
			tm := waitState(t, ts2, spec.Name, 180*time.Second, StateDone, StateFailed, StateCanceled)
			if tm.State != StateDone {
				t.Fatalf("restarted run ended %s: %s", tm.State, tm.Error)
			}
			if !tm.Resumed {
				t.Error("restarted run did not resume from a checkpoint")
			}
			if want := soloDigest(t, spec); tm.Digest != want {
				t.Errorf("restarted digest %s != solo digest %s — not exactly-once", tm.Digest, want)
			}
		})
	}
}

// TestHealthAndMetricsEndpoints pins the liveness surface.
func TestHealthAndMetricsEndpoints(t *testing.T) {
	_, ts := daemon(t, Options{MaxTenants: 1})
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d", path, resp.StatusCode)
		}
	}
	spec := RunSpec{Name: "m", Datasize: 0.005, Periods: 2, Seed: 3, FastClock: true, FaultRate: 0.2}
	submit(t, ts, spec)
	waitState(t, ts, "m", 60*time.Second, StateDone)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if len(m.Tenants) != 1 || m.Tenants[0].ID != "m" {
		t.Fatalf("metrics tenants: %+v", m.Tenants)
	}
	if m.Tenants[0].Events == 0 {
		t.Error("metrics carry no event counts")
	}
	if m.Tenants[0].Digest == "" {
		t.Error("terminal tenant has no digest in metrics")
	}
}

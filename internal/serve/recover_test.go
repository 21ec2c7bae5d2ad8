package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/checkpoint"
)

// seedTenantDir fabricates a persisted tenant on disk; with a barrier
// >= 0 it also commits a checkpoint manifest at (period, barrier).
func seedTenantDir(t *testing.T, dataDir, name, state string, period, barrier int) {
	t.Helper()
	dir := filepath.Join(dataDir, "tenants", name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	tn := &tenant{id: name, spec: RunSpec{Name: name, Datasize: 0.005, Periods: 10}, dir: dir}
	if err := tn.persist(state); err != nil {
		t.Fatal(err)
	}
	if barrier >= 0 {
		mgr, err := checkpoint.NewManager(filepath.Join(dir, "wal"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mgr.Commit(checkpoint.Meta{Seed: 1, Periods: 10}, period, barrier, 0, []byte("s")); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoverOrderingDeterministic pins the re-admission order after a
// daemon restart: checkpointed tenants before cold-start ones, earliest
// (period, barrier) first — the tenants farthest behind get capacity
// first — with the name as tiebreak, regardless of directory order.
func TestRecoverOrderingDeterministic(t *testing.T) {
	dataDir := t.TempDir()
	// Alphabetical directory order deliberately disagrees with the
	// wanted admission order.
	seedTenantDir(t, dataDir, "a-cold", StateQueued, 0, -1)
	seedTenantDir(t, dataDir, "b-ahead", StateCheckpointed, 5, 2)
	seedTenantDir(t, dataDir, "c-behind", StateCheckpointed, 1, 0)
	seedTenantDir(t, dataDir, "d-cold", StateRunning, 0, -1) // crashed cold-start
	seedTenantDir(t, dataDir, "e-tiebreak", StateCheckpointed, 1, 0)
	seedTenantDir(t, dataDir, "f-mid", StateDraining, 1, 3)
	seedTenantDir(t, dataDir, "z-done", StateDone, 0, -1)
	// Terminal tenants carry a result and are listed, never re-admitted.
	done := &tenant{id: "z-done", dir: filepath.Join(dataDir, "tenants", "z-done")}
	if err := done.persistResult(resultRecord{State: StateDone, Digest: "d"}); err != nil {
		t.Fatal(err)
	}

	for round := 0; round < 2; round++ {
		s := &Server{opts: Options{DataDir: dataDir}.withDefaults(), tenants: map[string]*tenant{}}
		pending, err := s.recoverTenants()
		if err != nil {
			t.Fatal(err)
		}
		got := make([]string, len(pending))
		for i, tn := range pending {
			got[i] = tn.id
		}
		want := []string{"c-behind", "e-tiebreak", "f-mid", "b-ahead", "a-cold", "d-cold"}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("round %d admission order\n  got  %v\n  want %v", round, got, want)
		}
		if tn := s.tenants["z-done"]; tn == nil || tn.state != StateDone || tn.digest != "d" {
			t.Fatalf("terminal tenant not listed: %+v", tn)
		}
		for _, tn := range pending {
			if tn.state != StateQueued {
				t.Fatalf("pending tenant %s re-admitted in state %q", tn.id, tn.state)
			}
		}
	}
}

// TestRetryAfterTracksBacklog pins the 429 hint derivation: queued
// fair-share weight over governor capacity times the per-turn estimate,
// clamped to [1s, 60s] and rounded up to whole seconds.
func TestRetryAfterTracksBacklog(t *testing.T) {
	mk := func(maxTenants int, retryAfter time.Duration, queued ...float64) *Server {
		s := &Server{
			opts:    Options{DataDir: "unused", MaxTenants: maxTenants, RetryAfter: retryAfter}.withDefaults(),
			tenants: map[string]*tenant{},
		}
		for i, share := range queued {
			id := fmt.Sprintf("q%d", i)
			s.tenants[id] = &tenant{id: id, state: StateQueued, spec: RunSpec{Share: share}}
		}
		// A running tenant is not backlog.
		s.tenants["r"] = &tenant{id: "r", state: StateRunning, spec: RunSpec{Share: 100}}
		return s
	}

	// 8 default-share tenants queued over capacity 4 at 5s per turn: 10s.
	if got := mk(4, 5*time.Second, 1, 1, 1, 1, 1, 1, 1, 1).retryAfterSeconds(); got != 10 {
		t.Errorf("backlog 8 / capacity 4 * 5s = %ds, want 10", got)
	}
	// Heavier shares weigh the backlog: one share-8 tenant == eight 1s.
	if got := mk(4, 5*time.Second, 8).retryAfterSeconds(); got != 10 {
		t.Errorf("share-weighted backlog = %ds, want 10", got)
	}
	// Empty backlog clamps up to the 1s floor.
	if got := mk(4, 5*time.Second).retryAfterSeconds(); got != 1 {
		t.Errorf("empty backlog = %ds, want 1", got)
	}
	// Deep backlog clamps down to the 60s ceiling.
	if got := mk(1, 30*time.Second, 100).retryAfterSeconds(); got != 60 {
		t.Errorf("deep backlog = %ds, want 60", got)
	}
	// Fractional waits round up, never down to 0.
	if got := mk(4, 5*time.Second, 1).retryAfterSeconds(); got != 2 {
		t.Errorf("backlog 1 / capacity 4 * 5s = %ds, want ceil(1.25) = 2", got)
	}
}

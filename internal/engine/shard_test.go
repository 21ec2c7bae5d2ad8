package engine

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/processes"
	rel "repro/internal/relational"
	"repro/internal/schema"
)

func TestSetShardsValidation(t *testing.T) {
	f := newFixture(t)
	e := f.pipeline(t)
	if err := e.SetShards(0); err != nil {
		t.Fatalf("SetShards(0) must be a no-op, got %v", err)
	}
	if e.ShardCount() != 0 {
		t.Fatalf("unsharded engine reports %d shards", e.ShardCount())
	}
	if err := e.SetShards(len(schema.Regions) + 1); err == nil {
		t.Error("shard count above the region count accepted")
	}
	if err := e.SetShards(2); err != nil {
		t.Fatal(err)
	}
	if e.ShardCount() != 2 {
		t.Fatalf("ShardCount = %d, want 2", e.ShardCount())
	}
	if err := e.SetShards(3); err == nil {
		t.Error("re-sharding an already sharded engine accepted")
	}
}

func TestShardOfRegionOwnership(t *testing.T) {
	f := newFixture(t)
	e := f.pipeline(t)
	if err := e.SetShards(3); err != nil {
		t.Fatal(err)
	}
	// One shard per region: every group A/B process lands on the shard
	// owning its business region, in schema.Regions order.
	want := map[string]int{
		"P01": 2,                               // Asia
		"P02": 1,                               // Europe
		"P03": 3,                               // America
		"P04": 1, "P05": 1, "P06": 1, "P07": 1, // Vienna chain (Europe)
		"P08": 2, "P09": 2, // Hongkong (Asia)
		"P10": 3, "P11": 3, // America
	}
	for id, shard := range want {
		if got := e.ShardOf(id); got != shard {
			t.Errorf("ShardOf(%s) = %d, want %d", id, got, shard)
		}
	}
	// Coordinator-managed consolidation and unknown types report shard 0.
	for _, id := range []string{"P12", "P13", "P14", "P15", "nope"} {
		if got := e.ShardOf(id); got != 0 {
			t.Errorf("ShardOf(%s) = %d, want 0", id, got)
		}
	}
}

// TestShardExchangePermutations is the determinism property of the merge
// barrier: whatever order the shards publish their region batches in —
// all 6 completion interleavings of 3 regions, concurrently — the
// coordinator's gather walks schema.Regions in fixed order, so the merged
// fold sequence is always the same.
func TestShardExchangePermutations(t *testing.T) {
	f := newFixture(t)
	e := f.pipeline(t)
	if err := e.SetShards(3); err != nil {
		t.Fatal(err)
	}
	sc := e.shards
	s := rel.MustSchema([]rel.Column{rel.Col("Region", rel.TypeString)})
	batchFor := func(region string) *rel.Relation {
		r, err := rel.NewRelation(s, []rel.Row{{rel.NewString(region)}})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	perms := [][]string{}
	regions := schema.Regions
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			for k := 0; k < 3; k++ {
				if i != j && j != k && i != k {
					perms = append(perms, []string{regions[i], regions[j], regions[k]})
				}
			}
		}
	}
	if len(perms) != 6 {
		t.Fatalf("expected 6 permutations, got %d", len(perms))
	}
	var want string
	for pi, perm := range perms {
		// Publish concurrently in permuted start order, completing in
		// whatever order the scheduler picks.
		var wg sync.WaitGroup
		for _, region := range perm {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sc.put(region, "batch", batchFor(region))
			}()
		}
		wg.Wait()
		got := ""
		for _, region := range regions {
			r := sc.take("batch", region)
			if r == nil {
				t.Fatalf("perm %d: no batch for region %s", pi, region)
			}
			got += r.Row(0)[0].String() + "|"
		}
		if pi == 0 {
			want = got
		} else if got != want {
			t.Fatalf("perm %d: merged order %q diverges from %q", pi, got, want)
		}
	}
	if want != "Europe|Asia|America|" {
		t.Fatalf("merged order %q, want fixed schema.Regions order", want)
	}
}

// TestShardVarKeys pins the exchange key format the controller and the
// region extraction processes share.
func TestShardVarKeys(t *testing.T) {
	seen := map[string]bool{}
	for _, region := range schema.Regions {
		for _, tag := range []string{"cust_wh", "ord_wh", "line_wh"} {
			k := processes.ShardVar(tag, region)
			if seen[k] {
				t.Fatalf("duplicate exchange key %q", k)
			}
			seen[k] = true
		}
	}
}

// TestShardStateRoundTrip checks that a sharded engine's checkpoint
// carries one child state per shard and that restoring into an engine
// with a different shard count fails loudly instead of silently dropping
// shard state.
func TestShardStateRoundTrip(t *testing.T) {
	f := newFixture(t)
	e2 := f.pipeline(t)
	if err := e2.SetShards(2); err != nil {
		t.Fatal(err)
	}
	st, err := e2.CheckpointState()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Shards) != 2 {
		t.Fatalf("checkpoint carries %d shard states, want 2", len(st.Shards))
	}
	if err := e2.RestoreState(st); err != nil {
		t.Fatalf("same-shape restore: %v", err)
	}
	e3 := f.pipeline(t)
	if err := e3.SetShards(3); err != nil {
		t.Fatal(err)
	}
	if err := e3.RestoreState(st); err == nil {
		t.Error("2-shard checkpoint restored into 3-shard engine")
	}
	e0 := f.pipeline(t)
	if err := e0.RestoreState(st); err == nil {
		t.Error("2-shard checkpoint restored into unsharded engine")
	}
}

// TestShardFanRandomizedStress drives the exchange from racing publishers
// with randomized orders and repeated rounds — the -race leg's target.
func TestShardFanRandomizedStress(t *testing.T) {
	f := newFixture(t)
	e := f.pipeline(t)
	if err := e.SetShards(3); err != nil {
		t.Fatal(err)
	}
	sc := e.shards
	s := rel.MustSchema([]rel.Column{rel.Col("N", rel.TypeInt)})
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 50; round++ {
		order := append([]string(nil), schema.Regions...)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var wg sync.WaitGroup
		for n, region := range order {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r, err := rel.NewRelation(s, []rel.Row{{rel.NewInt(int64(n))}})
				if err != nil {
					panic(fmt.Sprintf("relation: %v", err))
				}
				sc.put(region, "t", r)
			}()
		}
		wg.Wait()
		for _, region := range schema.Regions {
			if sc.take("t", region) == nil {
				t.Fatalf("round %d: missing batch for %s", round, region)
			}
		}
	}
}

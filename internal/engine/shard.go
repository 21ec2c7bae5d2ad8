package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/mtm"
	"repro/internal/processes"
	rel "repro/internal/relational"
	"repro/internal/schema"
)

// shardController realizes engine.Options.Shards: the parent engine keeps
// the public Execute surface and owns N child engines, one per shard. Each
// child has its own worker pool and plan cache (its own monitor ledger partition comes from the shard id stamped on its
// records); the process definitions, the external gateway (including the
// resilience wrapper) and the monitor are shared.
//
// Routing:
//   - group A/B processes (P01..P11) belong to exactly one business region
//     (processes.RegionOfProcess) and execute on the owning shard's engine;
//   - P12/P13 run as coordinator processes on the parent: cleansing and
//     the warehouse loads stay global, while the per-region extractions
//     scatter to the shards and rendezvous at the merge barrier;
//   - P14/P15 fan out per region to the owning shards (the marts are
//     region-disjoint stores, so no merge is needed).
//
// Determinism: region batches enter the exchange keyed by (tag, region)
// and are folded into the warehouse in the fixed schema.Regions order
// after ALL shards completed — shard count and shard completion order are
// both invisible in the final state, which is the byte-identity the
// -shards twin tests pin.
type shardController struct {
	parent   *Engine
	children []*Engine
	owner    map[string]int // business region -> child index

	coordP12 *mtm.Process
	coordP13 *mtm.Process
	// regionProcs: base process id ("P12".."P15") -> region -> variant.
	regionProcs map[string]map[string]*mtm.Process

	// period carries the benchmark period of the coordinator instance in
	// flight into the scatter hook. Stream C/D instances are serialized by
	// the driver's barriers, so a single cell suffices.
	period atomic.Int64

	mu      sync.Mutex
	batches map[string]*rel.Relation // ShardVar(tag, region) -> batch
}

// SetShards partitions the engine into n region shards (1 <= n <=
// len(schema.Regions)). Call after SetResilience/SetColumnar and before the first Execute: the children are created with
// the engine's effective options and gateway. n <= 0 is a no-op (the
// engine stays unsharded). Re-sharding an already sharded engine is an
// error.
func (e *Engine) SetShards(n int) error {
	if n <= 0 {
		return nil
	}
	if e.shards != nil {
		return fmt.Errorf("engine: already sharded (%d shards)", len(e.shards.children))
	}
	if n > len(schema.Regions) {
		return fmt.Errorf("engine: at most %d shards (one per region), got %d", len(schema.Regions), n)
	}
	sc := &shardController{
		parent:      e,
		owner:       make(map[string]int, len(schema.Regions)),
		regionProcs: make(map[string]map[string]*mtm.Process),
		batches:     make(map[string]*rel.Relation),
	}
	// The options copy carries the parent's Scheduler handle, so every
	// shard child submits kernel work under the same fair-share identity —
	// a sharded tenant competes as one client, not Shards clients.
	childOpts := e.opts
	childOpts.Shards = 0
	childOpts.Resilience = nil // e.ext is already the resilience-wrapped gateway
	for i := 0; i < n; i++ {
		child, err := New(fmt.Sprintf("%s/shard%d", e.name, i+1), childOpts, e.defs, e.ext, e.mon)
		if err != nil {
			return fmt.Errorf("engine: shard %d: %w", i+1, err)
		}
		child.shardID = i + 1
		sc.children = append(sc.children, child)
	}
	for i, region := range schema.Regions {
		sc.owner[region] = i % n
	}
	emit := sc.put
	for _, base := range []string{"P12", "P13", "P14", "P15"} {
		sc.regionProcs[base] = make(map[string]*mtm.Process, len(schema.Regions))
	}
	for _, region := range schema.Regions {
		sc.regionProcs["P12"][region] = processes.NewP12RegionExtract(region, emit)
		sc.regionProcs["P13"][region] = processes.NewP13RegionExtract(region, emit)
		p14, err := processes.NewP14Region(region)
		if err != nil {
			return err
		}
		p15, err := processes.NewP15Region(region)
		if err != nil {
			return err
		}
		sc.regionProcs["P14"][region] = p14
		sc.regionProcs["P15"][region] = p15
	}
	sc.coordP12 = processes.NewShardedP12(sc.scatter("P12", "cust_wh"))
	sc.coordP13 = processes.NewShardedP13(sc.scatter("P13", "ord_wh", "line_wh"))
	e.shards = sc
	e.opts.Shards = n
	return nil
}

// ShardCount returns the number of region shards (0 when unsharded).
func (e *Engine) ShardCount() int {
	if e.shards == nil {
		return 0
	}
	return len(e.shards.children)
}

// ShardID returns the 1-based shard this engine instance is (0 for an
// unsharded engine and for the coordinating parent).
func (e *Engine) ShardID() int { return e.shardID }

// ShardOf returns the 1-based shard that executes the given process type
// under the current sharding (0 for coordinator-run and unknown types,
// and always 0 on an unsharded engine).
func (e *Engine) ShardOf(processID string) int {
	sc := e.shards
	if sc == nil {
		return 0
	}
	if region, ok := processes.RegionOfProcess(processID); ok {
		return sc.owner[region] + 1
	}
	return 0
}

// shardEngines exposes the children to package-internal tests.
func (e *Engine) shardEngines() []*Engine {
	if e.shards == nil {
		return nil
	}
	return e.shards.children
}

// route dispatches a process execution under sharding. handled is false
// when the process is not shard-managed and the parent should execute it
// on the regular path.
func (sc *shardController) route(ctx context.Context, processID string, input []byte, period int) (handled bool, err error) {
	if region, ok := processes.RegionOfProcess(processID); ok {
		return true, sc.children[sc.owner[region]].ExecuteContext(ctx, processID, input, period)
	}
	var coord *mtm.Process
	switch processID {
	case "P12":
		coord = sc.coordP12
	case "P13":
		coord = sc.coordP13
	case "P14", "P15":
		if input != nil {
			return true, fmt.Errorf("engine: process %s is time-scheduled and takes no message", processID)
		}
		return true, sc.fanOut(ctx, processID, period)
	default:
		return false, nil
	}
	if input != nil {
		return true, fmt.Errorf("engine: process %s is time-scheduled and takes no message", processID)
	}
	sc.period.Store(int64(period))
	return true, sc.parent.executeProcess(ctx, coord, period)
}

// fanOut runs the per-region variants of a group D process concurrently on
// their owning shards and waits for all of them — the period barrier that
// keeps stream D's completion semantics identical to the unsharded engine.
func (sc *shardController) fanOut(ctx context.Context, base string, period int) error {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for _, region := range schema.Regions {
		proc := sc.regionProcs[base][region]
		child := sc.children[sc.owner[region]]
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := child.executeProcess(ctx, proc, period); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr == nil {
		firstErr = ctx.Err()
	}
	return firstErr
}

// scatter builds the coordinator's merge-barrier hook for one group C
// process: run every region's extraction on its owning shard, wait for
// all of them, then bind the exchanged batches — in the fixed
// schema.Regions order — into the coordinator's context for the
// region-ordered warehouse fold.
func (sc *shardController) scatter(base string, tags ...string) func(*mtm.Context) error {
	return func(mctx *mtm.Context) error {
		sc.mu.Lock()
		sc.batches = make(map[string]*rel.Relation)
		sc.mu.Unlock()
		goctx := mctx.Context()
		period := int(sc.period.Load())
		var (
			wg       sync.WaitGroup
			mu       sync.Mutex
			firstErr error
		)
		for _, region := range schema.Regions {
			proc := sc.regionProcs[base][region]
			child := sc.children[sc.owner[region]]
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := child.executeProcess(goctx, proc, period); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		if firstErr != nil {
			return firstErr
		}
		if err := goctx.Err(); err != nil {
			// Cancelled mid-scatter: the extractions wound down without
			// publishing their batches. Surface the cancellation itself, not
			// a misleading "missing batch" merge error.
			return err
		}
		for _, region := range schema.Regions {
			for _, tag := range tags {
				r := sc.take(tag, region)
				if r == nil {
					return fmt.Errorf("engine: shard merge: no %q batch for region %s", tag, region)
				}
				mctx.Set(processes.ShardVar(tag, region), mtm.DataMessage(r))
			}
		}
		return nil
	}
}

// put publishes one region's batch into the exchange (processes.ShardEmit).
func (sc *shardController) put(region, tag string, r *rel.Relation) {
	sc.mu.Lock()
	sc.batches[processes.ShardVar(tag, region)] = r
	sc.mu.Unlock()
}

// take removes and returns a region's batch, nil when absent.
func (sc *shardController) take(tag, region string) *rel.Relation {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	key := processes.ShardVar(tag, region)
	r := sc.batches[key]
	delete(sc.batches, key)
	return r
}

// executeProcess runs an explicit process value through the engine's
// worker pool and instance recording — the execution path for the shard
// controller's dynamically built process variants, which exist outside
// the Definitions registry.
func (e *Engine) executeProcess(ctx context.Context, p *mtm.Process, period int) error {
	if err := e.acquireWorker(ctx); err != nil {
		return err
	}
	defer e.releaseWorker()
	return e.runInstanceRecorded(ctx, p, nil, period)
}

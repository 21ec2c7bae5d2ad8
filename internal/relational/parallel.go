package relational

import "repro/internal/sched"

// Morsel-driven parallelism. Rows are split into fixed-size morsels,
// participants process morsels independently, and per-morsel results are
// stitched back together in morsel order, so a parallel kernel's output is
// row-for-row (and float-bit-for-bit) identical to the sequential row
// kernel. The vectorized kernels (vector_kernels.go) and UnionDistinctPar
// below are the only kernels that run morsels in parallel; every other
// row kernel is sequential, which keeps it the reference the parallel and
// columnar paths are compared against.
//
// Every parallel call is a task set submitted to the process-wide
// work-stealing scheduler in internal/sched, attributed to the relation's
// handle (the tenant or run that owns it — see Relation.WithPool) or the
// default handle when the relation was never attributed. The caller
// always participates in its own set, so kernels never block waiting for
// a worker, and tiny submissions (par <= 1 or fewer than two tasks) run
// inline on the caller without touching the queues at all.

// morselSize is the number of rows a worker claims at a time. Chosen so a
// morsel of typical DIPBench rows stays within L2 while keeping scheduling
// overhead negligible.
const morselSize = 4096

// runTasks submits a task set to the relation's scheduler handle, falling
// back to the process-wide default handle.
func (r *Relation) runTasks(par, tasks int, fn func(task int)) {
	h := r.pool
	if h == nil {
		h = sched.DefaultHandle()
	}
	h.Run(par, tasks, fn)
}

// runMorsels runs fn once per morsel of n rows on the relation's handle,
// passing the morsel index and its [lo, hi) row range.
func (r *Relation) runMorsels(par, n int, fn func(c, lo, hi int)) {
	r.runTasks(par, numMorsels(n), func(c int) {
		lo := c * morselSize
		hi := min(lo+morselSize, n)
		fn(c, lo, hi)
	})
}

// numMorsels returns how many morsels n rows split into.
func numMorsels(n int) int {
	return (n + morselSize - 1) / morselSize
}

// hashedRow pairs a row with its precomputed key hash so the sequential
// merge of UnionDistinctPar does not re-hash survivors.
type hashedRow struct {
	row Row
	h   uint64
}

// UnionDistinctPar is UnionDistinct with morsel-parallel local
// deduplication. Each morsel drops its internal duplicates (which the
// sequential scan would drop too) and keeps survivor rows with precomputed
// hashes; a sequential merge in morsel order then applies the global
// first-occurrence-wins rule, yielding the sequential output exactly.
func (r *Relation) UnionDistinctPar(par int, keyCols []string, others ...*Relation) (*Relation, error) {
	ordinals, err := r.unionOrdinals(keyCols, others)
	if err != nil {
		return nil, err
	}
	total := len(r.rows)
	for _, o := range others {
		total += len(o.rows)
	}
	if par <= 1 || total <= morselSize {
		return r.UnionDistinct(keyCols, others...)
	}
	// Flatten the sources into one scan-order view.
	all := make([]Row, 0, total)
	all = append(all, r.rows...)
	for _, o := range others {
		all = append(all, o.rows...)
	}

	kept := make([][]hashedRow, numMorsels(total))
	r.runMorsels(par, total, func(c, lo, hi int) {
		local := newChain[uint64](hi - lo) // key hash -> index into out
		out := make([]hashedRow, 0, hi-lo)
		for _, row := range all[lo:hi] {
			h := hashRowOn(row, ordinals)
			if _, dup := local.findOrAdd(h, int32(len(out)), func(i int32) bool { return keyEqual(out[i].row, row, ordinals) }); !dup {
				out = append(out, hashedRow{row: row, h: h})
			}
		}
		kept[c] = out
	})

	// Global merge in morsel order: first occurrence wins, as in the
	// sequential scan.
	survivors := 0
	for _, morsel := range kept {
		survivors += len(morsel)
	}
	seen := newChain[uint64](survivors) // key hash -> index into out
	out := make([]Row, 0, survivors)
	for _, morsel := range kept {
		for _, hr := range morsel {
			if _, dup := seen.findOrAdd(hr.h, int32(len(out)), func(i int32) bool { return keyEqual(out[i], hr.row, ordinals) }); !dup {
				out = append(out, hr.row)
			}
		}
	}
	return &Relation{schema: r.schema, rows: out, pool: r.pool}, nil
}

package relational

import "math/bits"

// Vectorized kernels. Each XxxVec method is the batch-layout twin of the
// corresponding row kernel: morsels are converted to typed column vectors
// (filter), carved from one value arena (project) or probed through typed
// hash tables (join), and the result is stitched in morsel order, so
// output rows and row order are bit-identical to the sequential row
// kernel at any parallelism. Inputs the typed fast paths cannot
// represent — float or mistyped keys, uncompilable predicates,
// sub-threshold batches — fall back to the sequential row kernels, and
// every method reports which layout actually ran.

// vecMinRows is the smallest input the vectorized kernels accept; below
// it the per-call compilation and conversion overhead outweighs the
// per-row win and the row kernels run instead.
const vecMinRows = 256

// FilterVec is Select in columnar layout: the predicate is compiled into
// typed bitmap passes (vecpred.go), each morsel extracts only the
// referenced columns, and matching source rows are gathered from the
// selection bitmap — zero per-row materialization, the output shares the
// input's row storage just like the row kernels.
func (r *Relation) FilterVec(par int, pred Predicate) (*Relation, Layout, error) {
	n := len(r.rows)
	if n < vecMinRows {
		out, err := r.Select(pred)
		return out, LayoutRow, err
	}
	prog, ok := compileVecPred(r.schema, pred)
	if !ok {
		out, err := r.Select(pred)
		return out, LayoutRow, err
	}
	outs := make([][]Row, numMorsels(n))
	r.runMorsels(par, n, func(c, lo, hi int) {
		base := r.rows[lo:hi]
		cs := getColSet(r.schema, base)
		for _, ord := range prog.ords {
			cs.loadCol(ord)
		}
		bb := getBitmap(hi - lo)
		prog.eval(cs, bb.w)
		cnt := 0
		for _, w := range bb.w {
			cnt += bits.OnesCount64(w)
		}
		if cnt > 0 {
			out := make([]Row, 0, cnt)
			for wi, w := range bb.w {
				for w != 0 {
					out = append(out, base[wi<<6|bits.TrailingZeros64(w)])
					w &= w - 1
				}
			}
			outs[c] = out
		}
		putBitmap(bb)
		putColSet(cs)
	})
	total := 0
	for _, o := range outs {
		total += len(o)
	}
	if total == 0 {
		return &Relation{schema: r.schema}, LayoutColumnar, nil
	}
	rows := make([]Row, 0, total)
	for _, o := range outs {
		rows = append(rows, o...)
	}
	return &Relation{schema: r.schema, rows: rows}, LayoutColumnar, nil
}

// ProjectVec is Project in batch layout: all output rows are carved out
// of one backing value arena per call instead of one slice allocation per
// row.
func (r *Relation) ProjectVec(par int, names ...string) (*Relation, Layout, error) {
	n := len(r.rows)
	if n < vecMinRows {
		out, err := r.Project(names...)
		return out, LayoutRow, err
	}
	ps, err := r.schema.Project(names...)
	if err != nil {
		return nil, LayoutRow, err
	}
	ordinals := make([]int, len(names))
	for i, nm := range names {
		ordinals[i] = r.schema.MustOrdinal(nm)
	}
	k := len(ordinals)
	backing := make([]Value, n*k)
	rows := make([]Row, n)
	r.runMorsels(par, n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			src := r.rows[i]
			dst := backing[i*k : i*k+k : i*k+k]
			for j, o := range ordinals {
				dst[j] = src[o]
			}
			rows[i] = dst
		}
	})
	return &Relation{schema: ps, rows: rows}, LayoutColumnar, nil
}

// vecKeyType reports whether a column type can key the typed hash tables.
// Float keys are excluded: Compare equates NaN with everything and +0
// with -0, which no native map key reproduces, so float-keyed joins keep
// the row kernels.
func vecKeyType(t Type) bool { return intBacked(t) || t == TypeString }

// HashJoinVec is Join with a typed build and probe: the hash table maps
// raw int64 or string key payloads to right-row indices, so build and
// probe skip the per-byte FNV hashing and Value dispatch of the row
// kernel. Requires identically typed, non-float join columns; output
// rows are carved from per-morsel arenas in the exact order the row
// kernel emits them.
func (r *Relation) HashJoinVec(par int, o *Relation, leftCol, rightCol, clashPrefix string) (*Relation, Layout, error) {
	spec, err := r.joinSpec(o, leftCol, rightCol, clashPrefix)
	if err != nil {
		return nil, LayoutRow, err
	}
	lt := r.schema.Columns[spec.li].Type
	rt := o.schema.Columns[spec.ri].Type
	if lt != rt || !vecKeyType(lt) ||
		(len(r.rows) < vecMinRows && len(o.rows) < vecMinRows) {
		out, err := r.Join(o, leftCol, rightCol, clashPrefix)
		return out, LayoutRow, err
	}
	li, ri := spec.li, spec.ri

	// Typed build over the right side, in row order so per-key candidate
	// lists replay exactly like the row kernel's buckets. A value whose
	// runtime type disagrees with the declared column type would change
	// the row kernel's hashing — surrender to it instead of guessing.
	useStr := lt == TypeString
	var intTab chain[int64]
	var strTab chain[string]
	if useStr {
		strTab = newChain[string](len(o.rows))
	} else {
		intTab = newChain[int64](len(o.rows))
	}
	for i, row := range o.rows {
		v := row[ri]
		if v.typ == TypeNull {
			continue
		}
		if v.typ != rt {
			out, err := r.Join(o, leftCol, rightCol, clashPrefix)
			return out, LayoutRow, err
		}
		if useStr {
			strTab.add(v.s, int32(i))
		} else {
			intTab.add(v.i, int32(i))
		}
	}

	// Probe pass 1: per-morsel match counts (and the same mistyped-key
	// surrender as the build side).
	nl := len(r.rows)
	nm := numMorsels(nl)
	counts := make([]int, nm)
	bad := make([]bool, nm)
	r.runMorsels(par, nl, func(c, lo, hi int) {
		total := 0
		for _, lrow := range r.rows[lo:hi] {
			k := lrow[li]
			if k.typ == TypeNull {
				continue
			}
			if k.typ != lt {
				bad[c] = true
				return
			}
			if useStr {
				total += strTab.count(k.s)
			} else {
				total += intTab.count(k.i)
			}
		}
		counts[c] = total
	})
	for _, b := range bad {
		if b {
			out, err := r.Join(o, leftCol, rightCol, clashPrefix)
			return out, LayoutRow, err
		}
	}

	// Probe pass 2: assemble output rows into exact-size per-morsel arenas.
	w := len(spec.schema.Columns)
	outs := make([][]Row, nm)
	r.runMorsels(par, nl, func(c, lo, hi int) {
		if counts[c] == 0 {
			return
		}
		arena := make([]Value, counts[c]*w)
		out := make([]Row, 0, counts[c])
		next := 0
		var cands []int32
		for _, lrow := range r.rows[lo:hi] {
			k := lrow[li]
			if k.typ == TypeNull {
				continue
			}
			if useStr {
				cands = strTab.appendIDs(cands[:0], k.s)
			} else {
				cands = intTab.appendIDs(cands[:0], k.i)
			}
			for _, rc := range cands {
				dst := arena[next : next+w : next+w]
				next += w
				copy(dst, lrow)
				rrow := o.rows[rc]
				for j, ro := range spec.rightKeep {
					dst[len(lrow)+j] = rrow[ro]
				}
				out = append(out, dst)
			}
		}
		outs[c] = out
	})
	total := 0
	for _, m := range outs {
		total += len(m)
	}
	if total == 0 {
		return &Relation{schema: spec.schema}, LayoutColumnar, nil
	}
	rows := make([]Row, 0, total)
	for _, m := range outs {
		rows = append(rows, m...)
	}
	return &Relation{schema: spec.schema, rows: rows}, LayoutColumnar, nil
}

package relational

import (
	"math"
	"math/bits"
)

// Vectorized kernels. Each XxxVec method is the batch-layout twin of the
// corresponding row kernel: morsels are converted to typed column vectors
// (filter) or processed through typed hash tables and accumulators (join,
// fused extend+group-by), and the result is stitched in morsel order, so
// output rows, row order and float summation order are bit-identical to
// the sequential row kernel at any parallelism. Inputs the typed fast paths cannot
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
// with -0, which no native map key reproduces, so float-keyed joins and
// groupings keep the row kernels.
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

// vecAggKind dispatches one aggregate's typed fold.
type vecAggKind uint8

const (
	vaCount vecAggKind = iota
	vaSumInt
	vaSumFloat
	vaAvgInt
	vaAvgFloat
	vaMinInt // int-backed: BIGINT, BOOLEAN, TIMESTAMP
	vaMinFloat
	vaMinStr
	vaMaxInt
	vaMaxFloat
	vaMaxStr
)

// vecAggPlan is the compiled form of one AggSpec against the input schema.
type vecAggPlan struct {
	kind vecAggKind
	ord  int  // input ordinal; -1 for COUNT(*)
	typ  Type // declared input column type (reboxing min/max results)
}

// compileVecAggs maps the group spec's aggregates onto typed folds;
// ok=false (unsupported input types) keeps the row kernel.
func compileVecAggs(spec *groupSpec) ([]vecAggPlan, bool) {
	plans := make([]vecAggPlan, len(spec.aggs))
	for i, a := range spec.aggs {
		ord := spec.aOrd[i]
		p := vecAggPlan{ord: ord}
		var t Type
		if ord >= 0 {
			t = spec.in.Columns[ord].Type
		}
		switch a.Func {
		case "count":
			p.kind = vaCount
		case "sum", "avg":
			isAvg := a.Func == "avg"
			switch t {
			case TypeInt:
				if isAvg {
					p.kind = vaAvgInt
				} else {
					p.kind = vaSumInt
				}
			case TypeFloat:
				if isAvg {
					p.kind = vaAvgFloat
				} else {
					p.kind = vaSumFloat
				}
			default:
				return nil, false
			}
		case "min", "max":
			isMax := a.Func == "max"
			switch {
			case intBacked(t):
				if isMax {
					p.kind = vaMaxInt
				} else {
					p.kind = vaMinInt
				}
			case t == TypeFloat:
				if isMax {
					p.kind = vaMaxFloat
				} else {
					p.kind = vaMinFloat
				}
			case t == TypeString:
				if isMax {
					p.kind = vaMaxStr
				} else {
					p.kind = vaMinStr
				}
			default:
				return nil, false
			}
		default:
			return nil, false
		}
		p.typ = t
		plans[i] = p
	}
	return plans, true
}

// vecAggState is the typed running state of one aggregate in one group —
// the flat mirror of aggAcc.
type vecAggState struct {
	count int64
	isum  int64
	fsum  float64
	ival  int64
	fval  float64
	sval  string
	has   bool
}

// fold applies one non-NULL input cell. The caller has already verified
// the cell's runtime type against the plan (phase-1 lane checks).
func (st *vecAggState) fold(kind vecAggKind, v Value) {
	st.count++
	switch kind {
	case vaSumInt, vaAvgInt:
		st.isum += v.i
		st.fsum += float64(v.i)
	case vaSumFloat, vaAvgFloat:
		st.fsum += v.f()
	case vaMinInt:
		if !st.has || v.i < st.ival {
			st.ival, st.has = v.i, true
		}
	case vaMaxInt:
		if !st.has || v.i > st.ival {
			st.ival, st.has = v.i, true
		}
	case vaMinFloat:
		// Strict Compare(v, cur) < 0: NaN never displaces and is never
		// displaced — same as aggAcc.
		if f := v.f(); !st.has || f < st.fval {
			st.fval, st.has = f, true
		}
	case vaMaxFloat:
		if f := v.f(); !st.has || f > st.fval {
			st.fval, st.has = f, true
		}
	case vaMinStr:
		if !st.has || v.s < st.sval {
			st.sval, st.has = v.s, true
		}
	case vaMaxStr:
		if !st.has || v.s > st.sval {
			st.sval, st.has = v.s, true
		}
	}
}

// vecOrderExact reports whether a lane's fold is order-insensitive and
// merges exactly across morsels: COUNT, and SUM/MIN/MAX over int-backed
// or string inputs. Every float fold — SUM/MIN/MAX over floats, and AVG
// whose running sum is a float even for int inputs — depends on the
// sequential operation order for bit-identity (addition order, NaN and
// ±0 tie-breaking) and must replay in global row order instead.
func vecOrderExact(kind vecAggKind) bool {
	switch kind {
	case vaCount, vaSumInt, vaMinInt, vaMaxInt, vaMinStr, vaMaxStr:
		return true
	}
	return false
}

// merge folds another morsel's partial state into st. Only valid for
// order-exact lanes, whose folds are associative and commutative at the
// bit level (first-wins ties are unobservable: equal ints and equal
// strings are indistinguishable payloads).
func (st *vecAggState) merge(kind vecAggKind, o *vecAggState) {
	st.count += o.count
	switch kind {
	case vaSumInt:
		st.isum += o.isum
		st.fsum += o.fsum
	case vaMinInt:
		if o.has && (!st.has || o.ival < st.ival) {
			st.ival, st.has = o.ival, true
		}
	case vaMaxInt:
		if o.has && (!st.has || o.ival > st.ival) {
			st.ival, st.has = o.ival, true
		}
	case vaMinStr:
		if o.has && (!st.has || o.sval < st.sval) {
			st.sval, st.has = o.sval, true
		}
	case vaMaxStr:
		if o.has && (!st.has || o.sval > st.sval) {
			st.sval, st.has = o.sval, true
		}
	}
}

// vecExactLanes classifies the plan's lanes: exact[j] marks a lane whose
// per-morsel states merge bit-exactly; replay is true when at least one
// lane needs the ordered phase-2 sweep (and thus row-index lists).
func vecExactLanes(plans []vecAggPlan) (exact []bool, replay bool) {
	exact = make([]bool, len(plans))
	for j, p := range plans {
		exact[j] = vecOrderExact(p.kind)
		if !exact[j] {
			replay = true
		}
	}
	return exact, replay
}

// vecEmitAggs renders the aggregate lanes of one group into dst,
// mirroring groupSpec.emit's NULL-on-empty cases exactly.
func vecEmitAggs(dst []Value, plans []vecAggPlan, states []vecAggState, rowCount int64) {
	for j := range plans {
		p := &plans[j]
		st := &states[j]
		var v Value // NULL unless set below — matching emit's zero cases
		switch p.kind {
		case vaCount:
			if p.ord >= 0 {
				v = Value{typ: TypeInt, i: st.count}
			} else {
				v = Value{typ: TypeInt, i: rowCount}
			}
		case vaSumInt:
			if st.count > 0 {
				v = Value{typ: TypeInt, i: st.isum}
			}
		case vaSumFloat:
			if st.count > 0 {
				v = NewFloat(st.fsum)
			}
		case vaAvgInt, vaAvgFloat:
			if st.count > 0 {
				v = NewFloat(st.fsum / float64(st.count))
			}
		case vaMinInt, vaMaxInt:
			if st.has {
				v = Value{typ: p.typ, i: st.ival}
			}
		case vaMinFloat, vaMaxFloat:
			if st.has {
				v = NewFloat(st.fval)
			}
		case vaMinStr, vaMaxStr:
			if st.has {
				v = Value{typ: TypeString, s: st.sval}
			}
		}
		dst[j] = v
	}
}

// vecLaneCheck is one phase-1 type obligation: a touched column whose
// cells must carry the declared runtime type (and, for float SUM/AVG
// inputs, stay finite — see GroupAggExtVec).
type vecLaneCheck struct {
	ord    int
	typ    Type
	finite bool
}

// vecLaneChecks collects the obligations for the group keys and every
// referenced aggregate input lane.
func vecLaneChecks(schema *Schema, spec *groupSpec, plans []vecAggPlan) []vecLaneCheck {
	checks := make([]vecLaneCheck, 0, len(spec.gOrd)+len(plans))
	for _, o := range spec.gOrd {
		checks = append(checks, vecLaneCheck{ord: o, typ: schema.Columns[o].Type})
	}
	for _, p := range plans {
		if p.ord >= 0 {
			finite := p.kind == vaSumFloat || p.kind == vaAvgFloat
			checks = append(checks, vecLaneCheck{ord: p.ord, typ: p.typ, finite: finite})
		}
	}
	return checks
}

// vecCheckRow verifies one row against the lane obligations.
// f-f is 0 for finite f and NaN for ±Inf/NaN.
func vecCheckRow(row Row, checks []vecLaneCheck) bool {
	for i := range checks {
		ch := &checks[i]
		cell := row[ch.ord]
		if cell.typ == TypeNull {
			continue
		}
		if cell.typ != ch.typ {
			return false
		}
		if ch.finite && cell.f()-cell.f() != 0 {
			return false
		}
	}
	return true
}

// vecHashSeed starts the typed key hash chain.
const vecHashSeed = 0x9e3779b97f4a7c15

// vecNullKey is the mix constant standing in for a NULL key lane.
const vecNullKey = 0x9ae16a3b2f90404f

// mix64 folds one 64-bit key lane into the hash (a Murmur3-style
// finalizer step). The grouping hash is internal — group order and
// equality come from first occurrences and typed comparisons, so this
// hash only has to distribute well, not match the row kernel's FNV.
func mix64(h, k uint64) uint64 {
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	return (h ^ k) * vecHashSeed
}

// vecHashKey hashes the row's key lanes with typed mixing: int-backed
// lanes cost one multiply chain instead of a per-byte FNV loop.
func vecHashKey(row Row, ords []int) uint64 {
	h := uint64(vecHashSeed)
	for _, o := range ords {
		v := row[o]
		var k uint64
		switch v.typ {
		case TypeNull:
			k = vecNullKey
		case TypeString:
			f := newFNV()
			f.writeString(v.s)
			k = f.sum()
		default:
			k = uint64(v.i)
		}
		h = mix64(h, k)
	}
	return h
}

// vecKeyRowsEqual compares two rows on the key lanes with typed equality.
// For the eligible key types (int-backed, string) it agrees exactly with
// keyMatches' Compare loop, NULL-equals-NULL included.
func vecKeyRowsEqual(a, b Row, ords []int) bool {
	for _, o := range ords {
		x, y := a[o], b[o]
		if x.typ != y.typ {
			return false
		}
		switch x.typ {
		case TypeNull:
		case TypeString:
			if x.s != y.s {
				return false
			}
		default:
			if x.i != y.i {
				return false
			}
		}
	}
	return true
}

// vecLocalGroup is one group discovered within a morsel: its first
// extended row (its key cells, which may live past the source schema),
// the order-exact lanes' partial states, and — only when an
// order-sensitive lane needs the phase-2 replay — the first and last of
// its rows, linked in ascending order through the kernel's next array.
type vecLocalGroup struct {
	wide       Row
	hash       uint64
	rows       int64
	states     []vecAggState
	head, tail int32
}

// vecMergedGroup is a group after the cross-morsel merge: the exact
// lanes' states merged in morsel order and, only when an order-sensitive
// lane exists, the ends of its row list — the local lists joined in
// morsel order, so it runs in global row order for the replay.
type vecMergedGroup struct {
	wide       Row
	rows       int64
	states     []vecAggState
	head, tail int32
}

// GroupAggExtVec fuses ExtendMany with a grouped aggregation: each row
// is extended with the computed columns and folded into its group in the
// same pass, so the extended relation — the widest intermediate of the
// analytics chains — is never materialized. The output is bit-identical
// to ExtendMany followed by GroupBy: group keys are the first-seen
// row's cells (computed cells included), groups emit in first-seen
// order, and float sums fold in scan order.
//
// Groups are found through a cheap multiply-mix hash and payload-level
// key comparisons, and each aggregate folds into a flat typed
// accumulator instead of the per-row Value switch of aggAcc. Group keys
// must be int-backed or string (never float); unsupported shapes and
// mistyped cells fall back to the row kernels. So does any non-finite
// value in a float SUM/AVG lane: when both addends of a float addition
// are NaN, the surviving NaN payload is chosen by instruction operand
// order — an IEEE-legal code-shape detail a separately compiled fold
// cannot promise to reproduce, so those sums stay on the row kernel's
// own code.
//
// The fusion holds under parallelism too: the ExtendFn purity contract
// licenses re-running fn on already-visited rows, so the parallel path
// extends into per-worker scratch rows during the phase-1 partition and
// re-extends only the order-sensitive float lanes' rows during the
// ordered phase-2 replay — never materializing the wide relation.
// Anything vectorization rejects takes the row kernels wholesale.
func (r *Relation) GroupAggExtVec(par int, cols []Column, fn ExtendFn, groupCols []string, aggs []AggSpec) (*Relation, Layout, error) {
	n := len(r.rows)
	rowFallback := func() (*Relation, Layout, error) {
		ext, err := r.ExtendMany(cols, fn)
		if err != nil {
			return nil, LayoutRow, err
		}
		out, err := ext.GroupBy(groupCols, aggs)
		return out, LayoutRow, err
	}
	if n < vecMinRows || n > math.MaxInt32 {
		return rowFallback()
	}
	all := make([]Column, len(r.schema.Columns)+len(cols))
	copy(all, r.schema.Columns)
	copy(all[len(r.schema.Columns):], cols)
	es, err := NewSchema(all, r.schema.KeyNames()...)
	if err != nil {
		return nil, LayoutRow, err
	}
	spec, err := (&Relation{schema: es}).groupSpec(groupCols, aggs)
	if err != nil {
		return nil, LayoutRow, err
	}
	for _, o := range spec.gOrd {
		if !vecKeyType(es.Columns[o].Type) {
			return rowFallback()
		}
	}
	plans, ok := compileVecAggs(spec)
	if !ok {
		return rowFallback()
	}
	// The typed folds read raw payloads, trusting declared column types;
	// the scans verify that trust for every touched lane, and a mistyped
	// or (in a float SUM/AVG lane) non-finite cell surrenders the whole
	// call to the row kernels.
	checks := vecLaneChecks(es, spec, plans)
	k := len(r.schema.Columns)
	w := len(all)
	if par > 1 && numMorsels(n) > 1 {
		out, ok := r.groupAggExtVecParallel(par, spec, plans, checks, fn, k, w)
		if !ok {
			return rowFallback()
		}
		return out, LayoutColumnar, nil
	}
	// Sequential: extend each row into a reused scratch tail and fold it
	// into its group's typed states as it is scanned, so the float-sum
	// order is the scan order by construction. Only a group's first wide
	// row is retained (one copy per group, for key emission and probe
	// comparisons); group structs, states and first rows come from
	// chunked arenas so tiny groups cost no heap objects of their own.
	scratch := make(Row, w)
	ext := func(row Row) Row {
		copy(scratch, row)
		fn(row, scratch[k:])
		return scratch
	}
	groups := newChain[uint64](n/4 + 16) // key hash -> index into order
	var (
		order  []*vecSeqGroup
		garena slab[vecSeqGroup]
		sarena slab[vecAggState]
		warena slab[Value]
		pw     = len(plans)
	)
	for _, row := range r.rows {
		wide := ext(row)
		if !vecCheckRow(wide, checks) {
			return rowFallback()
		}
		h := vecHashKey(wide, spec.gOrd)
		gi, ok := groups.findOrAdd(h, int32(len(order)), func(i int32) bool { return vecKeyRowsEqual(wide, order[i].first, spec.gOrd) })
		if !ok {
			g := &garena.take(1)[0]
			g.first = warena.clone(wide)
			g.states = sarena.take(pw)
			order = append(order, g)
		}
		g := order[gi]
		g.rows++
		for j := range plans {
			p := &plans[j]
			if p.ord < 0 {
				continue
			}
			v := wide[p.ord]
			if v.typ == TypeNull {
				continue
			}
			g.states[j].fold(p.kind, v)
		}
	}
	gw := len(spec.gOrd)
	ow := len(spec.out.Columns)
	backing := make([]Value, len(order)*ow)
	out := make([]Row, len(order))
	for gi, g := range order {
		dst := backing[gi*ow : gi*ow+ow : gi*ow+ow]
		for j, o := range spec.gOrd {
			dst[j] = g.first[o]
		}
		vecEmitAggs(dst[gw:], plans, g.states, g.rows)
		out[gi] = dst
	}
	return &Relation{schema: spec.out, rows: out}, LayoutColumnar, nil
}

// groupAggExtVecParallel is the parallel fused extend+group fold: phase 1
// extends each row into a per-worker scratch tail, partitions on the
// wide key and folds the order-exact lanes locally; the cross-morsel
// merge combines those partial states in morsel order; phase 2 re-runs
// fn — licensed by the ExtendFn purity contract — only over the rows of
// groups with order-sensitive float lanes, in global row order, so those
// folds reproduce the sequential operation sequence bit for bit. The
// wide relation is never materialized. ok=false reports a failed lane
// check (the caller falls back to the row kernels).
func (r *Relation) groupAggExtVecParallel(par int, spec *groupSpec, plans []vecAggPlan, checks []vecLaneCheck, fn ExtendFn, k, w int) (*Relation, bool) {
	n := len(r.rows)
	exact, replay := vecExactLanes(plans)
	nm := numMorsels(n)
	locals := make([][]*vecLocalGroup, nm)
	bad := make([]bool, nm)
	// next links each row to the next row of its group (-1 ends a list).
	// Morsels write disjoint ranges; the merge joins their lists.
	var next []int32
	if replay {
		next = make([]int32, n)
	}
	r.runMorsels(par, n, func(c, lo, hi int) {
		groups := newChain[uint64](hi - lo) // key hash -> index into order
		var (
			order  []*vecLocalGroup
			garena slab[vecLocalGroup]
			sarena slab[vecAggState]
			warena slab[Value]
		)
		scratch := make(Row, w)
		for i := lo; i < hi; i++ {
			row := r.rows[i]
			copy(scratch, row)
			fn(row, scratch[k:])
			if !vecCheckRow(scratch, checks) {
				bad[c] = true
				return
			}
			h := vecHashKey(scratch, spec.gOrd)
			gi, ok := groups.findOrAdd(h, int32(len(order)), func(j int32) bool { return vecKeyRowsEqual(scratch, order[j].wide, spec.gOrd) })
			if !ok {
				g := &garena.take(1)[0]
				g.wide = warena.clone(scratch)
				g.hash = h
				g.states = sarena.take(len(plans))
				order = append(order, g)
			}
			g := order[gi]
			if replay {
				if g.rows == 0 {
					g.head = int32(i)
				} else {
					next[g.tail] = int32(i)
				}
				g.tail, next[i] = int32(i), -1
			}
			g.rows++
			for j := range plans {
				p := &plans[j]
				if p.ord < 0 || !exact[j] {
					continue
				}
				v := scratch[p.ord]
				if v.typ == TypeNull {
					continue
				}
				g.states[j].fold(p.kind, v)
			}
		}
		locals[c] = order
	})
	for _, b := range bad {
		if b {
			return nil, false
		}
	}

	// Merge in morsel order: first-seen merged order equals the
	// sequential scan's first-seen order, and the retained wide first row
	// carries the key cells (fn is deterministic, so the copy matches what
	// the sequential pass would have kept).
	totalLocals := 0
	for _, l := range locals {
		totalLocals += len(l)
	}
	mergedTab := newChain[uint64](totalLocals) // key hash -> index into order
	var (
		order  []*vecMergedGroup
		garena slab[vecMergedGroup]
		sarena slab[vecAggState]
	)
	for _, local := range locals {
		for _, lg := range local {
			gi, ok := mergedTab.findOrAdd(lg.hash, int32(len(order)), func(i int32) bool { return vecKeyRowsEqual(lg.wide, order[i].wide, spec.gOrd) })
			if !ok {
				g := &garena.take(1)[0]
				g.wide = lg.wide
				g.states = sarena.take(len(plans))
				g.head = lg.head
				order = append(order, g)
			} else if replay {
				next[order[gi].tail] = lg.head
			}
			g := order[gi]
			g.tail = lg.tail
			g.rows += lg.rows
			for j := range plans {
				if exact[j] {
					g.states[j].merge(plans[j].kind, &lg.states[j])
				}
			}
		}
	}

	gw := len(spec.gOrd)
	ow := len(spec.out.Columns)
	backing := make([]Value, len(order)*ow)
	out := make([]Row, len(order))
	var scratches []Value // one replay scratch row per group
	if replay {
		scratches = make([]Value, len(order)*w)
	}
	r.runTasks(par, len(order), func(gi int) {
		g := order[gi]
		states := g.states
		if replay {
			scratch := scratches[gi*w : gi*w+w : gi*w+w]
			for ri := g.head; ri >= 0; ri = next[ri] {
				row := r.rows[ri]
				copy(scratch, row)
				fn(row, scratch[k:])
				for j := range plans {
					p := &plans[j]
					if p.ord < 0 || exact[j] {
						continue
					}
					v := scratch[p.ord]
					if v.typ == TypeNull {
						continue
					}
					states[j].fold(p.kind, v)
				}
			}
		}
		dst := backing[gi*ow : gi*ow+ow : gi*ow+ow]
		for j, o := range spec.gOrd {
			dst[j] = g.wide[o]
		}
		vecEmitAggs(dst[gw:], plans, states, g.rows)
		out[gi] = dst
	})
	return &Relation{schema: spec.out, rows: out}, true
}

// slab carves short slices from shared chunks, so the many small
// per-group objects of the grouping kernels — group structs, their states
// and their retained rows — cost one heap object per chunk instead of one
// each. Chunks hold 8 slices at first and double up to 256, so a kernel
// that finds few groups does not reserve room for many. A carved slice
// keeps its whole chunk alive.
type slab[T any] struct {
	free  []T
	chunk int // slices per chunk
}

// take returns n zeroed elements (nil for n == 0).
func (s *slab[T]) take(n int) []T {
	if n == 0 {
		return nil
	}
	if len(s.free) < n {
		s.chunk = min(max(2*s.chunk, 8), 256)
		s.free = make([]T, s.chunk*n)
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}

// clone returns a copy of src carved from the slab.
func (s *slab[T]) clone(src []T) []T {
	out := s.take(len(src))
	copy(out, src)
	return out
}

// vecSeqGroup is one group of the fused sequential fold: the first row
// seen (key emission and probe comparisons) plus the live states.
type vecSeqGroup struct {
	first  Row
	states []vecAggState
	rows   int64
}

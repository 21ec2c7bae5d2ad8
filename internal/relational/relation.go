package relational

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sched"
)

// Relation is an immutable, materialized bag of rows with a schema. It is
// the unit of data exchanged between the relational engine, web services
// and the integration system (where it appears as a dataset message).
type Relation struct {
	schema *Schema
	rows   []Row
	// pool attributes the relation's parallel kernel work (the vectorized
	// kernels and UnionDistinctPar) to a scheduler handle (the owning
	// tenant/shard) for fair-share arbitration. Nil falls back to the
	// process-wide default handle.
	pool *sched.Handle
}

// NewRelation builds a relation, validating each row against the schema.
func NewRelation(schema *Schema, rows []Row) (*Relation, error) {
	for i, r := range rows {
		if err := schema.CheckRow(r); err != nil {
			return nil, fmt.Errorf("row %d: %w", i, err)
		}
	}
	return &Relation{schema: schema, rows: rows}, nil
}

// MustRelation is NewRelation that panics on error; for test fixtures.
func MustRelation(schema *Schema, rows []Row) *Relation {
	r, err := NewRelation(schema, rows)
	if err != nil {
		panic(err)
	}
	return r
}

// Empty returns an empty relation with the given schema.
func Empty(schema *Schema) *Relation { return &Relation{schema: schema} }

// Schema returns the relation's schema.
func (r *Relation) Schema() *Schema { return r.schema }

// Empty returns a rowless relation with the same schema.
func (r *Relation) Empty() *Relation { return &Relation{schema: r.schema} }

// Len returns the number of rows.
func (r *Relation) Len() int { return len(r.rows) }

// Row returns the i-th row. The caller must not mutate it.
func (r *Relation) Row(i int) Row { return r.rows[i] }

// Rows returns the backing row slice. The caller must not mutate it.
func (r *Relation) Rows() []Row { return r.rows }

// Get returns the value at row i, named column. It panics on a bad column.
func (r *Relation) Get(i int, col string) Value {
	return r.rows[i][r.schema.MustOrdinal(col)]
}

// Clone returns a deep-enough copy: the row slice is copied, rows shared
// (rows are treated as immutable throughout the engine).
func (r *Relation) Clone() *Relation {
	rows := make([]Row, len(r.rows))
	copy(rows, r.rows)
	return &Relation{schema: r.schema, rows: rows, pool: r.pool}
}

// View returns a copy-on-write view: a fresh header over the same rows,
// with the slice capacity capped at its length. Handing a view (instead
// of the relation itself) to an untrusted consumer keeps a shared
// backing store — notably a table's cached scan snapshot — safe from the
// two ways a caller could mutate a result in place: appending to the row
// slice (the cap forces a reallocation) and swapping the header another
// consumer also holds (each caller gets its own). Row contents stay
// shared and immutable as everywhere in the engine.
func (r *Relation) View() *Relation {
	return &Relation{schema: r.schema, rows: r.rows[:len(r.rows):len(r.rows)], pool: r.pool}
}

// WithPool returns a view of the relation attributed to the given
// scheduler handle; its parallel kernels submit work under that handle's
// fair share.
// A nil handle returns the relation unchanged.
func (r *Relation) WithPool(h *sched.Handle) *Relation {
	if h == nil || r.pool == h {
		return r
	}
	return &Relation{schema: r.schema, rows: r.rows, pool: h}
}

// Select returns the rows satisfying the predicate.
func (r *Relation) Select(pred Predicate) (*Relation, error) {
	var out []Row
	for _, row := range r.rows {
		ok, err := pred.Eval(r.schema, row)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, row)
		}
	}
	return &Relation{schema: r.schema, rows: out}, nil
}

// Project returns a relation with only the named columns, in order.
func (r *Relation) Project(names ...string) (*Relation, error) {
	ps, err := r.schema.Project(names...)
	if err != nil {
		return nil, err
	}
	ordinals := make([]int, len(names))
	for i, n := range names {
		ordinals[i] = r.schema.MustOrdinal(n)
	}
	rows := make([]Row, len(r.rows))
	for i, row := range r.rows {
		rows[i] = Row(row.pick(ordinals))
	}
	return &Relation{schema: ps, rows: rows}, nil
}

// Rename returns a relation with column old renamed to new. Rows are shared.
func (r *Relation) Rename(old, new string) (*Relation, error) {
	rs, err := r.schema.Rename(old, new)
	if err != nil {
		return nil, err
	}
	return &Relation{schema: rs, rows: r.rows}, nil
}

// RenameAll applies the mapping old->new for every entry; missing columns
// are an error. It realizes the projection-with-rename steps that the
// DIPBench process types P05..P07 and P11 perform for schema mapping.
func (r *Relation) RenameAll(mapping map[string]string) (*Relation, error) {
	out := r
	var err error
	for old, new := range mapping {
		out, err = out.Rename(old, new)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// unionOrdinals validates union compatibility and resolves the key columns
// (all columns when none are named) — shared by the sequential and the
// parallel union kernels.
func (r *Relation) unionOrdinals(keyCols []string, others []*Relation) ([]int, error) {
	for _, o := range others {
		if !r.schema.Equal(o.schema) {
			return nil, fmt.Errorf("relational: union of incompatible schemas %s and %s",
				r.schema, o.schema)
		}
	}
	ordinals := make([]int, 0, len(keyCols))
	for _, k := range keyCols {
		i := r.schema.Ordinal(k)
		if i < 0 {
			return nil, fmt.Errorf("relational: union key column %q missing", k)
		}
		ordinals = append(ordinals, i)
	}
	if len(ordinals) == 0 {
		for i := range r.schema.Columns {
			ordinals = append(ordinals, i)
		}
	}
	return ordinals, nil
}

// UnionDistinct merges relations with union-compatible schemas and removes
// duplicates with respect to the named key columns. If no key columns are
// given, whole-row duplicates are removed. The first occurrence wins,
// scanning r first and the others in order — the UNION DISTINCT operator of
// process types P03 and P09.
func (r *Relation) UnionDistinct(keyCols []string, others ...*Relation) (*Relation, error) {
	ordinals, err := r.unionOrdinals(keyCols, others)
	if err != nil {
		return nil, err
	}
	seen := newChain[uint64](r.Len()) // key hash -> index into out
	var out []Row
	add := func(row Row) {
		h := hashRowOn(row, ordinals)
		// A duplicate key is dropped: the first occurrence wins.
		if _, dup := seen.findOrAdd(h, int32(len(out)), func(i int32) bool { return keyEqual(out[i], row, ordinals) }); !dup {
			out = append(out, row)
		}
	}
	for _, row := range r.rows {
		add(row)
	}
	for _, o := range others {
		for _, row := range o.rows {
			add(row)
		}
	}
	return &Relation{schema: r.schema, rows: out}, nil
}

// joinSpec is the validated compilation of a Join invocation: the join
// ordinals, the output schema, and the kept right-side ordinals. It is
// shared by the sequential and the parallel join kernels so the two cannot
// diverge.
type joinSpec struct {
	li, ri    int
	schema    *Schema
	rightKeep []int
}

// joinSpec validates a join call against both schemas.
func (r *Relation) joinSpec(o *Relation, leftCol, rightCol, clashPrefix string) (*joinSpec, error) {
	li := r.schema.Ordinal(leftCol)
	if li < 0 {
		return nil, fmt.Errorf("relational: join: no left column %q", leftCol)
	}
	ri := o.schema.Ordinal(rightCol)
	if ri < 0 {
		return nil, fmt.Errorf("relational: join: no right column %q", rightCol)
	}
	// Result schema: all of r, then all of o except the join column,
	// renaming clashes.
	cols := make([]Column, 0, len(r.schema.Columns)+len(o.schema.Columns)-1)
	cols = append(cols, r.schema.Columns...)
	rightKeep := make([]int, 0, len(o.schema.Columns)-1)
	for j, c := range o.schema.Columns {
		if j == ri {
			continue
		}
		name := c.Name
		if r.schema.Ordinal(name) >= 0 {
			if clashPrefix == "" {
				return nil, fmt.Errorf("relational: join: ambiguous column %q (no clash prefix)", name)
			}
			name = clashPrefix + name
		}
		cols = append(cols, Column{Name: name, Type: c.Type, Nullable: c.Nullable})
		rightKeep = append(rightKeep, j)
	}
	js, err := NewSchema(cols)
	if err != nil {
		return nil, err
	}
	return &joinSpec{li: li, ri: ri, schema: js, rightKeep: rightKeep}, nil
}

// joinRow assembles one output row from a matching left/right pair.
func (s *joinSpec) joinRow(lrow, rrow Row) Row {
	joined := make(Row, 0, len(s.schema.Columns))
	joined = append(joined, lrow...)
	for _, j := range s.rightKeep {
		joined = append(joined, rrow[j])
	}
	return joined
}

// Join computes the natural equi-join of r and o on leftCol = rightCol
// using a hash join (build on the smaller input). Columns of o that clash
// with columns of r are prefixed with the given prefix (or dropped if the
// prefix is empty and the column is the join column).
func (r *Relation) Join(o *Relation, leftCol, rightCol, clashPrefix string) (*Relation, error) {
	spec, err := r.joinSpec(o, leftCol, rightCol, clashPrefix)
	if err != nil {
		return nil, err
	}
	li, ri := spec.li, spec.ri
	// Build on the right side: key hash -> right row indices.
	build := newChain[uint64](o.Len())
	for i, row := range o.rows {
		build.add(hashValue(row[ri]), int32(i))
	}
	var out []Row
	var cands []int32
	for _, lrow := range r.rows {
		k := lrow[li]
		if k.IsNull() {
			continue
		}
		cands = build.appendIDs(cands[:0], hashValue(k))
		for _, rc := range cands {
			if rrow := o.rows[rc]; rrow[ri].Equal(k) {
				out = append(out, spec.joinRow(lrow, rrow))
			}
		}
	}
	return &Relation{schema: spec.schema, rows: out}, nil
}

// sortOrdinals resolves the sort columns to ordinals.
func (r *Relation) sortOrdinals(cols []string) ([]int, error) {
	ordinals := make([]int, len(cols))
	for i, c := range cols {
		o := r.schema.Ordinal(c)
		if o < 0 {
			return nil, fmt.Errorf("relational: sort: no column %q", c)
		}
		ordinals[i] = o
	}
	return ordinals, nil
}

// compareRowsOn compares two rows on the given ordinals, in order.
func compareRowsOn(a, b Row, ordinals []int) int {
	for _, o := range ordinals {
		if c := a[o].Compare(b[o]); c != 0 {
			return c
		}
	}
	return 0
}

// Sort returns the relation ordered by the named columns ascending.
func (r *Relation) Sort(cols ...string) (*Relation, error) {
	ordinals, err := r.sortOrdinals(cols)
	if err != nil {
		return nil, err
	}
	rows := make([]Row, len(r.rows))
	copy(rows, r.rows)
	sort.SliceStable(rows, func(a, b int) bool {
		return compareRowsOn(rows[a], rows[b], ordinals) < 0
	})
	return &Relation{schema: r.schema, rows: rows}, nil
}

// ExtendFn computes one row's extension cells into out (one slot per
// added column). The operator contract is purity: the output may depend
// only on row's cells — no captured mutable state, no dependence on call
// order or call count — and calls must be safe from concurrent
// goroutines. The kernels exploit the contract freely: the parallel
// kernels evaluate fn from many workers at once, and the fused
// grouped-aggregation kernel (GroupAggExtVec) re-runs fn on
// already-visited rows — ordered float replay, mid-scan fallbacks —
// instead of materializing the extended relation.
type ExtendFn func(row Row, out []Value)

// ExtendMany appends several computed columns in a single pass. fn fills
// out (one slot per added column) for each input row.
func (r *Relation) ExtendMany(cols []Column, fn ExtendFn) (*Relation, error) {
	all := make([]Column, len(r.schema.Columns)+len(cols))
	copy(all, r.schema.Columns)
	copy(all[len(r.schema.Columns):], cols)
	es, err := NewSchema(all, r.schema.KeyNames()...)
	if err != nil {
		return nil, err
	}
	k := len(r.schema.Columns)
	rows := make([]Row, len(r.rows))
	for i, row := range r.rows {
		nr := make(Row, len(all))
		copy(nr, row)
		fn(row, nr[k:])
		rows[i] = nr
	}
	return &Relation{schema: es, rows: rows}, nil
}

// AggSpec describes one aggregate in a GroupBy.
type AggSpec struct {
	Func string // "count", "sum", "min", "max", "avg"
	Col  string // input column ("" allowed for count)
	As   string // output column name
}

// groupSpec is the validated compilation of a GroupBy invocation: group
// and aggregate input ordinals plus the output schema. The sequential and
// the parallel grouping kernels share it — together with aggAcc/groupAcc —
// so the two paths fold rows through identical arithmetic and cannot
// diverge (bit-identical float sums included).
type groupSpec struct {
	in   *Schema
	gOrd []int
	aOrd []int
	aggs []AggSpec
	out  *Schema
}

// groupSpec validates group columns and aggregate specs.
func (r *Relation) groupSpec(groupCols []string, aggs []AggSpec) (*groupSpec, error) {
	gOrd := make([]int, len(groupCols))
	for i, c := range groupCols {
		o := r.schema.Ordinal(c)
		if o < 0 {
			return nil, fmt.Errorf("relational: group: no column %q", c)
		}
		gOrd[i] = o
	}
	aOrd := make([]int, len(aggs))
	cols := make([]Column, 0, len(groupCols)+len(aggs))
	for _, o := range gOrd {
		cols = append(cols, r.schema.Columns[o])
	}
	for i, a := range aggs {
		switch a.Func {
		case "count":
			// COUNT(*) counts rows; COUNT(col) counts non-NULL values.
			aOrd[i] = -1
			if a.Col != "" {
				o := r.schema.Ordinal(a.Col)
				if o < 0 {
					return nil, fmt.Errorf("relational: agg: no column %q", a.Col)
				}
				aOrd[i] = o
			}
			cols = append(cols, Column{Name: a.As, Type: TypeInt})
		case "sum", "min", "max", "avg":
			o := r.schema.Ordinal(a.Col)
			if o < 0 {
				return nil, fmt.Errorf("relational: agg: no column %q", a.Col)
			}
			aOrd[i] = o
			t := r.schema.Columns[o].Type
			if a.Func == "avg" {
				t = TypeFloat
			}
			cols = append(cols, Column{Name: a.As, Type: t, Nullable: true})
		default:
			return nil, fmt.Errorf("relational: unknown aggregate %q", a.Func)
		}
	}
	gs, err := NewSchema(cols, groupCols...)
	if err != nil {
		return nil, err
	}
	return &groupSpec{in: r.schema, gOrd: gOrd, aOrd: aOrd, aggs: aggs, out: gs}, nil
}

// aggAcc is the running state of one aggregate within one group. One
// accumulator struct per aggregate keeps the per-group bookkeeping in a
// single allocation instead of five parallel slices.
type aggAcc struct {
	sum   float64
	isum  int64
	min   Value
	max   Value
	count int64
}

// groupAcc is the accumulator of one group.
type groupAcc struct {
	key   []Value
	count int64
	aggs  []aggAcc
}

// newAcc creates the accumulator for the group a row opens.
func (s *groupSpec) newAcc(row Row) *groupAcc {
	return &groupAcc{key: row.pick(s.gOrd), aggs: make([]aggAcc, len(s.aggs))}
}

// update folds one input row into the group's accumulators. Rows must be
// folded in relation order for bit-identical float sums.
func (s *groupSpec) update(g *groupAcc, row Row) {
	g.count++
	for i, a := range s.aggs {
		if s.aOrd[i] < 0 {
			continue
		}
		v := row[s.aOrd[i]]
		if v.IsNull() {
			continue
		}
		st := &g.aggs[i]
		st.count++
		switch a.Func {
		case "sum", "avg":
			if v.Type() == TypeInt {
				st.isum += v.Int()
			}
			st.sum += v.Float()
		case "min":
			if st.min.IsNull() || v.Compare(st.min) < 0 {
				st.min = v
			}
		case "max":
			if st.max.IsNull() || v.Compare(st.max) > 0 {
				st.max = v
			}
		}
	}
}

// emit renders one group's output row.
func (s *groupSpec) emit(g *groupAcc) Row {
	row := make(Row, 0, len(s.out.Columns))
	row = append(row, g.key...)
	for i, a := range s.aggs {
		st := g.aggs[i]
		switch a.Func {
		case "count":
			if a.Col != "" {
				row = append(row, NewInt(st.count))
			} else {
				row = append(row, NewInt(g.count))
			}
		case "sum":
			if st.count == 0 {
				row = append(row, Null)
			} else if s.in.Columns[s.aOrd[i]].Type == TypeInt {
				row = append(row, NewInt(st.isum))
			} else {
				row = append(row, NewFloat(st.sum))
			}
		case "avg":
			if st.count == 0 {
				row = append(row, Null)
			} else {
				row = append(row, NewFloat(st.sum/float64(st.count)))
			}
		case "min":
			row = append(row, st.min)
		case "max":
			row = append(row, st.max)
		}
	}
	return row
}

// GroupBy groups rows by the named columns and computes the aggregates.
// It backs the materialized view OrdersMV refresh of the DIPBench scenario.
func (r *Relation) GroupBy(groupCols []string, aggs []AggSpec) (*Relation, error) {
	spec, err := r.groupSpec(groupCols, aggs)
	if err != nil {
		return nil, err
	}
	var groups chain[uint64] // key hash -> index into order
	var order []*groupAcc
	for _, row := range r.rows {
		h := hashRowOn(row, spec.gOrd)
		gi, ok := groups.findOrAdd(h, int32(len(order)), func(i int32) bool { return keyMatches(row, spec.gOrd, order[i].key) })
		if !ok {
			order = append(order, spec.newAcc(row))
		}
		spec.update(order[gi], row)
	}
	out := make([]Row, 0, len(order))
	for _, g := range order {
		out = append(out, spec.emit(g))
	}
	return &Relation{schema: spec.out, rows: out}, nil
}

// String renders a small ASCII table; intended for debugging and examples.
func (r *Relation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s [%d rows]\n", r.schema, len(r.rows))
	n := len(r.rows)
	const max = 10
	for i := 0; i < n && i < max; i++ {
		parts := make([]string, len(r.rows[i]))
		for j, v := range r.rows[i] {
			parts[j] = v.String()
		}
		b.WriteString("  " + strings.Join(parts, " | ") + "\n")
	}
	if n > max {
		fmt.Fprintf(&b, "  ... (%d more)\n", n-max)
	}
	return b.String()
}

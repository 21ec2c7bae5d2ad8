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
	// tenant or run) for fair-share arbitration. Nil falls back to the
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

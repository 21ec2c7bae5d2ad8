package relational

import "sync"

// Columnar batch layout. A ColSet is the column-major twin of a Relation
// morsel: each column's payloads live in one typed slice (int64 backs
// BIGINT, BOOLEAN and TIMESTAMP; float64 backs DOUBLE; string backs
// VARCHAR) next to a validity bitmap marking non-NULL rows. The vectorized
// kernels in vector_kernels.go extract only the columns they touch, run
// tight typed loops over them, and emit ordinary row relations — the
// layout is an execution detail, never a storage format, so every result
// stays bit-identical to the row kernels' output.

// Layout identifies which data layout a kernel executed on. It is the
// EXPLAIN-style companion of AccessKind: operators report the layout they
// chose so tests (and the engine's layout statistics) can assert the
// vectorized path actually ran.
type Layout uint8

// Operator data layouts.
const (
	// LayoutRow is the classic row-at-a-time kernel over []Value rows.
	LayoutRow Layout = iota
	// LayoutColumnar is the vectorized kernel over typed column slices.
	LayoutColumnar
)

// String names the layout in EXPLAIN style.
func (l Layout) String() string {
	switch l {
	case LayoutRow:
		return "ROW"
	case LayoutColumnar:
		return "COLUMNAR"
	default:
		return "?"
	}
}

// ColumnarEligible reports whether every column of the schema has a typed
// columnar representation. Only the degenerate NULL-typed column has none.
func ColumnarEligible(s *Schema) bool {
	for _, c := range s.Columns {
		switch c.Type {
		case TypeInt, TypeFloat, TypeString, TypeBool, TypeTime:
		default:
			return false
		}
	}
	return true
}

// intBacked reports whether the type stores its payload in Value.i.
func intBacked(t Type) bool { return t == TypeInt || t == TypeBool || t == TypeTime }

// ColVec is one typed column of a ColSet: the payload slice matching the
// column's declared type plus a validity bitmap (bit i set = row i is not
// NULL). Payload slots of NULL rows are unspecified; readers must mask
// with the bitmap.
type ColVec struct {
	typ    Type
	ints   []int64   // TypeInt, TypeBool (0/1), TypeTime (unix nanos)
	floats []float64 // TypeFloat
	strs   []string  // TypeString
	valid  []uint64  // validity bitmap, tail bits zero
}

// load extracts the column at ordinal ord from the rows, reusing the
// vector's existing slices.
func (v *ColVec) load(rows []Row, ord int, t Type) {
	n := len(rows)
	v.typ = t
	v.valid = growBits(v.valid, n)
	switch {
	case intBacked(t):
		if cap(v.ints) < n {
			v.ints = make([]int64, n)
		} else {
			v.ints = v.ints[:n]
		}
		for i, row := range rows {
			if cell := row[ord]; cell.typ != TypeNull {
				v.ints[i] = cell.i
				v.valid[i>>6] |= 1 << (uint(i) & 63)
			}
		}
	case t == TypeFloat:
		if cap(v.floats) < n {
			v.floats = make([]float64, n)
		} else {
			v.floats = v.floats[:n]
		}
		for i, row := range rows {
			if cell := row[ord]; cell.typ != TypeNull {
				v.floats[i] = cell.f()
				v.valid[i>>6] |= 1 << (uint(i) & 63)
			}
		}
	case t == TypeString:
		if cap(v.strs) < n {
			v.strs = make([]string, n)
		} else {
			v.strs = v.strs[:n]
		}
		for i, row := range rows {
			if cell := row[ord]; cell.typ != TypeNull {
				v.strs[i] = cell.s
				v.valid[i>>6] |= 1 << (uint(i) & 63)
			}
		}
	}
}

// value reboxes row i of the column as a scalar Value.
func (v *ColVec) value(i int) Value {
	if v.valid[i>>6]&(1<<(uint(i)&63)) == 0 {
		return Null
	}
	switch {
	case intBacked(v.typ):
		return Value{typ: v.typ, i: v.ints[i]}
	case v.typ == TypeFloat:
		return NewFloat(v.floats[i])
	default:
		return Value{typ: TypeString, s: v.strs[i]}
	}
}

// ColSet is a column-major view over a batch of rows. Columns are
// extracted lazily (loadCol), so a filter touching two of nine columns
// converts only those two.
type ColSet struct {
	schema *Schema
	rows   []Row // source rows (row order preserved)
	n      int
	cols   []ColVec
	loaded []bool
}

// ToColSet converts a whole relation into columnar layout. It fails when
// the schema has a column without a typed representation.
func ToColSet(r *Relation) (*ColSet, error) {
	if !ColumnarEligible(r.schema) {
		return nil, errNotColumnar(r.schema)
	}
	cs := &ColSet{}
	cs.reset(r.schema, r.rows)
	for ord := range r.schema.Columns {
		cs.loadCol(ord)
	}
	return cs, nil
}

func errNotColumnar(s *Schema) error {
	return errSchemaNotColumnar{s}
}

type errSchemaNotColumnar struct{ s *Schema }

func (e errSchemaNotColumnar) Error() string {
	return "relational: schema " + e.s.String() + " has no columnar representation"
}

// Len returns the number of rows in the batch.
func (cs *ColSet) Len() int { return cs.n }

// Schema returns the batch's schema.
func (cs *ColSet) Schema() *Schema { return cs.schema }

// ToRelation materializes the batch back into a row relation. Rows are
// carved out of one backing arena; cell values rebox the typed payloads,
// reproducing the source values exactly (NULLs included).
func (cs *ColSet) ToRelation() *Relation {
	w := len(cs.schema.Columns)
	backing := make([]Value, cs.n*w)
	rows := make([]Row, cs.n)
	for i := 0; i < cs.n; i++ {
		row := backing[i*w : i*w+w : i*w+w]
		for j := range cs.schema.Columns {
			row[j] = cs.cols[j].value(i)
		}
		rows[i] = row
	}
	return &Relation{schema: cs.schema, rows: rows}
}

// reset re-targets the set at a new schema and row batch, keeping the
// column vectors' capacity.
func (cs *ColSet) reset(s *Schema, rows []Row) {
	cs.schema, cs.rows, cs.n = s, rows, len(rows)
	k := len(s.Columns)
	if cap(cs.cols) < k {
		cs.cols = make([]ColVec, k)
		cs.loaded = make([]bool, k)
		return
	}
	cs.cols = cs.cols[:k]
	cs.loaded = cs.loaded[:k]
	for i := range cs.loaded {
		cs.loaded[i] = false
	}
}

// loadCol extracts one column (idempotent per batch).
func (cs *ColSet) loadCol(ord int) {
	if cs.loaded[ord] {
		return
	}
	cs.loaded[ord] = true
	cs.cols[ord].load(cs.rows, ord, cs.schema.Columns[ord].Type)
}

// colSetPool recycles ColSet scratch batches across morsels so the
// row-to-column converters run allocation-free in steady state (the alloc
// discipline the access-path work already established for the row path).
// Pooled vectors keep their payload capacity — bounded by one morsel —
// between uses.
var colSetPool = sync.Pool{New: func() any { return new(ColSet) }}

// getColSet leases a pooled scratch batch over the given rows.
func getColSet(s *Schema, rows []Row) *ColSet {
	cs := colSetPool.Get().(*ColSet)
	cs.reset(s, rows)
	return cs
}

// putColSet returns a scratch batch to the pool, dropping the references
// that would pin the caller's rows.
func putColSet(cs *ColSet) {
	cs.schema, cs.rows = nil, nil
	colSetPool.Put(cs)
}

// bitmapBuf wraps a pooled bitmap word slice.
type bitmapBuf struct{ w []uint64 }

// bitmapPool recycles predicate/selection bitmaps across morsels.
var bitmapPool = sync.Pool{New: func() any { return new(bitmapBuf) }}

// getBitmap leases a zeroed bitmap able to hold n bits.
func getBitmap(n int) *bitmapBuf {
	b := bitmapPool.Get().(*bitmapBuf)
	w := bitmapWords(n)
	if cap(b.w) < w {
		b.w = make([]uint64, w)
		return b
	}
	b.w = b.w[:w]
	zeroBits(b.w)
	return b
}

// putBitmap returns a bitmap to the pool.
func putBitmap(b *bitmapBuf) { bitmapPool.Put(b) }

// bitmapWords returns the word count of an n-bit bitmap.
func bitmapWords(n int) int { return (n + 63) / 64 }

// growBits resizes a bitmap to hold n bits, zeroed.
func growBits(b []uint64, n int) []uint64 {
	w := bitmapWords(n)
	if cap(b) < w {
		return make([]uint64, w)
	}
	b = b[:w]
	zeroBits(b)
	return b
}

// zeroBits clears every word.
func zeroBits(b []uint64) {
	for i := range b {
		b[i] = 0
	}
}

// maskTailBits clears the bits at positions >= n in the last word, keeping
// the all-words invariant complement operations rely on.
func maskTailBits(b []uint64, n int) {
	if r := n & 63; r != 0 && len(b) > 0 {
		b[len(b)-1] &= (1 << uint(r)) - 1
	}
}

package relational

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// TriggerEvent identifies the mutation a trigger fires on.
type TriggerEvent uint8

// Trigger events. Only row-level AFTER triggers are supported; this is all
// the DIPBench reference implementation needs (Fig. 9: insert trigger on
// the message queue table).
const (
	OnInsert TriggerEvent = iota
	OnUpdate
	OnDelete
)

// String names the trigger event.
func (e TriggerEvent) String() string {
	switch e {
	case OnInsert:
		return "INSERT"
	case OnUpdate:
		return "UPDATE"
	case OnDelete:
		return "DELETE"
	default:
		return "?"
	}
}

// Trigger is a row-level AFTER trigger. For updates, old holds the previous
// row image; for inserts old is nil; for deletes new is nil.
type Trigger func(table *Table, old, new Row) error

// Table is a mutable stored relation with a primary-key hash index,
// optional secondary hash indexes and AFTER triggers. All methods are safe
// for concurrent use. Both kinds of index are chains (chain.go) from a
// hash to int32 slots, so a table holds fewer than 2^31 rows; a probe
// hands its caller a fresh slice of the candidate slots in ascending
// order (chooseLocked).
type Table struct {
	name   string
	schema *Schema

	mu       sync.RWMutex
	rows     []Row
	free     []int32       // tombstoned slots available for reuse
	pk       chain[uint64] // hash of key tuple -> candidate slots
	indexes  []hashIndex   // looked up by name (index)
	triggers map[TriggerEvent][]Trigger

	// version counts every mutation. Checkpoint snapshots carry it.
	version uint64

	// snap caches the last Scan materialization; any mutation clears it.
	// Relations are immutable throughout the engine, so handing every
	// read-only caller the same snapshot is safe (copy-on-write: the next
	// mutation builds fresh state, it never touches shared rows).
	snap *Relation

	inserts uint64 // statistics: total successful inserts
	deletes uint64
	updates uint64

	scanCount     atomic.Uint64 // statistics: access paths taken
	pkProbeCount  atomic.Uint64
	idxProbeCount atomic.Uint64
}

// hashIndex is a non-unique secondary hash index over one column: the
// hash of the column's value -> the slots holding it.
type hashIndex struct {
	name    string // lower-cased column name
	ordinal int
	slots   chain[uint64]
}

// NewTable creates an empty table.
func NewTable(name string, schema *Schema) *Table {
	return &Table{
		name:     name,
		schema:   schema,
		triggers: make(map[TriggerEvent][]Trigger),
	}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *Schema { return t.schema }

// CreateIndex adds a secondary hash index on the named column. Existing
// rows are indexed immediately.
func (t *Table) CreateIndex(col string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	o := t.schema.Ordinal(col)
	if o < 0 {
		return fmt.Errorf("relational: index: no column %q on %s", col, t.name)
	}
	idx := hashIndex{name: lower(col), ordinal: o}
	for slot, row := range t.rows {
		if row != nil {
			idx.slots.add(hashValue(row[o]), int32(slot))
		}
	}
	if prev := t.index(idx.name); prev != nil {
		*prev = idx
	} else {
		t.indexes = append(t.indexes, idx)
	}
	return nil
}

// index returns the secondary index on the lower-cased column name, or
// nil. Caller holds mu.
func (t *Table) index(name string) *hashIndex {
	for i := range t.indexes {
		if t.indexes[i].name == name {
			return &t.indexes[i]
		}
	}
	return nil
}

// AddTrigger registers a row-level AFTER trigger for the event.
func (t *Table) AddTrigger(e TriggerEvent, tr Trigger) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.triggers[e] = append(t.triggers[e], tr)
}

// Len returns the number of live rows.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows) - len(t.free)
}

// Stats returns cumulative insert/update/delete counters.
func (t *Table) Stats() (inserts, updates, deletes uint64) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.inserts, t.updates, t.deletes
}

// Insert adds one row, enforcing the primary key if the schema declares
// one, then fires AFTER INSERT triggers (outside the table lock, so
// triggers may access the table).
func (t *Table) Insert(row Row) error {
	if err := t.schema.CheckRow(row); err != nil {
		return fmt.Errorf("relational: insert into %s: %w", t.name, err)
	}
	row = row.Clone()
	t.mu.Lock()
	if err := t.insertLocked(row); err != nil {
		t.mu.Unlock()
		return err
	}
	trs := t.triggers[OnInsert]
	t.mu.Unlock()
	for _, tr := range trs {
		if err := tr(t, nil, row); err != nil {
			return fmt.Errorf("relational: AFTER INSERT trigger on %s: %w", t.name, err)
		}
	}
	return nil
}

// InsertAll inserts every row of the relation; it stops on the first error.
func (t *Table) InsertAll(r *Relation) error {
	if !t.schema.Equal(r.Schema()) {
		return fmt.Errorf("relational: insert into %s: schema mismatch %s vs %s",
			t.name, t.schema, r.Schema())
	}
	t.mu.Lock()
	if len(t.triggers[OnInsert]) > 0 {
		// Triggers observe the table between rows; keep the row-at-a-time
		// path so their view is unchanged.
		t.mu.Unlock()
		for i := 0; i < r.Len(); i++ {
			if err := t.Insert(r.Row(i)); err != nil {
				return err
			}
		}
		return nil
	}
	defer t.mu.Unlock()
	// Set-oriented load: one lock acquisition for the whole batch (bulk
	// loads dominate period initialization). Rows are shared with the
	// relation rather than copied — Relations are immutable throughout the
	// engine, and the table only ever replaces stored rows, never mutates
	// them in place.
	n := r.Len()
	// Reserve the batch's storage up front so the load runs without
	// per-row slice growth or hash-table splits: the row store, the PK
	// and secondary indexes of a table's first load (a truncated table
	// keeps the capacity its indexes grew to, so the mart-rebuild and
	// staging pattern of truncate-then-bulk-load reuses it). slices.Grow
	// reserves with append's geometric growth, so a load of many small
	// batches copies each slice amortized O(1) times, not once per batch.
	if need := n - len(t.free); need > 0 {
		t.rows = slices.Grow(t.rows, need)
	}
	if t.schema.HasKey() {
		t.pk.reserve(n)
	}
	for i := range t.indexes {
		t.indexes[i].slots.reserve(n)
	}
	for i := 0; i < n; i++ {
		row := r.Row(i)
		if err := t.schema.CheckRow(row); err != nil {
			return fmt.Errorf("relational: insert into %s: %w", t.name, err)
		}
		if err := t.insertLocked(row); err != nil {
			return err
		}
	}
	return nil
}

// insertLocked stores a checked row unless its primary key is taken.
// Caller holds mu.
func (t *Table) insertLocked(row Row) error {
	var h uint64
	if t.schema.HasKey() {
		h = t.hashKey(row)
		if _, dup := t.keySlot(h, row); dup {
			return &KeyError{Table: t.name, Key: row.pick(t.schema.Key)}
		}
	}
	t.fileLocked(h, row)
	return nil
}

// fileLocked stores a row whose primary key (hashing to h) is free: it
// claims a slot and files the slot in the PK and secondary indexes.
// Caller holds mu.
func (t *Table) fileLocked(h uint64, row Row) {
	slot := t.claimSlot(row)
	if t.schema.HasKey() {
		t.pk.add(h, slot)
	}
	t.indexRow(slot, row)
	t.inserts++
	t.mutated()
}

// keySlot returns the slot of the stored row whose primary key equals
// row's; h is row's key hash. Caller holds mu.
func (t *Table) keySlot(h uint64, row Row) (int32, bool) {
	return t.pk.find(h, func(slot int32) bool {
		ex := t.rows[slot]
		return ex != nil && keyEqual(ex, row, t.schema.Key)
	})
}

// Upsert inserts the row or, if a row with the same primary key exists,
// replaces it. It requires a primary key.
func (t *Table) Upsert(row Row) error {
	if !t.schema.HasKey() {
		return fmt.Errorf("relational: upsert on keyless table %s", t.name)
	}
	if err := t.schema.CheckRow(row); err != nil {
		return fmt.Errorf("relational: upsert into %s: %w", t.name, err)
	}
	row = row.Clone()
	h := t.hashKey(row)
	t.mu.Lock()
	var old Row
	trs := t.triggers[OnInsert]
	if slot, ok := t.keySlot(h, row); ok {
		old = t.rows[slot]
		t.unindexRow(slot, old)
		t.rows[slot] = row
		t.indexRow(slot, row)
		t.updates++
		t.mutated()
		trs = t.triggers[OnUpdate]
	} else {
		t.fileLocked(h, row)
	}
	t.mu.Unlock()
	for _, tr := range trs {
		if err := tr(t, old, row); err != nil {
			return fmt.Errorf("relational: trigger on %s: %w", t.name, err)
		}
	}
	return nil
}

// Lookup returns the row with the given primary-key values, or nil.
func (t *Table) Lookup(key ...Value) Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if !t.schema.HasKey() || len(key) != len(t.schema.Key) {
		return nil
	}
	slot, ok := t.pk.find(hashValues(key), func(slot int32) bool {
		ex := t.rows[slot]
		return ex != nil && keyMatches(ex, t.schema.Key, key)
	})
	if !ok {
		return nil
	}
	return t.rows[slot]
}

// Delete removes all rows matching the predicate and returns the count.
// AFTER DELETE triggers fire once per removed row. Equality predicates on
// the primary key or an indexed column probe the hash index instead of
// scanning (see Explain).
func (t *Table) Delete(pred Predicate) (int, error) {
	t.mu.Lock()
	// Removed rows are kept only for the AFTER DELETE triggers.
	trs := t.triggers[OnDelete]
	var removed []Row
	n := 0
	del := func(slot int32, row Row) error {
		if row == nil {
			return nil
		}
		ok, err := pred.Eval(t.schema, row)
		if err != nil || !ok {
			return err
		}
		t.unindexRow(slot, row)
		t.unkeyRow(slot, row)
		t.rows[slot] = nil
		t.free = append(t.free, slot)
		t.deletes++
		t.mutated()
		n++
		if len(trs) > 0 {
			removed = append(removed, row)
		}
		return nil
	}
	path, slots := t.chooseLocked(pred)
	t.countPath(path)
	if path.Kind == AccessScan {
		for slot, row := range t.rows {
			if err := del(int32(slot), row); err != nil {
				t.mu.Unlock()
				return 0, err
			}
		}
	} else {
		for _, slot := range slots {
			if err := del(slot, t.rows[slot]); err != nil {
				t.mu.Unlock()
				return 0, err
			}
		}
	}
	t.mu.Unlock()
	for _, row := range removed {
		for _, tr := range trs {
			if err := tr(t, row, nil); err != nil {
				return n, fmt.Errorf("relational: AFTER DELETE trigger on %s: %w", t.name, err)
			}
		}
	}
	return n, nil
}

// Update rewrites every row matching the predicate through fn and returns
// the number of rows changed. fn receives a copy it may mutate and return.
// Equality predicates on the primary key or an indexed column probe the
// hash index instead of scanning (see Explain).
func (t *Table) Update(pred Predicate, fn func(Row) Row) (int, error) {
	t.mu.Lock()
	type change struct{ old, new Row }
	var changes []change
	upd := func(slot int32, row Row) error {
		if row == nil {
			return nil
		}
		ok, err := pred.Eval(t.schema, row)
		if err != nil || !ok {
			return err
		}
		nr := fn(row.Clone())
		if err := t.schema.CheckRow(nr); err != nil {
			return fmt.Errorf("relational: update on %s: %w", t.name, err)
		}
		if t.schema.HasKey() && !keyEqual(nr, row, t.schema.Key) {
			return fmt.Errorf("relational: update on %s may not change the primary key", t.name)
		}
		t.unindexRow(slot, row)
		t.rows[slot] = nr
		t.indexRow(slot, nr)
		t.updates++
		t.mutated()
		changes = append(changes, change{row, nr})
		return nil
	}
	path, slots := t.chooseLocked(pred)
	t.countPath(path)
	if path.Kind == AccessScan {
		for slot, row := range t.rows {
			if err := upd(int32(slot), row); err != nil {
				t.mu.Unlock()
				return 0, err
			}
		}
	} else {
		for _, slot := range slots {
			if err := upd(slot, t.rows[slot]); err != nil {
				t.mu.Unlock()
				return 0, err
			}
		}
	}
	trs := t.triggers[OnUpdate]
	t.mu.Unlock()
	for _, c := range changes {
		for _, tr := range trs {
			if err := tr(t, c.old, c.new); err != nil {
				return len(changes), fmt.Errorf("relational: AFTER UPDATE trigger on %s: %w", t.name, err)
			}
		}
	}
	return len(changes), nil
}

// Truncate removes all rows without firing triggers (DDL-style reset used
// by the per-period uninitialization of the benchmark). The slot array and
// the index chains keep their capacity: the next period reloads a dataset
// of roughly the same shape, so releasing them would just re-pay the growth
// and rehashing cost every period.
func (t *Table) Truncate() {
	t.mu.Lock()
	defer t.mu.Unlock()
	clear(t.rows)
	t.rows = t.rows[:0]
	t.free = t.free[:0]
	t.pk.clear()
	for i := range t.indexes {
		t.indexes[i].slots.clear()
	}
	t.mutated()
}

// mutated counts one mutation and drops the cached scan snapshot. Caller
// holds t.mu for writing.
func (t *Table) mutated() {
	t.version++
	t.snap = nil
}

// Version returns the table's mutation count: one per insert, update,
// delete and truncate. It never decreases.
func (t *Table) Version() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.version
}

// Scan materializes the current contents as an immutable Relation. The
// materialization is cached until the next mutation, so repeated scans of
// a quiet table (the common extract pattern) share one row slice instead
// of copying it per call. Callers must treat the result as read-only —
// the same contract every Relation in the engine already carries.
func (t *Table) Scan() *Relation {
	t.mu.RLock()
	if s := t.snap; s != nil {
		t.mu.RUnlock()
		return s
	}
	t.mu.RUnlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.scanLocked()
}

// scanLocked builds (or reuses) the cached snapshot. Caller holds t.mu
// for writing.
func (t *Table) scanLocked() *Relation {
	if t.snap != nil {
		return t.snap
	}
	rows := make([]Row, 0, len(t.rows)-len(t.free))
	for _, row := range t.rows {
		if row != nil {
			rows = append(rows, row)
		}
	}
	t.snap = &Relation{schema: t.schema, rows: rows}
	return t.snap
}

// SelectWhere scans with a predicate. Equality predicates on the primary
// key or a CreateIndex'ed column (alone or as conjuncts of an AND) probe
// the hash index and apply the full predicate only to the probe's
// candidates; everything else falls back to the full scan. Explain reports
// the choice without running it.
func (t *Table) SelectWhere(pred Predicate) (*Relation, error) {
	if _, all := pred.(truePred); all {
		// Full-table reads share the cached scan snapshot instead of
		// filtering every row through the always-true predicate.
		t.scanCount.Add(1)
		return t.Scan(), nil
	}
	t.mu.RLock()
	path, slots := t.chooseLocked(pred)
	if path.Kind == AccessScan {
		t.mu.RUnlock()
		t.scanCount.Add(1)
		return t.Scan().Select(pred)
	}
	// Snapshot the candidate rows, then evaluate the predicate outside the
	// lock (predicates may be arbitrary user functions).
	cands := make([]Row, 0, len(slots))
	for _, slot := range slots {
		if row := t.rows[slot]; row != nil {
			cands = append(cands, row)
		}
	}
	t.mu.RUnlock()
	t.countPath(path)
	var rows []Row
	for _, row := range cands {
		ok, err := pred.Eval(t.schema, row)
		if err != nil {
			return nil, err
		}
		if ok {
			rows = append(rows, row)
		}
	}
	return &Relation{schema: t.schema, rows: rows}, nil
}

// countPath bumps the access-path statistic for the chosen path.
func (t *Table) countPath(path AccessPath) {
	switch path.Kind {
	case AccessPKProbe:
		t.pkProbeCount.Add(1)
	case AccessIndexProbe:
		t.idxProbeCount.Add(1)
	default:
		t.scanCount.Add(1)
	}
}

// claimSlot stores the row in a free slot or appends. Caller holds mu.
func (t *Table) claimSlot(row Row) int32 {
	if n := len(t.free); n > 0 {
		slot := t.free[n-1]
		t.free = t.free[:n-1]
		t.rows[slot] = row
		return slot
	}
	t.rows = append(t.rows, row)
	return int32(len(t.rows) - 1)
}

// indexRow adds the row to all secondary indexes. Caller holds mu.
func (t *Table) indexRow(slot int32, row Row) {
	for i := range t.indexes {
		idx := &t.indexes[i]
		idx.slots.add(hashValue(row[idx.ordinal]), slot)
	}
}

// unindexRow removes the slot from all secondary indexes. Caller holds mu.
func (t *Table) unindexRow(slot int32, row Row) {
	for i := range t.indexes {
		idx := &t.indexes[i]
		idx.slots.remove(hashValue(row[idx.ordinal]), slot)
	}
}

// unkeyRow removes the slot from the PK index. Caller holds mu.
func (t *Table) unkeyRow(slot int32, row Row) {
	if t.schema.HasKey() {
		t.pk.remove(t.hashKey(row), slot)
	}
}

// hashKey hashes the row's primary-key columns in place.
func (t *Table) hashKey(row Row) uint64 { return hashRowOn(row, t.schema.Key) }

// keyEqual reports whether two rows agree on the given key ordinals.
func keyEqual(a, b Row, ords []int) bool {
	for _, o := range ords {
		if !a[o].Equal(b[o]) {
			return false
		}
	}
	return true
}

// keyMatches reports whether the row's key ordinals equal the key tuple.
func keyMatches(row Row, ords []int, key []Value) bool {
	for i, o := range ords {
		if !row[o].Equal(key[i]) {
			return false
		}
	}
	return true
}

// KeyError reports a primary-key violation.
type KeyError struct {
	Table string
	Key   []Value
}

// Error implements the error interface.
func (e *KeyError) Error() string {
	return fmt.Sprintf("relational: duplicate key %v in table %s", e.Key, e.Table)
}

package relational

// Change-data capture: every table keeps a monotonic row version and a
// bounded journal of its mutations. Consumers (the incremental C/D
// pipelines) remember the version they last extracted and pull only the
// tail of changes with ChangesSince / DeltaSince; when the requested
// history is gone — evicted by the bound or invalidated by a Truncate —
// the journal fails loudly with ErrDeltaUnavailable so the caller falls
// back to a full re-extract instead of silently serving an empty delta.

import (
	"errors"
	"fmt"
)

// ChangeKind classifies one journal entry.
type ChangeKind uint8

// Journal entry kinds.
const (
	// ChangeInsert records a new row (New holds the inserted image).
	ChangeInsert ChangeKind = iota
	// ChangeUpdate records an in-place rewrite (Old and New images).
	ChangeUpdate
	// ChangeDelete records a removal (Old holds the last image).
	ChangeDelete
	// ChangeTruncate records a table reset. It carries no row images and
	// invalidates all earlier history: any ChangesSince range that would
	// include it fails with ErrDeltaUnavailable, forcing a full
	// re-extract.
	ChangeTruncate
)

// String names the change kind.
func (k ChangeKind) String() string {
	switch k {
	case ChangeInsert:
		return "INSERT"
	case ChangeUpdate:
		return "UPDATE"
	case ChangeDelete:
		return "DELETE"
	case ChangeTruncate:
		return "TRUNCATE"
	default:
		return "?"
	}
}

// Change is one journal entry. Row images are shared with the table
// (stored rows are never mutated in place, only replaced).
type Change struct {
	Kind ChangeKind
	Old  Row // pre-image for updates/deletes, nil otherwise
	New  Row // post-image for inserts/updates, nil otherwise
}

// ChangeSet is the ordered tail of a table's journal covering versions
// (From, To].
type ChangeSet struct {
	From, To uint64
	Changes  []Change
}

// ErrDeltaUnavailable reports that a table cannot serve the requested
// delta: the watermark predates the retained journal (bound eviction or a
// truncate) or does not belong to this table's history. Callers must fall
// back to a full extract.
var ErrDeltaUnavailable = errors.New("relational: delta unavailable, full re-extract required")

// DefaultJournalLimit bounds the per-table journal; old entries are
// evicted in chunks once the bound is reached.
const DefaultJournalLimit = 1 << 16

// logChange appends a journal entry and bumps the row version. Caller
// holds t.mu; the cached scan snapshot is invalidated alongside.
func (t *Table) logChange(kind ChangeKind, old, new Row) {
	t.version++
	t.snap = nil
	if t.journalLimit <= 0 {
		t.journalStart = t.version + 1
		return
	}
	if len(t.journal) >= t.journalLimit {
		// Evict a quarter of the journal at once so the copy amortizes to
		// O(1) per append while at least 3/4 of the bound stays serveable.
		drop := t.journalLimit / 4
		if drop < 1 {
			drop = 1
		}
		n := copy(t.journal, t.journal[drop:])
		t.journal = t.journal[:n]
		t.journalStart += uint64(drop)
	}
	t.journal = append(t.journal, Change{Kind: kind, Old: old, New: new})
}

// Version returns the table's current row version. It increases by one
// for every insert, update, delete and truncate and never decreases, so
// a remembered version plus ChangesSince always yields exactly the
// mutations that happened in between — or a loud ErrDeltaUnavailable.
func (t *Table) Version() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.version
}

// SetJournalLimit bounds the number of retained journal entries. A limit
// <= 0 disables retention entirely (versioning continues; every
// non-current watermark becomes unavailable).
func (t *Table) SetJournalLimit(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.journalLimit = n
	if n <= 0 {
		t.journal = nil
		t.journalStart = t.version + 1
	}
}

// ChangesSince returns the raw journal tail covering versions
// (since, Version]. It fails with ErrDeltaUnavailable when that range is
// not fully retained — evicted by the journal bound, wiped by a
// truncate, or when since is not a version this table ever produced.
func (t *Table) ChangesSince(since uint64) (*ChangeSet, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if since > t.version {
		return nil, fmt.Errorf("relational: %s: watermark %d beyond version %d: %w",
			t.name, since, t.version, ErrDeltaUnavailable)
	}
	if since+1 < t.journalStart {
		return nil, fmt.Errorf("relational: %s: journal starts at %d, watermark %d too old: %w",
			t.name, t.journalStart, since, ErrDeltaUnavailable)
	}
	start := int(since + 1 - t.journalStart)
	tail := t.journal[start:]
	if len(tail) > 0 && tail[0].Kind == ChangeTruncate {
		// A truncate entry can only sit at the head of the journal (the
		// reset wipes everything before it); serving it would hand the
		// consumer an empty delta for a table that lost all its rows.
		return nil, fmt.Errorf("relational: %s: table truncated at version %d after watermark %d: %w",
			t.name, t.journalStart+uint64(start), since, ErrDeltaUnavailable)
	}
	changes := make([]Change, len(tail))
	copy(changes, tail)
	return &ChangeSet{From: since, To: t.version, Changes: changes}, nil
}

// Delta is the net effect of a table's mutations after a watermark,
// keyed by primary key: a row inserted then updated appears once in
// Inserts with its final image; a row updated then deleted appears once
// in Deletes.
type Delta struct {
	Table    string
	From, To uint64
	// Reset marks a failed watermark: the journal could not serve the
	// delta, Inserts holds a full snapshot instead and Updates/Deletes
	// are empty. Consumers must rebuild their derived state from scratch.
	Reset bool
	// Inserts holds current images of rows that did not exist at From,
	// in first-insertion order.
	Inserts *Relation
	// Updates holds current images of rows that existed at From and
	// changed, in first-touch order.
	Updates *Relation
	// Deletes holds the last-known images of rows that existed at From
	// and are gone, in first-touch order.
	Deletes *Relation
}

// Empty reports whether the delta carries no work at all.
func (d *Delta) Empty() bool {
	return !d.Reset && d.Inserts.Len() == 0 && d.Updates.Len() == 0 && d.Deletes.Len() == 0
}

// Rows returns the total number of row images carried by the delta.
func (d *Delta) Rows() int {
	return d.Inserts.Len() + d.Updates.Len() + d.Deletes.Len()
}

// netEntry tracks the net disposition of one primary key during replay.
type netEntry struct {
	key Row // representative row used for key comparison
	old Row // image at From, nil when the key did not exist then
	cur Row // current image, nil when deleted
}

// DeltaSince folds the journal tail into a net per-key Delta. It fails
// with ErrDeltaUnavailable when the history is gone (see ChangesSince)
// or when a keyless table saw non-insert changes (no identity to net
// them by). Callers wanting the automatic full-snapshot fallback use
// QuerySince instead.
func (t *Table) DeltaSince(since uint64) (*Delta, error) {
	cs, err := t.ChangesSince(since)
	if err != nil {
		return nil, err
	}
	d := &Delta{Table: t.name, From: cs.From, To: cs.To}
	if !t.schema.HasKey() {
		rows := make([]Row, 0, len(cs.Changes))
		for _, ch := range cs.Changes {
			if ch.Kind != ChangeInsert {
				return nil, fmt.Errorf("relational: %s: keyless table saw %s: %w",
					t.name, ch.Kind, ErrDeltaUnavailable)
			}
			rows = append(rows, ch.New)
		}
		d.Inserts = &Relation{schema: t.schema, rows: rows}
		d.Updates = &Relation{schema: t.schema}
		d.Deletes = &Relation{schema: t.schema}
		return d, nil
	}
	key := t.schema.Key
	var entries chain[uint64] // key hash -> index into order
	var order []netEntry
	// entry returns the entry of row's key. A key seen for the first time
	// gets a new entry holding old, its image at From (nil for a key that
	// did not exist then).
	entry := func(row, old Row) *netEntry {
		h := hashRowOn(row, key)
		i, ok := entries.findOrAdd(h, int32(len(order)), func(i int32) bool { return keyEqual(order[i].key, row, key) })
		if !ok {
			order = append(order, netEntry{key: row, old: old})
		}
		return &order[i]
	}
	for _, ch := range cs.Changes {
		switch ch.Kind {
		case ChangeInsert:
			// A key seen before was deleted: delete-then-reinsert nets
			// to an update.
			entry(ch.New, nil).cur = ch.New
		case ChangeUpdate:
			entry(ch.New, ch.Old).cur = ch.New
		case ChangeDelete:
			entry(ch.Old, ch.Old).cur = nil
		}
	}
	var ins, upd, del []Row
	for i := range order {
		e := &order[i]
		switch {
		case e.old == nil && e.cur != nil:
			ins = append(ins, e.cur)
		case e.old != nil && e.cur == nil:
			del = append(del, e.old)
		case e.old != nil && rowChanged(e.old, e.cur):
			upd = append(upd, e.cur)
		}
	}
	d.Inserts = &Relation{schema: t.schema, rows: ins}
	d.Updates = &Relation{schema: t.schema, rows: upd}
	d.Deletes = &Relation{schema: t.schema, rows: del}
	return d, nil
}

// QuerySince is DeltaSince with the mandated fallback: when the journal
// cannot serve the watermark it returns a Reset delta carrying a full
// snapshot (and the current version to re-watermark from) instead of an
// error.
func (t *Table) QuerySince(since uint64) (*Delta, error) {
	d, err := t.DeltaSince(since)
	if err == nil {
		return d, nil
	}
	if !errors.Is(err, ErrDeltaUnavailable) {
		return nil, err
	}
	snap, v := t.ScanWithVersion()
	empty := &Relation{schema: t.schema}
	return &Delta{
		Table: t.name, From: since, To: v, Reset: true,
		// A view, not the snapshot itself: the full-snapshot fallback
		// serves the table's cached scan, which delta consumers must not
		// be able to corrupt in place.
		Inserts: snap.View(), Updates: empty, Deletes: empty,
	}, nil
}

// ScanWithVersion returns the scan snapshot together with the row
// version it reflects, atomically — the pair consumers need to build
// derived state and watermark it in one step.
func (t *Table) ScanWithVersion() (*Relation, uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.scanLocked(), t.version
}

// rowChanged reports whether two row images differ in any column.
func rowChanged(a, b Row) bool {
	if len(a) != len(b) {
		return true
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return true
		}
	}
	return false
}

package relational

import "slices"

// Access-path planning: Table.SelectWhere, Table.Delete and Table.Update
// recognize equality predicates on the primary key or on a CreateIndex'ed
// column and probe the corresponding hash index instead of scanning the
// whole relation. Explain exposes the planner's choice so tests (and
// curious operators) can assert which path runs.

// AccessKind identifies the access path chosen for a predicate.
type AccessKind uint8

// Access paths, from cheapest to most expensive.
const (
	// AccessPKProbe probes the primary-key hash index (full-key equality).
	AccessPKProbe AccessKind = iota
	// AccessIndexProbe probes one secondary hash index.
	AccessIndexProbe
	// AccessScan evaluates the predicate over every live row.
	AccessScan
)

// String names the access kind in EXPLAIN style.
func (k AccessKind) String() string {
	switch k {
	case AccessPKProbe:
		return "PK PROBE"
	case AccessIndexProbe:
		return "INDEX PROBE"
	case AccessScan:
		return "SCAN"
	default:
		return "?"
	}
}

// AccessPath describes how a predicate will be evaluated against a table.
type AccessPath struct {
	Kind AccessKind
	// Column is the probed column for AccessIndexProbe; empty otherwise.
	Column string
}

// String renders the path, e.g. "INDEX PROBE(Ordkey)".
func (p AccessPath) String() string {
	if p.Kind == AccessIndexProbe {
		return p.Kind.String() + "(" + p.Column + ")"
	}
	return p.Kind.String()
}

// AccessStats returns how often each access path ran on this table across
// SelectWhere, Delete and Update.
func (t *Table) AccessStats() (scans, pkProbes, indexProbes uint64) {
	return t.scanCount.Load(), t.pkProbeCount.Load(), t.idxProbeCount.Load()
}

// Explain returns the access path the table would use for the predicate —
// the planner hook the index tests assert against. It never touches data.
func (t *Table) Explain(pred Predicate) AccessPath {
	t.mu.RLock()
	defer t.mu.RUnlock()
	path, _ := t.chooseLocked(pred)
	return path
}

// eqConjuncts collects the column-equals-constant comparisons that the
// predicate is guaranteed to imply: the predicate itself, or any member of
// a (nested) top-level conjunction.
func eqConjuncts(pred Predicate, out []cmpPred) []cmpPred {
	switch p := pred.(type) {
	case cmpPred:
		if p.op == OpEq {
			out = append(out, p)
		}
	case andPred:
		for _, sub := range p {
			out = eqConjuncts(sub, out)
		}
	}
	return out
}

// chooseLocked picks the access path for the predicate. For probe paths it
// returns the candidate slots as a fresh slice in ascending order (safe to
// hold while the indexes are mutated); for AccessScan the slot list is nil
// and the caller iterates all rows. Candidate rows still need the full
// predicate applied — the probe is a superset filter. The caller holds mu
// in either mode.
//
// A probe is only chosen when the constant's type matches the column's
// declared type exactly: Value.Compare equates BIGINT 5 with DOUBLE 5.0,
// but the hash indexes are typed, so a mixed-type probe would miss rows a
// scan finds.
func (t *Table) chooseLocked(pred Predicate) (AccessPath, []int32) {
	eqs := eqConjuncts(pred, nil)
	if len(eqs) == 0 {
		return AccessPath{Kind: AccessScan}, nil
	}
	typed := func(cp cmpPred, ordinal int) bool {
		return !cp.val.IsNull() && cp.val.Type() == t.schema.Columns[ordinal].Type
	}
	// Full-key equality on the primary key: the cheapest probe.
	if t.schema.HasKey() {
		key := make([]Value, len(t.schema.Key))
		found := 0
		for i, ko := range t.schema.Key {
			for _, cp := range eqs {
				if t.schema.Ordinal(cp.col) == ko && typed(cp, ko) {
					key[i] = cp.val
					found++
					break
				}
			}
		}
		if found == len(t.schema.Key) {
			return AccessPath{Kind: AccessPKProbe}, sortedSlots(&t.pk, hashValues(key))
		}
	}
	// Single-column equality on a secondary index, first match wins.
	for _, cp := range eqs {
		idx := t.index(lower(cp.col))
		if idx == nil || !typed(cp, idx.ordinal) {
			continue
		}
		slots := sortedSlots(&idx.slots, hashValue(cp.val))
		return AccessPath{Kind: AccessIndexProbe, Column: t.schema.Columns[idx.ordinal].Name}, slots
	}
	return AccessPath{Kind: AccessScan}, nil
}

// sortedSlots returns the slots filed under h as a fresh slice in
// ascending order, so probe paths visit rows in the same order a scan
// would (trigger firing order and slot reuse stay deterministic and
// identical to the scan path).
func sortedSlots(index *chain[uint64], h uint64) []int32 {
	slots := index.appendIDs(nil, h)
	slices.Sort(slots)
	return slots
}

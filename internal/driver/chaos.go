package driver

import (
	"fmt"
	"sort"
	"strings"

	rel "repro/internal/relational"
	"repro/internal/scenario"
	"repro/internal/schema"
)

// Chaos verification: after a benchmark run under fault injection whose
// transient faults were absorbed by the resilience layer, the integrated
// data (warehouse, data marts, consolidated database) must be identical
// to a fault-free run of the same configuration — retries and breaker
// recoveries are only correct if they are invisible in the data.

// integratedSystems are the systems whose state the integration
// processes produce; source systems are regenerated per period and not
// part of the integration outcome.
func integratedSystems() []string {
	out := []string{schema.SysDWH, schema.SysCDB, schema.SysUSEastcoast}
	for _, v := range schema.Marts {
		out = append(out, v.Name)
	}
	sort.Strings(out)
	return out
}

// SnapshotIntegrated renders the canonical state of the integrated
// systems: per system and table (sorted), the schema header followed by
// every row as a canonical value line, rows sorted. Two runs producing
// the same logical state render byte-identical snapshots regardless of
// row arrival order.
func SnapshotIntegrated(s *scenario.Scenario) string {
	var b strings.Builder
	for _, sys := range integratedSystems() {
		db := s.DB(sys)
		if db == nil {
			continue
		}
		b.WriteString(snapshotDB(sys, db))
	}
	return b.String()
}

// canonicalRow renders one row as a stable, unambiguous line.
func canonicalRow(row rel.Row) string {
	var b strings.Builder
	for i, v := range row {
		if i > 0 {
			b.WriteByte('|')
		}
		if v.IsNull() {
			b.WriteString("\\N")
		} else {
			b.WriteString(strings.ReplaceAll(v.String(), "|", "\\|"))
		}
	}
	return b.String()
}

// VerifyTwin compares the integrated state of a run against a twin run
// that reached the same logical state another way (fault-free, full
// recompute, ...), one check per system plus a whole-snapshot check.
// label prefixes the check names; okInfo describes a passing comparison.
func VerifyTwin(label, okInfo string, run, twin *scenario.Scenario) *VerificationResult {
	v := &VerificationResult{}
	identical := 0
	for _, sys := range integratedSystems() {
		fdb, cdb := run.DB(sys), twin.DB(sys)
		if fdb == nil || cdb == nil {
			v.Checks = append(v.Checks, Check{Name: label + " " + sys, OK: false, Info: "system missing"})
			continue
		}
		fs := snapshotDB(sys, fdb)
		cs := snapshotDB(sys, cdb)
		ok := fs == cs
		info := okInfo
		if !ok {
			info = firstDivergence(fs, cs)
		} else {
			identical++
		}
		v.Checks = append(v.Checks, Check{Name: label + " " + sys, OK: ok, Info: info})
	}
	v.Checks = append(v.Checks, Check{
		Name: label + " transparency",
		OK:   identical == len(integratedSystems()),
		Info: fmt.Sprintf("%d/%d integrated systems byte-identical", identical, len(integratedSystems())),
	})
	return v
}

// snapshotDB renders one database's canonical state.
func snapshotDB(sys string, db *rel.Database) string {
	var b strings.Builder
	names := db.TableNames()
	sort.Strings(names)
	for _, tn := range names {
		t := db.Table(tn)
		r := t.Scan()
		fmt.Fprintf(&b, "== %s.%s (%d rows) %s\n", sys, tn, r.Len(), t.Schema().String())
		lines := make([]string, r.Len())
		for i := 0; i < r.Len(); i++ {
			lines[i] = canonicalRow(r.Row(i))
		}
		sort.Strings(lines)
		for _, l := range lines {
			b.WriteString(l)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// firstDivergence names the first differing snapshot line for diagnosis.
func firstDivergence(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d: faulty %q vs clean %q", i+1, truncate(al[i]), truncate(bl[i]))
		}
	}
	return fmt.Sprintf("snapshot lengths differ: %d vs %d lines", len(al), len(bl))
}

func truncate(s string) string {
	if len(s) > 80 {
		return s[:80] + "..."
	}
	return s
}

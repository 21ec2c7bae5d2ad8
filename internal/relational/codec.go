package relational

import (
	"encoding/binary"
	"fmt"
	"math"
)

// snapshotMagic pins the per-database snapshot blob format used by the
// crash-recovery checkpoints.
const snapshotMagic = "DIPDBS1\n"

// Snapshot serializes the database's full contents to a self-describing
// binary blob: for every table its name, schema signature, version
// counter and the live rows in slot order. Journals are deliberately NOT
// serialized — a restored table starts with an empty journal, and any
// stale extraction watermark degrades to a full-snapshot Reset delta,
// which PR 4 pins as byte-identical to the incremental path.
func (db *Database) Snapshot() ([]byte, error) {
	names := db.TableNames()
	buf := append([]byte(nil), snapshotMagic...)
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	for _, name := range names {
		t := db.MustTable(name)
		rows, version := t.snapshotRows()
		buf = appendString(buf, t.Name())
		buf = appendString(buf, t.Schema().String())
		buf = binary.AppendUvarint(buf, version)
		buf = binary.AppendUvarint(buf, uint64(len(rows)))
		for _, row := range rows {
			buf = binary.AppendUvarint(buf, uint64(len(row)))
			for _, v := range row {
				buf = appendValue(buf, v)
			}
		}
	}
	return buf, nil
}

// Restore replaces the database's contents with a snapshot produced by
// Snapshot. The snapshot must describe exactly the tables the catalog
// declares, with matching schema signatures; any drift fails loudly. It
// returns the number of rows restored.
func (db *Database) Restore(blob []byte) (int, error) {
	d := &snapDecoder{b: blob}
	if err := d.magic(); err != nil {
		return 0, fmt.Errorf("relational: restore %s: %w", db.name, err)
	}
	n := int(d.uvarint())
	want := db.TableNames()
	if d.err == nil && n != len(want) {
		return 0, fmt.Errorf("relational: restore %s: snapshot has %d tables, catalog has %d", db.name, n, len(want))
	}
	total := 0
	for i := 0; i < n && d.err == nil; i++ {
		name := d.str()
		sig := d.str()
		version := d.uvarint()
		rowCount := int(d.uvarint())
		if d.err != nil {
			break
		}
		t := db.Table(name)
		if t == nil {
			return total, fmt.Errorf("relational: restore %s: snapshot table %q not in catalog", db.name, name)
		}
		if got := t.Schema().String(); got != sig {
			return total, fmt.Errorf("relational: restore %s.%s: schema %q != snapshot %q", db.name, name, got, sig)
		}
		rows := make([]Row, rowCount)
		for r := 0; r < rowCount; r++ {
			width := int(d.uvarint())
			if d.err != nil {
				break
			}
			row := make(Row, width)
			for c := 0; c < width; c++ {
				row[c] = d.value()
			}
			rows[r] = row
		}
		if d.err != nil {
			break
		}
		if err := t.RestoreSnapshot(rows, version); err != nil {
			return total, fmt.Errorf("relational: restore %s: %w", db.name, err)
		}
		total += rowCount
	}
	if d.err != nil {
		return total, fmt.Errorf("relational: restore %s: %w", db.name, d.err)
	}
	return total, nil
}

// snapshotRows returns the live rows in slot order plus the version
// counter, without materializing a cached Relation.
func (t *Table) snapshotRows() ([]Row, uint64) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	rows := make([]Row, 0, len(t.rows)-len(t.free))
	for _, row := range t.rows {
		if row != nil {
			rows = append(rows, row)
		}
	}
	return rows, t.version
}

// RestoreSnapshot replaces the table's contents with the given rows (in
// the order they will occupy slots), pinning the version counter to the
// checkpointed value. The primary key and all secondary indexes are
// rebuilt; the change journal restarts empty just past the restored
// version, so a pre-crash watermark that survived observes
// ErrDeltaUnavailable and falls back to a full-snapshot Reset delta.
// Triggers do not fire: a restore re-materializes state, it is not new
// data flowing through the integration processes.
func (t *Table) RestoreSnapshot(rows []Row, version uint64) error {
	for i, row := range rows {
		if err := t.schema.CheckRow(row); err != nil {
			return fmt.Errorf("row %d of %s: %w", i, t.name, err)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rows = make([]Row, len(rows))
	t.free = nil
	t.pk = newChain[uint64](len(rows))
	for i := range t.indexes {
		t.indexes[i].slots = chain[uint64]{}
	}
	for i, row := range rows {
		row = row.Clone()
		slot := int32(i)
		if t.schema.HasKey() {
			h := t.hashKey(row)
			if _, dup := t.keySlot(h, row); dup {
				return &KeyError{Table: t.name, Key: row.pick(t.schema.Key)}
			}
			t.pk.add(h, slot)
		}
		t.rows[slot] = row
		t.indexRow(slot, row)
	}
	t.version = version
	t.snap = nil
	t.journal = t.journal[:0]
	t.journalStart = version + 1
	return nil
}

// Snapshot serializes the connected database through the simulated
// transport (charged latency, fault hooks).
func (c *Conn) Snapshot() ([]byte, error) {
	if err := c.roundTrip("snapshot", "*"); err != nil {
		return nil, err
	}
	return c.db.Snapshot()
}

// Restore replaces the connected database's contents through the
// simulated transport.
func (c *Conn) Restore(blob []byte) (int, error) {
	if err := c.roundTrip("restore", "*"); err != nil {
		return 0, err
	}
	return c.db.Restore(blob)
}

// appendValue encodes one value as a type tag plus payload.
func appendValue(b []byte, v Value) []byte {
	b = append(b, byte(v.typ))
	switch v.typ {
	case TypeNull:
	case TypeInt, TypeBool, TypeTime:
		b = binary.AppendVarint(b, v.i)
	case TypeFloat:
		b = binary.LittleEndian.AppendUint64(b, uint64(v.i))
	case TypeString:
		b = appendString(b, v.s)
	}
	return b
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

type snapDecoder struct {
	b   []byte
	err error
}

func (d *snapDecoder) magic() error {
	if len(d.b) < len(snapshotMagic) || string(d.b[:len(snapshotMagic)]) != snapshotMagic {
		return fmt.Errorf("bad snapshot magic")
	}
	d.b = d.b[len(snapshotMagic):]
	return nil
}

func (d *snapDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.err = fmt.Errorf("truncated uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *snapDecoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.err = fmt.Errorf("truncated varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *snapDecoder) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if uint64(len(d.b)) < n {
		d.err = fmt.Errorf("truncated string")
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *snapDecoder) value() Value {
	if d.err != nil {
		return Value{}
	}
	if len(d.b) < 1 {
		d.err = fmt.Errorf("truncated value tag")
		return Value{}
	}
	typ := Type(d.b[0])
	d.b = d.b[1:]
	switch typ {
	case TypeNull:
		return Value{}
	case TypeInt, TypeBool, TypeTime:
		return Value{typ: typ, i: d.varint()}
	case TypeFloat:
		if len(d.b) < 8 {
			d.err = fmt.Errorf("truncated float")
			return Value{}
		}
		f := math.Float64frombits(binary.LittleEndian.Uint64(d.b[:8]))
		d.b = d.b[8:]
		return NewFloat(f)
	case TypeString:
		return Value{typ: TypeString, s: d.str()}
	default:
		d.err = fmt.Errorf("unknown value tag %d", typ)
		return Value{}
	}
}

package checkpoint

import (
	"os"
	"path/filepath"
	"testing"
)

var testMeta = Meta{Seed: 42, Datasize: 0.02, TimeScale: 1, Dist: "uniform", Engine: "pipeline", Periods: 3}

func TestCommitLatestReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m, err := NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	blob := []byte("state-at-period-1-barrier-2")
	man, err := m.Commit(testMeta, 1, 2, 777, blob)
	if err != nil {
		t.Fatal(err)
	}
	if man.Seq != 1 || man.Period != 1 || man.Barrier != 2 || man.WALOffset != 777 {
		t.Fatalf("manifest %+v", man)
	}
	got, err := m.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if got != man {
		t.Fatalf("Latest %+v != committed %+v", got, man)
	}
	snap, err := m.ReadSnapshot(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(snap) != string(blob) {
		t.Fatalf("snapshot %q", snap)
	}
	if err := CheckMeta(got.Meta, testMeta); err != nil {
		t.Fatal(err)
	}
	bad := testMeta
	bad.Seed = 43
	if err := CheckMeta(got.Meta, bad); err == nil {
		t.Fatal("meta mismatch must error")
	}
}

func TestCommitSupersedesAndPrunes(t *testing.T) {
	dir := t.TempDir()
	m, err := NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Commit(testMeta, 0, 3, 10, []byte("one")); err != nil {
		t.Fatal(err)
	}
	man2, err := m.Commit(testMeta, 1, 3, 20, []byte("two"))
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	snaps := 0
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".bin" {
			snaps++
		}
	}
	if snaps != 1 {
		t.Fatalf("%d snapshots on disk after supersede, want 1", snaps)
	}
	got, err := m.Latest()
	if err != nil || got.Seq != man2.Seq {
		t.Fatalf("latest %+v err=%v", got, err)
	}
	// A new Manager over the same dir continues the sequence.
	m2, err := NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	man3, err := m2.Commit(testMeta, 2, 3, 30, []byte("three"))
	if err != nil {
		t.Fatal(err)
	}
	if man3.Seq != man2.Seq+1 {
		t.Fatalf("seq %d after reopen, want %d", man3.Seq, man2.Seq+1)
	}
}

func TestCorruptSnapshotDetected(t *testing.T) {
	dir := t.TempDir()
	m, err := NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	man, err := m.Commit(testMeta, 0, 1, 5, []byte("payload-bytes"))
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(dir, man.Snapshot)
	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	raw[0] ^= 0xff
	if err := os.WriteFile(p, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ReadSnapshot(man); err == nil {
		t.Fatal("corrupt snapshot must fail the CRC check")
	}
	// Size mismatch also detected.
	if err := os.WriteFile(p, raw[:4], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ReadSnapshot(man); err == nil {
		t.Fatal("short snapshot must fail the size check")
	}
}

func TestLatestWithoutManifestErrors(t *testing.T) {
	m, err := NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Latest(); err == nil {
		t.Fatal("Latest on empty dir must error")
	}
}

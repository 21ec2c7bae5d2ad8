// Package checkpoint persists periodic snapshots of the benchmark's
// relational state plus a manifest that names the latest valid snapshot
// and the WAL offset it covers. Commits are crash-atomic: the snapshot
// blob and then the manifest are each written to a temp file, fsynced
// and renamed into place, so a crash at any point leaves either the old
// checkpoint or the new one — never a half-written mix. The manifest is
// keyed by the run configuration (seed, scale factors, engine, flags);
// resuming under a different configuration fails loudly instead of
// replaying into a state that can never match.
package checkpoint

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
)

// Meta keys a checkpoint to one run configuration. Any mismatch between
// the manifest's Meta and the resuming process's Meta aborts recovery.
type Meta struct {
	Seed      int64   `json:"seed"`
	Datasize  float64 `json:"datasize"`
	TimeScale float64 `json:"time_scale"`
	Dist      string  `json:"dist"`
	Engine    string  `json:"engine"`
	Periods   int     `json:"periods"`
	// Shards is the engine's region-shard count (0 = unsharded). The
	// snapshot carries per-shard engine state, so a run with a different
	// shard count has nowhere to restore it.
	Shards int `json:"shards"`
}

// Manifest describes the latest committed checkpoint.
type Manifest struct {
	Version      int    `json:"version"`
	Meta         Meta   `json:"meta"`
	Period       int    `json:"period"`
	Barrier      int    `json:"barrier"`
	Snapshot     string `json:"snapshot"`
	SnapshotCRC  uint32 `json:"snapshot_crc"`
	SnapshotSize int64  `json:"snapshot_size"`
	WALOffset    int64  `json:"wal_offset"`
	Seq          uint64 `json:"seq"`
}

// manifestVersion pins the on-disk manifest format.
const manifestVersion = 1

// walFile is the WAL file every manifest's WALOffset refers to.
const walFile = "wal.log"

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Manager owns one checkpoint directory: snapshots, manifest.json and
// the WAL file all live under it.
type Manager struct {
	dir string
	seq uint64
}

// NewManager prepares a checkpoint directory, creating it if needed.
func NewManager(dir string) (*Manager, error) {
	if dir == "" {
		return nil, fmt.Errorf("checkpoint: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: mkdir: %w", err)
	}
	m := &Manager{dir: dir}
	if man, err := m.Latest(); err == nil {
		m.seq = man.Seq
	}
	return m, nil
}

// WALPath returns the WAL file path inside the checkpoint directory.
func (m *Manager) WALPath() string { return filepath.Join(m.dir, walFile) }

func (m *Manager) manifestPath() string { return filepath.Join(m.dir, "manifest.json") }

// Commit durably writes a new snapshot and publishes it in the manifest.
// The returned manifest's Seq names the snapshot (snap-<seq>.bin); older
// snapshots are deleted best-effort once superseded.
func (m *Manager) Commit(meta Meta, period, barrier int, walOffset int64, snapshot []byte) (Manifest, error) {
	m.seq++
	name := fmt.Sprintf("snap-%06d.bin", m.seq)
	if err := writeDurably(filepath.Join(m.dir, name), snapshot); err != nil {
		return Manifest{}, err
	}
	man := Manifest{
		Version:      manifestVersion,
		Meta:         meta,
		Period:       period,
		Barrier:      barrier,
		Snapshot:     name,
		SnapshotCRC:  crc32.Checksum(snapshot, castagnoli),
		SnapshotSize: int64(len(snapshot)),
		WALOffset:    walOffset,
		Seq:          m.seq,
	}
	blob, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return Manifest{}, fmt.Errorf("checkpoint: encode manifest: %w", err)
	}
	if err := writeDurably(m.manifestPath(), blob); err != nil {
		return Manifest{}, err
	}
	m.pruneExcept(name)
	return man, nil
}

// Latest loads the current manifest. A missing manifest returns an error
// (there is nothing to resume from).
func (m *Manager) Latest() (Manifest, error) { return ReadManifest(m.dir) }

// ReadManifest loads the committed manifest of a checkpoint directory
// without constructing a Manager — read-only consumers (admission
// ordering, dipmon) must not bump sequence state.
func ReadManifest(dir string) (Manifest, error) {
	blob, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return Manifest{}, fmt.Errorf("checkpoint: no manifest in %s: %w", dir, err)
	}
	var man Manifest
	if err := json.Unmarshal(blob, &man); err != nil {
		return Manifest{}, fmt.Errorf("checkpoint: corrupt manifest: %w", err)
	}
	if man.Version != manifestVersion {
		return Manifest{}, fmt.Errorf("checkpoint: manifest version %d, want %d", man.Version, manifestVersion)
	}
	return man, nil
}

// WALFile names the WAL file a manifest's WALOffset refers to.
func (man Manifest) WALFile() string { return walFile }

// ReadSnapshot loads and integrity-checks the snapshot a manifest names.
func (m *Manager) ReadSnapshot(man Manifest) ([]byte, error) {
	blob, err := os.ReadFile(filepath.Join(m.dir, man.Snapshot))
	if err != nil {
		return nil, fmt.Errorf("checkpoint: read snapshot: %w", err)
	}
	if int64(len(blob)) != man.SnapshotSize {
		return nil, fmt.Errorf("checkpoint: snapshot %s is %d bytes, manifest says %d",
			man.Snapshot, len(blob), man.SnapshotSize)
	}
	if crc := crc32.Checksum(blob, castagnoli); crc != man.SnapshotCRC {
		return nil, fmt.Errorf("checkpoint: snapshot %s CRC %08x, manifest says %08x",
			man.Snapshot, crc, man.SnapshotCRC)
	}
	return blob, nil
}

// CheckMeta verifies that a resuming run's configuration matches the
// checkpoint's; a silent mismatch would replay into unrecoverable state.
func CheckMeta(want, got Meta) error {
	if want.Shards != got.Shards {
		return fmt.Errorf("checkpoint: shard count mismatch: checkpoint was taken with %d shards but this run uses %d — a -shards run can only resume a snapshot taken with the same shard count",
			want.Shards, got.Shards)
	}
	if want != got {
		return fmt.Errorf("checkpoint: run configuration mismatch: checkpoint %+v vs run %+v", want, got)
	}
	return nil
}

// pruneExcept removes superseded snapshot files. Failures are ignored:
// stale files waste space but never break correctness.
func (m *Manager) pruneExcept(keep string) {
	entries, err := os.ReadDir(m.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		n := e.Name()
		if strings.HasPrefix(n, "snap-") && strings.HasSuffix(n, ".bin") && n != keep {
			_ = os.Remove(filepath.Join(m.dir, n))
		}
	}
}

// writeDurably writes blob to path via temp file + fsync + rename, then
// fsyncs the directory so the rename itself survives a crash.
func writeDurably(path string, blob []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("checkpoint: temp file: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after successful rename
	if _, err := tmp.Write(blob); err != nil {
		_ = tmp.Close()
		return fmt.Errorf("checkpoint: write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()
		return fmt.Errorf("checkpoint: fsync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("checkpoint: close: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("checkpoint: rename: %w", err)
	}
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

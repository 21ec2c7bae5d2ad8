package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/driver"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/monitor"
	"repro/internal/scenario"
	"repro/internal/schedule"
	"repro/internal/wal"
)

// snapshotPayload is everything a checkpoint captures beyond the
// manifest: the topology's database blobs, the engine's durable state,
// the monitor's execution ledger and the driver's cumulative statistics
// at the barrier.
type snapshotPayload struct {
	Databases   map[string][]byte
	Engine      *engine.State
	Ledger      []monitor.LedgerEntry
	Events      int
	Failures    int
	FailuresBy  map[string]int
	PeriodsDone int
	// FaultOcc anchors the fault plan's deterministic decision stream:
	// without it a resumed chaos run would draw different faults than
	// the uninterrupted run and break digest identity.
	FaultOcc []fault.OccCount
}

// walSyncEvery is the group-commit interval. The durability policy is
// tiered: every stream barrier flushes the buffered tail to the OS
// (survives a process kill), checkpoint commits and DLQ appends fsync
// (survive a machine crash), and in between at most this many records
// ride in the buffer. Anything lost to a crash is re-executed
// deterministically from the last checkpoint, so the tiering trades no
// correctness for keeping fsyncs off the stream throughput path.
const walSyncEvery = 4096

// recoveryController is the benchmark's durability layer: it implements
// driver.RecoveryLog by appending every lifecycle hook to the WAL, and
// commits crash-atomic snapshots of the full stack at checkpoint
// barriers. One controller serves one run.
type recoveryController struct {
	mgr   *checkpoint.Manager
	w     *wal.Writer
	meta  checkpoint.Meta
	every int // 1 = every barrier; N>1 = period-end of every Nth period

	scn *scenario.Scenario
	eng *engine.Engine
	mon *monitor.Monitor
	// plan is held directly rather than read through the scenario: the
	// restore path runs before the plan is installed at the external
	// boundaries (a snapshot restore must never draw injected faults),
	// and the occurrence state has to land in the plan regardless.
	plan *fault.Plan
}

// checkpointMeta derives the configuration key that locks a checkpoint
// directory to one run setup.
func checkpointMeta(cfg Config, eng *engine.Engine) checkpoint.Meta {
	return checkpoint.Meta{
		Seed:      int64(cfg.Seed),
		Datasize:  cfg.Datasize,
		TimeScale: cfg.TimeScale,
		Dist:      cfg.Distribution,
		Engine:    cfg.Engine,
		Periods:   cfg.Periods,
		Shards:    eng.ShardCount(),
	}
}

// newRecoveryController prepares the WAL and checkpoint manager. With
// resume it restores the stack from the latest valid checkpoint, reopens
// wal.log for appending and returns the driver's Resume point; otherwise
// it starts a fresh WAL.
func newRecoveryController(cfg Config, scn *scenario.Scenario, eng *engine.Engine, mon *monitor.Monitor, plan *fault.Plan) (*recoveryController, *driver.Resume, error) {
	mgr, err := checkpoint.NewManager(cfg.WALDir)
	if err != nil {
		return nil, nil, err
	}
	rc := &recoveryController{
		mgr: mgr, meta: checkpointMeta(cfg, eng), every: cfg.CheckpointEvery,
		scn: scn, eng: eng, mon: mon, plan: plan,
	}
	if rc.every <= 0 {
		rc.every = 1
	}
	var res *driver.Resume
	if cfg.Resume {
		res, err = rc.recover()
		if err != nil {
			return nil, nil, err
		}
		rc.w, err = wal.OpenAppend(mgr.WALPath(), walSyncEvery)
	} else {
		rc.w, err = wal.Create(mgr.WALPath(), walSyncEvery)
	}
	if err != nil {
		return nil, nil, err
	}
	eng.SetDLQSink(rc.deadLetter)
	return rc, res, nil
}

// recover restores scenario databases, engine state and monitor ledger
// from the latest checkpoint, then replays the WAL suffix to build the
// dedup map of events acknowledged after the checkpoint but before the
// crash.
func (rc *recoveryController) recover() (*driver.Resume, error) {
	man, err := rc.mgr.Latest()
	if err != nil {
		return nil, err
	}
	blob, err := rc.mgr.ReadSnapshot(man)
	if err != nil {
		return nil, err
	}
	if err := checkpoint.CheckMeta(man.Meta, rc.meta); err != nil {
		return nil, err
	}
	t0 := time.Now()
	var p snapshotPayload
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&p); err != nil {
		return nil, fmt.Errorf("core: decode snapshot: %w", err)
	}
	if err := rc.scn.RestoreDatabases(p.Databases); err != nil {
		return nil, err
	}
	if err := rc.eng.RestoreState(p.Engine); err != nil {
		return nil, err
	}
	rc.mon.RestoreLedger(p.Ledger)
	rc.plan.RestoreState(p.FaultOcc)
	snapshotLat := time.Since(t0)

	t1 := time.Now()
	recs, _, _, err := wal.ReadAll(rc.mgr.WALPath(), man.WALOffset)
	if err != nil {
		return nil, err
	}
	dedup := make(map[uint64]string)
	for _, r := range recs {
		if r.Type != wal.TypeAck {
			continue
		}
		ev, err := wal.DecodeEvent(r.Payload)
		if err != nil {
			return nil, fmt.Errorf("core: corrupt ack in WAL suffix: %w", err)
		}
		if !ev.Failed {
			dedup[ev.Digest] = ev.Process
		}
	}
	replayLat := time.Since(t1)
	rc.mon.Recovery().SetRecovered(man.Period, man.Barrier, len(recs), snapshotLat, replayLat)
	return &driver.Resume{
		Period:            man.Period,
		Barrier:           man.Barrier,
		Events:            p.Events,
		Failures:          p.Failures,
		FailuresByProcess: p.FailuresBy,
		PeriodsDone:       p.PeriodsDone,
		Dedup:             dedup,
	}, nil
}

// --- driver.RecoveryLog ---

func (rc *recoveryController) PeriodBegin(k int) error {
	_, err := rc.w.Append(wal.TypePeriodBegin, wal.Event{Period: k}.Encode())
	return err
}

func (rc *recoveryController) StreamBegin(k int, s schedule.Stream) error {
	_, err := rc.w.Append(wal.TypeStreamBegin, wal.Event{Period: k, Stream: int(s)}.Encode())
	return err
}

func (rc *recoveryController) Dispatched(k int, s schedule.Stream, process string, seq int, digest uint64) error {
	_, err := rc.w.Append(wal.TypeDispatch, wal.Event{
		Period: k, Stream: int(s), Process: process, Seq: seq, Digest: digest,
	}.Encode())
	return err
}

func (rc *recoveryController) Acked(k int, s schedule.Stream, process string, seq int, digest uint64, failed bool) error {
	_, err := rc.w.Append(wal.TypeAck, wal.Event{
		Period: k, Stream: int(s), Process: process, Seq: seq, Digest: digest, Failed: failed,
	}.Encode())
	return err
}

func (rc *recoveryController) StreamEnd(k int, s schedule.Stream) error {
	// No fsync here: the barrier that closes this stream syncs
	// immediately after, and recovery never depends on StreamEnd markers
	// — they are replay-audit breadcrumbs.
	_, err := rc.w.Append(wal.TypeStreamEnd, wal.Event{Period: k, Stream: int(s)}.Encode())
	return err
}

// shouldCheckpoint gates snapshot commits: every=1 snapshots at all four
// barriers of every period; every=N>1 only at the period-end barrier of
// every Nth period. The WAL records all barriers either way.
func (rc *recoveryController) shouldCheckpoint(period, barrier int) bool {
	if rc.every == 1 {
		return true
	}
	return barrier == driver.BarrierPeriodEnd && (period+1)%rc.every == 0
}

func (rc *recoveryController) Barrier(bp driver.BarrierPoint) error {
	if !rc.shouldCheckpoint(bp.Period, bp.Barrier) {
		if _, err := rc.w.Append(wal.TypeBarrier, wal.BarrierNote{
			Period: bp.Period, Barrier: bp.Barrier,
		}.Encode()); err != nil {
			return err
		}
		return rc.w.Flush()
	}
	t0 := time.Now()
	dbs, err := rc.scn.SnapshotDatabases()
	if err != nil {
		return err
	}
	est, err := rc.eng.CheckpointState()
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&snapshotPayload{
		Databases:   dbs,
		Engine:      est,
		Ledger:      rc.mon.Ledger(),
		Events:      bp.Events,
		Failures:    bp.Failures,
		FailuresBy:  bp.FailuresByProcess,
		PeriodsDone: bp.PeriodsDone,
		FaultOcc:    rc.plan.CheckpointState(),
	}); err != nil {
		return fmt.Errorf("core: encode snapshot: %w", err)
	}
	// Make the WAL durable up to this barrier before publishing a
	// manifest whose WALOffset points here.
	if err := rc.w.Sync(); err != nil {
		return err
	}
	off := rc.w.Offset()
	man, err := rc.mgr.Commit(rc.meta, bp.Period, bp.Barrier, off, buf.Bytes())
	if err != nil {
		return err
	}
	if _, err := rc.w.Append(wal.TypeBarrier, wal.BarrierNote{
		Period: bp.Period, Barrier: bp.Barrier, Manifest: man.Seq,
	}.Encode()); err != nil {
		return err
	}
	if err := rc.w.Sync(); err != nil {
		return err
	}
	rc.mon.Recovery().CountCheckpoint(time.Since(t0))
	return nil
}

// --- engine sinks ---

// deadLetter records a parked message durably the moment it is parked —
// a dead letter is an audit fact that must survive any crash.
func (rc *recoveryController) deadLetter(d engine.DeadLetter) {
	cause := ""
	if d.Err != nil {
		cause = d.Err.Error()
	}
	if _, err := rc.w.Append(wal.TypeDLQ, wal.DLQEntry{
		Process: d.Process, Period: d.Period, Cause: cause, Message: d.Message,
	}.Encode()); err != nil {
		return
	}
	_ = rc.w.Sync()
}

// close is the graceful shutdown: flush and fsync the WAL tail.
func (rc *recoveryController) close() error {
	if rc == nil {
		return nil
	}
	return rc.w.Close()
}

// abandon simulates the process kill after an injected crash: the
// buffered WAL tail is dropped exactly as a real kill would drop it.
func (rc *recoveryController) abandon() {
	if rc == nil {
		return
	}
	rc.w.Abandon()
}

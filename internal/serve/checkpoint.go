package serve

import (
	"encoding/json"
	"fmt"

	"stretchsched/internal/model"
	"stretchsched/internal/stats"
)

// checkpointVersion guards the encoding; bump on incompatible change.
const checkpointVersion = 1

// SlotCk is one stream slot in a checkpoint: the job it holds (or last
// held, for tombstones), its liveness, its daemon sequence number and its
// remaining work at checkpoint time.
type SlotCk struct {
	Seq       uint64
	Name      string
	Release   float64
	Size      float64
	Databank  model.DatabankID
	Live      bool
	Remaining float64
}

// Checkpoint is the daemon's complete deterministic state. Every float is
// encoded by encoding/json's shortest-round-trip formatting, so decode
// reproduces the exact bit patterns. Restoring and replaying the remaining
// event stream yields a byte-identical decision log to the uninterrupted
// run. Checkpoints of exact daemons once carried a Session object, the
// slot table of a warm-started solve session; decoding ignores it.
type Checkpoint struct {
	Version int
	Policy  string
	Now     float64
	NextSeq uint64

	Slots []SlotCk
	Free  []model.JobID

	Recents                []Completed
	QStretch               []stats.P2State // p50, p90, p99
	QFlow                  []stats.P2State
	SumStretch, MaxStretch float64
	SumFlow, MaxFlow       float64
	NStretch, NFlow        uint64

	Submitted, CompletedN, Events, Checkpoints uint64
	// Switches is the backlog-guard transition count; the guard's *mode* is
	// deliberately absent — it is a pure function of the active count and is
	// recomputed on restore. Absent in pre-guard checkpoints (decodes as 0).
	Switches uint64 `json:",omitempty"`
	// Panics counts recovered loop panics. Absent in older checkpoints.
	Panics uint64 `json:",omitempty"`
	// LogRecords is the number of decision-log lines emitted before this
	// snapshot — synced to disk first when the sink supports it, so crash
	// recovery can truncate a framed log to exactly the attested records
	// (see RecoverLogFile). Absent in older checkpoints (decodes as 0).
	LogRecords uint64 `json:",omitempty"`
	Rejected   map[string]uint64
}

// Checkpoint snapshots the loop. The snapshot is taken at the loop's
// current quiescent instant — after the last committed event — so a
// restored daemon resumes exactly where this one stood. When the decision
// sink supports a Sync barrier (LogFile does), the attested log records
// are made durable before the snapshot exists: a checkpoint must never
// claim records a crash could still lose.
func (l *Loop) Checkpoint() (ck *Checkpoint, err error) {
	if err := l.acquire(0); err != nil {
		return nil, err
	}
	defer l.release()
	defer l.recoverPanic(&err)
	if err := l.checkPoisoned(); err != nil {
		return nil, err
	}
	if l.logErrs > 0 {
		// Failed decision lines were never counted in logLines, but a run
		// with holes in its log cannot honestly attest anything: a restore
		// would replay against a stream missing decisions.
		l.countReject(CodeLogWrite)
		return nil, reject(CodeLogWrite, "%d decision-log write errors, last: %v", l.logErrs, l.lastLogErr)
	}
	if s, ok := l.logw.(interface{ Sync() error }); ok {
		if err := s.Sync(); err != nil {
			l.countReject(CodeLogWrite)
			return nil, reject(CodeLogWrite, "syncing decision log before checkpoint: %v", err)
		}
	}
	l.counters.Checkpoints++
	ck = &Checkpoint{
		Version:    checkpointVersion,
		Policy:     l.name,
		Now:        l.drv.Now(),
		NextSeq:    l.seq,
		LogRecords: l.logLines,
		QStretch:   []stats.P2State{l.qs.p50.State(), l.qs.p90.State(), l.qs.p99.State()},
		QFlow:      []stats.P2State{l.qf.p50.State(), l.qf.p90.State(), l.qf.p99.State()},
		SumStretch: l.qs.sum, MaxStretch: l.qs.max, NStretch: l.qs.n,
		SumFlow: l.qf.sum, MaxFlow: l.qf.max, NFlow: l.qf.n,
		Submitted: l.counters.Submitted, CompletedN: l.counters.CompletedN,
		Events: l.counters.Events, Checkpoints: l.counters.Checkpoints,
		Switches: l.counters.Switches, Panics: l.counters.Panics,
		Rejected: map[string]uint64{},
	}
	for k, v := range l.counters.Rejected {
		ck.Rejected[k] = v
	}
	slots, live, free := l.stream.Snapshot(nil, nil, nil)
	for i, j := range slots {
		sc := SlotCk{
			Name: j.Name, Release: j.Release, Size: j.Size,
			Databank: j.Databank, Live: live[i],
		}
		if live[i] {
			sc.Seq = l.slotSeq[i]
			sc.Remaining = l.drv.Remaining(model.JobID(i))
		}
		ck.Slots = append(ck.Slots, sc)
	}
	ck.Free = free
	ck.Recents = l.recents.Snapshot(nil)
	return ck, nil
}

// Encode renders the checkpoint as deterministic JSON (fixed field order,
// sorted map keys, shortest-round-trip floats).
func (ck *Checkpoint) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(ck, "", " ")
	if err != nil {
		return nil, fmt.Errorf("serve: encoding checkpoint: %w", err)
	}
	return append(b, '\n'), nil
}

// WriteFile atomically persists the encoded checkpoint at path: temp
// file, fsync, rename, directory fsync — a crash mid-write leaves the
// previous checkpoint intact, never a torn one.
func (ck *Checkpoint) WriteFile(path string) error {
	b, err := ck.Encode()
	if err != nil {
		return err
	}
	return WriteFileAtomic(path, b, 0o644)
}

// DecodeCheckpoint parses an Encode output.
func DecodeCheckpoint(b []byte) (*Checkpoint, error) {
	ck := &Checkpoint{}
	if err := json.Unmarshal(b, ck); err != nil {
		return nil, reject(CodeBadState, "decoding checkpoint: %v", err)
	}
	if ck.Version != checkpointVersion {
		return nil, reject(CodeBadState, "checkpoint version %d, want %d", ck.Version, checkpointVersion)
	}
	return ck, nil
}

// Restore builds a loop from cfg resumed at ck: the stream slot table,
// driver clock and per-slot remaining work, recents ring, quantile
// estimators and counters are all rebuilt, then one unlogged replan
// re-establishes rates and the policy's priority order.
func Restore(cfg Config, ck *Checkpoint) (*Loop, error) {
	l, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if ck.Policy != l.name {
		return nil, reject(CodeBadState, "checkpoint is for policy %s, daemon runs %s", ck.Policy, l.name)
	}
	if len(ck.QStretch) != 3 || len(ck.QFlow) != 3 {
		return nil, reject(CodeBadState, "checkpoint has %d/%d quantile states, want 3/3",
			len(ck.QStretch), len(ck.QFlow))
	}
	slots := make([]model.Job, len(ck.Slots))
	live := make([]bool, len(ck.Slots))
	for i, sc := range ck.Slots {
		slots[i] = model.Job{
			ID: model.JobID(i), Name: sc.Name, Release: sc.Release,
			Size: sc.Size, Databank: sc.Databank,
		}
		live[i] = sc.Live
	}
	if err := l.stream.Restore(slots, live, ck.Free); err != nil {
		return nil, reject(CodeBadState, "%v", err)
	}
	var active []model.JobID
	var rem []float64
	for i, sc := range ck.Slots {
		for i >= len(l.slotSeq) {
			l.slotSeq = append(l.slotSeq, 0)
		}
		if sc.Live {
			l.slotSeq[i] = sc.Seq
			l.activeAt[sc.Seq] = model.JobID(i)
			active = append(active, model.JobID(i))
			rem = append(rem, sc.Remaining)
		}
	}
	l.drv.RestoreActive(active, rem)
	l.drv.SetNow(ck.Now)
	l.seq = ck.NextSeq
	for _, rec := range ck.Recents {
		l.recents.Push(rec)
	}
	qs := [3]*stats.P2Quantile{}
	qf := [3]*stats.P2Quantile{}
	for i := 0; i < 3; i++ {
		if qs[i], err = stats.RestoreP2(ck.QStretch[i]); err != nil {
			return nil, reject(CodeBadState, "%v", err)
		}
		if qf[i], err = stats.RestoreP2(ck.QFlow[i]); err != nil {
			return nil, reject(CodeBadState, "%v", err)
		}
	}
	l.qs.p50, l.qs.p90, l.qs.p99 = qs[0], qs[1], qs[2]
	l.qf.p50, l.qf.p90, l.qf.p99 = qf[0], qf[1], qf[2]
	l.qs.sum, l.qs.max, l.qs.n = ck.SumStretch, ck.MaxStretch, ck.NStretch
	l.qf.sum, l.qf.max, l.qf.n = ck.SumFlow, ck.MaxFlow, ck.NFlow
	l.counters.Submitted = ck.Submitted
	l.counters.CompletedN = ck.CompletedN
	l.counters.Events = ck.Events
	l.counters.Checkpoints = ck.Checkpoints
	l.counters.Switches = ck.Switches
	l.counters.Panics = ck.Panics
	l.logLines = ck.LogRecords
	for k, v := range ck.Rejected {
		l.counters.Rejected[k] = v
	}
	// Re-establish rates and the policy's order without logging: this
	// recomputation replaces in-memory state the interrupted daemon already
	// had, it is not a new decision. The guard mode is recomputed the same
	// way — derived, not decoded, and no transition is counted.
	l.degraded = l.guardMode()
	if l.drv.NumActive() > 0 {
		pol := l.pol
		if l.degraded {
			pol = l.fbPol
		}
		l.drv.Replan(pol)
	}
	return l, nil
}

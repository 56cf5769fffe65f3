package model

import "fmt"

// Stream maintains a live, bounded-memory Instance over an open-ended job
// stream — the substrate of the serving daemon (internal/serve), where jobs
// arrive and complete indefinitely and batch Instance construction
// (NewInstance, which sorts and renumbers) would both break ID stability
// and grow without bound.
//
// Jobs are assigned slots: a JobID is a slot index, recycled through a
// LIFO free-list when the job is removed, so the Jobs slice is bounded by
// the maximum number of concurrently live jobs, not the stream length.
// Slot IDs are stable for a job's lifetime — policy state keyed by JobID,
// such as Online-EGDF's priority ranks, stays valid across events — and a
// removed job's data stays in place as a tombstone until its slot is
// reused, so whole-instance aggregates (Delta, TotalWork) degrade
// gracefully rather than reading zeros.
//
// Consumers must only surface live slots to schedulers (the serving loop
// drives policies through a sim context whose Released mask covers exactly
// the live set); nothing in the solver stack reads unreleased slots.
// A Stream is single-goroutine, like the loop that owns it.
type Stream struct {
	inst Instance
	live []bool
	free []JobID
}

// NewStream returns an empty stream over platform p.
func NewStream(p *Platform) *Stream {
	return &Stream{inst: Instance{Platform: p}}
}

// Add validates j, assigns it a slot (recycled first) and returns the slot
// ID, which is stable until Remove. The job's ID field is overwritten with
// the assigned slot; an empty Name gets the slot-derived default.
func (s *Stream) Add(j Job) (JobID, error) {
	if err := ValidateJob(s.inst.Platform, j); err != nil {
		return 0, fmt.Errorf("model: stream job: %w", err)
	}
	var id JobID
	if n := len(s.free); n > 0 {
		id = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		id = JobID(len(s.inst.Jobs))
		s.inst.Jobs = append(s.inst.Jobs, Job{})
		s.inst.alone = append(s.inst.alone, 0)
		s.live = append(s.live, false)
	}
	j.ID = id
	if j.Name == "" {
		j.Name = fmt.Sprintf("J%d", id)
	}
	s.inst.Jobs[id] = j
	s.inst.alone[id] = j.Size / s.inst.Platform.AggregateSpeed(j.Databank)
	s.live[id] = true
	return id, nil
}

// Remove frees id's slot for reuse. The slot's job data stays readable (a
// tombstone) until the slot is recycled by a later Add.
func (s *Stream) Remove(id JobID) error {
	if int(id) >= len(s.live) || !s.live[id] {
		return fmt.Errorf("model: stream slot %d is not live", id)
	}
	s.live[id] = false
	s.free = append(s.free, id)
	return nil
}

// Instance returns the live view of the stream. It is owned by the stream
// and mutated in place by Add/Remove; Jobs is indexed by slot and includes
// tombstones — callers must consult Live before trusting a slot.
func (s *Stream) Instance() *Instance { return &s.inst }

// Live reports whether slot id currently holds a live job.
func (s *Stream) Live(id JobID) bool {
	return int(id) < len(s.live) && s.live[id]
}

// Slots returns the current slot-table size (live + tombstoned).
func (s *Stream) Slots() int { return len(s.inst.Jobs) }

// NumLive returns the number of live jobs.
func (s *Stream) NumLive() int { return len(s.inst.Jobs) - len(s.free) }

// Restore rebuilds the stream with an explicit slot layout — the
// checkpoint/restore path of the serving daemon. slots[i] is the job held
// by (or tombstoned in) slot i, live[i] its liveness, and free the
// free-list in its original order (LIFO recycling makes the order part of
// the deterministic state). Live jobs are re-validated; tombstones are
// stored as-is and their alone-time left zero, which is safe because only
// live slots are ever surfaced to schedulers.
func (s *Stream) Restore(slots []Job, live []bool, free []JobID) error {
	if len(slots) != len(live) {
		return fmt.Errorf("model: stream restore: %d slots vs %d liveness flags", len(slots), len(live))
	}
	liveCnt := 0
	for _, l := range live {
		if l {
			liveCnt++
		}
	}
	if liveCnt+len(free) != len(slots) {
		return fmt.Errorf("model: stream restore: %d live + %d free != %d slots",
			liveCnt, len(free), len(slots))
	}
	seen := make([]bool, len(slots))
	for _, id := range free {
		if int(id) >= len(slots) || live[id] || seen[id] {
			return fmt.Errorf("model: stream restore: bad free slot %d", id)
		}
		seen[id] = true
	}
	s.inst.Jobs = append(s.inst.Jobs[:0], slots...)
	s.inst.alone = append(s.inst.alone[:0], make([]float64, len(slots))...)
	s.live = append(s.live[:0], live...)
	s.free = append(s.free[:0], free...)
	for i := range slots {
		if !live[i] {
			continue
		}
		if err := ValidateJob(s.inst.Platform, slots[i]); err != nil {
			return fmt.Errorf("model: stream restore slot %d: %w", i, err)
		}
		s.inst.Jobs[i].ID = JobID(i)
		s.inst.alone[i] = slots[i].Size / s.inst.Platform.AggregateSpeed(slots[i].Databank)
	}
	return nil
}

// Snapshot appends the stream's deterministic state to the given slices
// (which may be nil): the slot table, liveness mask and free-list, in the
// exact form Restore accepts.
func (s *Stream) Snapshot(slots []Job, live []bool, free []JobID) ([]Job, []bool, []JobID) {
	return append(slots, s.inst.Jobs...), append(live, s.live...), append(free, s.free...)
}

package sim

import (
	"fmt"
	"math"
	"slices"

	"stretchsched/internal/model"
)

// Driver maintains a policy-facing Ctx for an external event loop — the
// serving daemon — where jobs arrive and complete in arbitrary order and
// job IDs are recycled slots (model.Stream) rather than the monotonically
// released prefix the batch engine assumes. It exposes the same decision
// primitives the engine uses internally (SortByPriority, AllocateGreedy),
// so a daemon replanning at every event ranks and places jobs exactly as
// RunList would; what it deliberately does not own is the clock policy:
// the caller decides when to advance and by how much.
//
// A Driver is single-goroutine, like the loop that owns it.
type Driver struct {
	ctx     Ctx
	order   []model.JobID // active jobs in priority order after Replan
	assign  []int         // machine -> job (-1 idle)
	rate    []float64     // job -> aggregate service rate
	running []model.JobID // jobs with rate > 0, priority order
}

// NewDriver returns a driver bound to inst, which may be the live view of
// a model.Stream: call Sync after the stream grows its slot table.
func NewDriver(inst *model.Instance) *Driver {
	d := &Driver{}
	d.ctx.Inst = inst
	d.ctx.managed = true
	d.Sync()
	return d
}

// Sync resizes the per-job and per-machine buffers to the instance's
// current slot count, preserving existing slot state. Call after the
// bound stream appends slots.
func (d *Driver) Sync() {
	n := d.ctx.Inst.NumJobs()
	for len(d.ctx.Remaining) < n {
		d.ctx.Remaining = append(d.ctx.Remaining, 0)
		d.ctx.Released = append(d.ctx.Released, false)
		d.ctx.Done = append(d.ctx.Done, false)
		d.rate = append(d.rate, 0)
	}
	m := d.ctx.Inst.Platform.NumMachines()
	for len(d.assign) < m {
		d.assign = append(d.assign, -1)
	}
}

// Ctx returns the live context. It is owned by the driver; callers hand it
// to Policy.OnEvent/Less and solver bridges but must not mutate it.
func (d *Driver) Ctx() *Ctx { return &d.ctx }

// Now returns the driver's current (virtual) time.
func (d *Driver) Now() float64 { return d.ctx.Now }

// SetNow jumps the clock without serving work — initialization and
// checkpoint restore only; use AdvanceToNext to move time under the
// current allocation.
func (d *Driver) SetNow(t float64) { d.ctx.Now = t }

// Arrive marks slot id released with the given remaining work and inserts
// it into the active set. Slot recycling means id may be lower than
// existing active IDs; the set stays in ID order as every Ctx consumer
// assumes.
func (d *Driver) Arrive(id model.JobID, work float64) {
	d.Sync()
	d.ctx.Released[id] = true
	d.ctx.Done[id] = false
	d.ctx.Remaining[id] = work
	d.rate[id] = 0
	d.ctx.addActive(id)
}

// Complete retires slot id from the active set and clears its released
// flag, making the slot invisible to solvers (offline.FromContext only
// surfaces released, unfinished jobs) and free for stream recycling.
func (d *Driver) Complete(id model.JobID) {
	d.ctx.Released[id] = false
	d.ctx.Done[id] = false
	d.ctx.Remaining[id] = 0
	d.rate[id] = 0
	d.ctx.dropActive(id)
}

// NumActive returns the number of released, unfinished jobs.
func (d *Driver) NumActive() int { return len(d.ctx.active) }

// Replan runs one engine decision step at the current instant: the
// policy's OnEvent refresh, the priority sort, and the §3 greedy
// allocation. After it returns, Running/Rate/Assign describe the chosen
// placement until the next Replan.
func (d *Driver) Replan(pol Policy) {
	pol.OnEvent(&d.ctx)
	d.order = append(d.order[:0], d.ctx.active...)
	SortByPriority(pol, &d.ctx, d.order)
	d.running = AllocateGreedy(d.ctx.Inst, d.order, d.assign, d.rate, d.running[:0])
}

// Running returns the jobs with a positive service rate in priority order,
// valid until the next Replan. Owned by the driver; do not mutate.
func (d *Driver) Running() []model.JobID { return d.running }

// Assign returns the machine → job assignment (-1 idle), valid until the
// next Replan. Owned by the driver; do not mutate.
func (d *Driver) Assign() []int { return d.assign }

// Rate returns slot id's aggregate service rate under the last Replan.
func (d *Driver) Rate(id model.JobID) float64 { return d.rate[id] }

// Remaining returns slot id's remaining work.
func (d *Driver) Remaining(id model.JobID) float64 { return d.ctx.Remaining[id] }

// AdvanceToNext is the stream loops' one completion step. When the
// earliest predicted completion at the last Replan's rates falls at or
// before t, it serves work up to that instant and returns the completing
// job and its predicted instant at, which the caller retires with
// Complete. Otherwise it serves work up to t when t is finite and returns
// ok = false. The clock then reads Now + (at − Now), which can be one ulp
// past at. Completions are never detected by tolerance: committing exactly
// the predicted instants keeps the event sequence bit-reproducible.
func (d *Driver) AdvanceToNext(t float64) (id model.JobID, at float64, ok bool) {
	id, at, ok = d.nextCompletion()
	if ok && at <= t {
		if dt := at - d.ctx.Now; dt > 0 {
			d.advance(dt)
		}
		return id, at, true
	}
	if t > d.ctx.Now && !math.IsInf(t, 1) {
		d.advance(t - d.ctx.Now)
	}
	return 0, 0, false
}

// nextCompletion returns the earliest predicted completion instant among
// running jobs at current rates. Ties go to the job that comes first in
// Running, which is priority order, not slot order. ok is false when
// nothing is running.
func (d *Driver) nextCompletion() (id model.JobID, at float64, ok bool) {
	at = math.Inf(1)
	for _, j := range d.running {
		t := d.ctx.Now + d.ctx.Remaining[j]/d.rate[j]
		if t < at {
			id, at, ok = j, t, true
		}
	}
	return id, at, ok
}

// advance serves dt time units under the last Replan's rates and moves the
// clock.
func (d *Driver) advance(dt float64) {
	if dt > 0 {
		for _, j := range d.running {
			d.ctx.Remaining[j] -= d.rate[j] * dt
			if d.ctx.Remaining[j] < 0 {
				d.ctx.Remaining[j] = 0
			}
		}
	}
	d.ctx.Now += dt
}

// Backlog returns the total remaining work of the active set — the
// load signal the cluster balancers compare across machines. On a
// work-conserving single platform it is invariant under the local policy,
// which makes least-backlog placement policy-independent.
func (d *Driver) Backlog() float64 {
	w := 0.0
	for _, j := range d.ctx.active {
		w += d.ctx.Remaining[j]
	}
	return w
}

// EstMaxStretch estimates the maximum realised stretch of the active set
// assuming no further arrivals: a job served at a positive rate finishes at
// its predicted instant; a starved job is bounded by the whole backlog
// draining at the platform's total speed. Rates reflect the last Replan, so
// call it after replanning (the cluster world consults it between the last
// event and the next placement). Zero when the machine is idle.
func (d *Driver) EstMaxStretch() float64 {
	sigma := d.ctx.Inst.Platform.TotalSpeed()
	backlog := d.Backlog()
	worst := 0.0
	for _, j := range d.ctx.active {
		var c float64
		if r := d.rate[j]; r > 0 {
			c = d.ctx.Now + d.ctx.Remaining[j]/r
		} else {
			c = d.ctx.Now + backlog/sigma
		}
		s := (c - d.ctx.Inst.Jobs[j].Release) / d.ctx.Inst.AloneTime(j)
		if s > worst {
			worst = s
		}
	}
	return worst
}

// RestoreActive rebuilds the active set and per-slot state from a
// checkpoint: ids must be the released, unfinished slots in ID order with
// rem their remaining work. The allocation is rebuilt by RestoreRunning or
// by the next Replan.
func (d *Driver) RestoreActive(ids []model.JobID, rem []float64) {
	d.Sync()
	for i := range d.ctx.Remaining {
		d.ctx.Remaining[i] = 0
		d.ctx.Released[i] = false
		d.ctx.Done[i] = false
		d.rate[i] = 0
	}
	d.ctx.active = d.ctx.active[:0]
	for i, id := range ids {
		d.ctx.Released[id] = true
		d.ctx.Remaining[id] = rem[i]
		d.ctx.addActive(id)
	}
}

// RestoreRunning rebuilds a checkpointed allocation from its Running list,
// the running jobs in priority order. The greedy rule over them alone
// gives each the machines and rate the full order gave it, since the jobs
// it skipped took no machine; so, unlike a Replan, it needs no policy and
// holds between two events, where the policy might now rank otherwise. It
// refuses a list naming a job twice, a job not active, or one that gets no
// machine.
func (d *Driver) RestoreRunning(running []model.JobID) error {
	for i, j := range running {
		if j < 0 || int(j) >= len(d.ctx.Released) || !d.ctx.Released[j] || slices.Contains(running[:i], j) {
			return fmt.Errorf("sim: running job %d is not active or is listed twice", j)
		}
	}
	d.running = AllocateGreedy(d.ctx.Inst, running, d.assign, d.rate, d.running[:0])
	for _, j := range running {
		if d.rate[j] == 0 {
			return fmt.Errorf("sim: running job %d gets no machine", j)
		}
	}
	return nil
}

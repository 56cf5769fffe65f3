// Package offline implements the paper's polynomial-time optimal max-stretch
// algorithm (§4.3.1): a binary search over the "milestones" of the objective
// — the values of F at which the relative order of release dates and
// deadlines d̄_j(F) = r_j + F·p*_j changes — with a deadline-scheduling
// feasibility oracle inside each search step, and a final refinement inside
// the bracketing milestone interval.
//
// The paper solves both the feasibility test and the refinement with linear
// programs (System (1)). Here the feasibility test is a max-flow
// (transportation) computation, and the refinement is discrete Newton
// iteration on parametric min cuts of that network: in float64 by default,
// and certified by one exact rational max-flow in Exact mode, which
// returns System (1)'s rational optimum and so removes the floating-point
// anomaly reported in §5.3.
//
// The same machinery serves the online heuristics: they repeatedly solve
// the "best achievable max-stretch given past decisions" problem, which is
// this problem with effective release dates collapsed to the current time
// and sizes replaced by remaining work.
package offline

import (
	"fmt"
	"math"
	"slices"

	"stretchsched/internal/model"
	"stretchsched/internal/sim"
)

// Task is one deadline-scheduling task: Work units of a job, available from
// Release, that must finish by DeadA + F·DeadB for the stretch objective F.
type Task struct {
	Job     model.JobID
	Release float64 // effective release (the scheduler's "now" for online use)
	Work    float64 // remaining work, > 0
	DeadA   float64 // deadline intercept (original release r_j)
	DeadB   float64 // deadline slope (alone time p*_j), > 0
}

// Deadline returns d̄(F) = DeadA + F·DeadB.
func (t *Task) Deadline(f float64) float64 { return t.DeadA + f*t.DeadB }

// Problem is a max-stretch minimisation instance over a platform.
type Problem struct {
	Inst  *model.Instance
	Tasks []Task

	// ws supplies the buffers of every solver stage; see Workspace and pool.
	ws *Workspace
}

// pool returns p's workspace. A problem built without one (FromInstance,
// FromContext, FromInstanceWeighted, or by hand) gets a private workspace
// here, at its first solve.
func (p *Problem) pool() *Workspace {
	if p.ws == nil {
		p.ws = NewWorkspace()
	}
	return p.ws
}

// FromInstance builds the full offline problem: every job with its original
// release, full size and stretch deadline.
func FromInstance(inst *model.Instance) *Problem {
	return fillFromInstance(&Problem{Inst: inst}, inst)
}

func fillFromInstance(p *Problem, inst *model.Instance) *Problem {
	for j := range inst.Jobs {
		id := model.JobID(j)
		p.Tasks = append(p.Tasks, Task{
			Job:     id,
			Release: inst.Jobs[j].Release,
			Work:    inst.Jobs[j].Size,
			DeadA:   inst.Jobs[j].Release,
			DeadB:   inst.AloneTime(id),
		})
	}
	return p
}

// FromContext builds the online re-optimisation problem at ctx.Now: active
// jobs only, available immediately, with remaining work and their original
// stretch deadline functions.
func FromContext(ctx *sim.Ctx) *Problem {
	return fillFromContext(&Problem{Inst: ctx.Inst}, ctx)
}

func fillFromContext(p *Problem, ctx *sim.Ctx) *Problem {
	for j := range ctx.Remaining {
		if !ctx.Released[j] || ctx.Done[j] || ctx.Remaining[j] <= 0 {
			continue
		}
		id := model.JobID(j)
		p.Tasks = append(p.Tasks, Task{
			Job:     id,
			Release: ctx.Now,
			Work:    ctx.Remaining[j],
			DeadA:   ctx.Inst.Jobs[j].Release,
			DeadB:   ctx.Inst.AloneTime(id),
		})
	}
	return p
}

// eligible returns the machines allowed for task k.
func (p *Problem) eligible(k int) []model.MachineID {
	return p.Inst.Eligible(p.Tasks[k].Job)
}

// aggSpeed returns the aggregate eligible speed of task k.
func (p *Problem) aggSpeed(k int) float64 {
	return p.Inst.Platform.AggregateSpeed(p.Inst.Jobs[p.Tasks[k].Job].Databank)
}

// totalWork returns Σ Work over tasks.
func (p *Problem) totalWork() float64 {
	w := 0.0
	for k := range p.Tasks {
		w += p.Tasks[k].Work
	}
	return w
}

// LowerBound returns a stretch value no optimal solution can beat: every
// task needs its deadline to be at least its effective release plus its
// duration alone on its eligible machines.
func (p *Problem) LowerBound() float64 {
	lb := 0.0
	for k := range p.Tasks {
		t := &p.Tasks[k]
		need := (t.Release + t.Work/p.aggSpeed(k) - t.DeadA) / t.DeadB
		lb = math.Max(lb, need)
	}
	return lb
}

// UpperBound returns a stretch value that is certainly feasible: process
// tasks one after another, each alone on its eligible machines, in release
// order starting from the latest release.
func (p *Problem) UpperBound() float64 {
	if len(p.Tasks) == 0 {
		return 1
	}
	end := 0.0
	for k := range p.Tasks {
		t := &p.Tasks[k]
		end = math.Max(end, t.Release)
	}
	ub := p.LowerBound()
	for k := range p.Tasks {
		t := &p.Tasks[k]
		end += t.Work / p.aggSpeed(k)
	}
	for k := range p.Tasks {
		t := &p.Tasks[k]
		ub = math.Max(ub, (end-t.DeadA)/t.DeadB)
	}
	return ub
}

// Milestones enumerates the paper's milestones within (lo, hi]: objective
// values at which a deadline function crosses a release date or another
// deadline function, i.e. where the epochal-time ordering can change. The
// returned slice is sorted and deduplicated; it is workspace-owned and
// valid until the next Milestones call.
func (p *Problem) Milestones(lo, hi float64) []float64 {
	ws := p.pool()
	ms, rel := ws.ms[:0], ws.releases[:0]
	inRange := func(f float64) bool {
		return f > lo && f <= hi && !math.IsNaN(f) && !math.IsInf(f, 0)
	}
	// Deadline/release crossings, over the deduplicated release dates.
	for k := range p.Tasks {
		rel = append(rel, p.Tasks[k].Release)
	}
	slices.Sort(rel)
	uniq := rel[:0]
	for i, r := range rel {
		if i == 0 || r != uniq[len(uniq)-1] {
			uniq = append(uniq, r)
		}
	}
	rel = uniq
	for k := range p.Tasks {
		t := &p.Tasks[k]
		for _, r := range rel {
			if f := (r - t.DeadA) / t.DeadB; inRange(f) {
				ms = append(ms, f)
			}
		}
	}
	// Deadline/deadline crossings.
	for a := range p.Tasks {
		for b := a + 1; b < len(p.Tasks); b++ {
			ta, tb := &p.Tasks[a], &p.Tasks[b]
			if ta.DeadB == tb.DeadB {
				continue
			}
			if f := (tb.DeadA - ta.DeadA) / (ta.DeadB - tb.DeadB); inRange(f) {
				ms = append(ms, f)
			}
		}
	}
	slices.Sort(ms)
	out := ms[:0]
	for i, f := range ms {
		if i == 0 || f > out[len(out)-1]*(1+1e-12)+1e-300 {
			out = append(out, f)
		}
	}
	ws.ms, ws.releases = ms, rel
	return out
}

// Intervals returns the epochal-time boundaries at objective value f:
// the sorted, deduplicated union of effective releases and deadlines,
// truncated below by the earliest release. There are len(result)-1
// scheduling intervals. The result is appended to out (which may be nil).
func (p *Problem) Intervals(f float64) []float64 { return p.intervalsInto(f, nil) }

func (p *Problem) intervalsInto(f float64, out []float64) []float64 {
	ws := p.pool()
	pts := ws.pts[:0]
	minRel := math.Inf(1)
	for k := range p.Tasks {
		t := &p.Tasks[k]
		pts = append(pts, t.Release, t.Deadline(f))
		minRel = math.Min(minRel, t.Release)
	}
	slices.Sort(pts)
	ws.pts = pts
	out = out[:0]
	for _, x := range pts {
		if x < minRel {
			continue
		}
		if len(out) == 0 || x > out[len(out)-1]+1e-12*(1+math.Abs(x)) {
			out = append(out, x)
		}
	}
	return out
}

func (p *Problem) validate() error {
	for k := range p.Tasks {
		t := &p.Tasks[k]
		if t.Work <= 0 {
			return fmt.Errorf("offline: task %d has nonpositive work %v", k, t.Work)
		}
		if t.DeadB <= 0 {
			return fmt.Errorf("offline: task %d has nonpositive deadline slope %v", k, t.DeadB)
		}
	}
	return nil
}

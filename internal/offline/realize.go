package offline

import (
	"fmt"
	"math"
	"slices"

	"stretchsched/internal/model"
	"stretchsched/internal/sim"
)

// Ordering selects how an interval's allocated fractions are sequenced on
// each machine when an Alloc is turned into a concrete timetable. These are
// the Step-4 variants of the paper's online heuristic (§4.3.2); the offline
// algorithm uses TerminalSWRPT as well.
type Ordering int

const (
	// TerminalSWRPT is the paper's first variant ("Online"): within an
	// interval, jobs that finish their share on this machine in this
	// interval run first under the SWRPT order; non-terminal jobs follow.
	TerminalSWRPT Ordering = iota
	// GlobalCompletionEDF is the "Online-EDF" variant: each machine orders
	// its fractions by the interval in which the job's total share (across
	// all machines) completes, ties broken by SWRPT.
	GlobalCompletionEDF
)

// Realize converts an allocation into a per-machine timetable. Work placed
// in interval t is packed from the interval's start in the selected order;
// capacity feasibility of the allocation guarantees it fits. The returned
// plan and all realisation scratch are pooled on the problem's workspace
// (the plan is overwritten by the next Realize on it); the per-machine
// sorts use slices.SortFunc, so the steady state allocates nothing.
func (a *Alloc) Realize(order Ordering) (*sim.Plan, error) {
	ws := a.Problem.pool()
	m := a.Problem.Inst.Platform.NumMachines()
	ws.plan.Reset(m)
	plan := &ws.plan
	if len(a.Work) == 0 {
		return plan, nil
	}
	n := len(a.Problem.Tasks)
	nT := len(a.Work)

	// Remaining global work of each task before each interval, for SWRPT
	// keys: a flattened (nT+1)×n table, row t at offset t·n.
	if cap(ws.remBefore) < (nT+1)*n {
		ws.remBefore = make([]float64, (nT+1)*n)
	}
	remBefore := ws.remBefore[:(nT+1)*n]
	for k := 0; k < n; k++ {
		remBefore[k] = a.Problem.Tasks[k].Work
	}
	for t := 0; t < nT; t++ {
		row, next := remBefore[t*n:(t+1)*n], remBefore[(t+1)*n:(t+2)*n]
		copy(next, row)
		for i := range a.Work[t] {
			for k, w := range a.Work[t][i] {
				next[k] -= w
			}
		}
	}

	lastGlobal := a.lastIntervals(ws)
	ks := ws.ks[:0]
	for t := range a.Work {
		lo, hi := a.Bounds[t], a.Bounds[t+1]
		length := hi - lo
		rem := remBefore[t*n : (t+1)*n]
		for i := 0; i < m; i++ {
			ks = ks[:0]
			totalDur := 0.0
			speed := a.Problem.Inst.Platform.Machine(model.MachineID(i)).Speed
			for k, w := range a.Work[t][i] {
				if w > 0 {
					ks = append(ks, k)
					totalDur += w / speed
				}
			}
			if len(ks) == 0 {
				continue
			}
			if totalDur > length*(1+1e-6)+1e-9 {
				return nil, fmt.Errorf("offline: interval %d machine %d overfull: %v > %v",
					t, i, totalDur, length)
			}
			scale := 1.0
			if totalDur > length && totalDur > 0 {
				scale = length / totalDur // absorb float dust
			}
			swrpt := func(k int) float64 {
				return a.Problem.Tasks[k].DeadB * rem[k]
			}
			switch order {
			case TerminalSWRPT:
				term := func(k int) bool { return a.LastIntervalOn(k, i) == t }
				slices.SortFunc(ks, func(kx, ky int) int {
					tx, ty := term(kx), term(ky)
					if tx != ty {
						if tx {
							return -1
						}
						return 1
					}
					sx, sy := swrpt(kx), swrpt(ky)
					switch {
					case sx < sy:
						return -1
					case sx > sy:
						return 1
					}
					return kx - ky
				})
			case GlobalCompletionEDF:
				slices.SortFunc(ks, func(kx, ky int) int {
					if lastGlobal[kx] != lastGlobal[ky] {
						return lastGlobal[kx] - lastGlobal[ky]
					}
					sx, sy := swrpt(kx), swrpt(ky)
					switch {
					case sx < sy:
						return -1
					case sx > sy:
						return 1
					}
					return kx - ky
				})
			default:
				return nil, fmt.Errorf("offline: unknown ordering %d", order)
			}
			cursor := lo
			for _, k := range ks {
				d := a.Work[t][i][k] / speed * scale
				end := math.Min(cursor+d, hi)
				plan.Add(model.MachineID(i), sim.PlanSlice{
					Job: a.Problem.Tasks[k].Job, Start: cursor, End: end,
				})
				cursor = end
			}
		}
	}
	ws.ks = ks
	return plan, nil
}

// lastIntervals fills the workspace's completion-interval table with every
// task's LastInterval, once per task rather than per comparison, and
// returns it.
//
//stretch:noalloc
func (a *Alloc) lastIntervals(ws *Workspace) []int {
	n := len(a.Problem.Tasks)
	if cap(ws.lastGlobal) < n {
		ws.lastGlobal = make([]int, n) //stretch:alloc-ok — buffer growth
	}
	last := ws.lastGlobal[:n]
	for k := range last {
		last[k] = a.LastInterval(k)
	}
	return last
}

// GlobalOrder returns the tasks sorted by the Online-EGDF priority: the
// interval in which the task's total work completes, ties broken by SWRPT
// at the allocation start, then by job ID. It is used as a priority list
// for the greedy spatial rule rather than as an explicit timetable.
func (a *Alloc) GlobalOrder() []model.JobID {
	return a.AppendGlobalOrder(nil)
}

// AppendGlobalOrder appends the GlobalOrder priority list to dst and
// returns it. The sort index and the completion-interval table are pooled
// workspace scratch, so a caller that also reuses dst (Online-EGDF holds
// its list across arrival events) performs no steady-state allocation.
//
//stretch:noalloc
func (a *Alloc) AppendGlobalOrder(dst []model.JobID) []model.JobID {
	ws := a.Problem.pool()
	n := len(a.Problem.Tasks)
	lastGlobal := a.lastIntervals(ws)
	ks := ws.ks[:0]
	for k := 0; k < n; k++ {
		ks = append(ks, k) //stretch:alloc-ok — pooled backing
	}
	slices.SortFunc(ks, func(kx, ky int) int { //stretch:alloc-ok — non-escaping comparison closure
		if lastGlobal[kx] != lastGlobal[ky] {
			return lastGlobal[kx] - lastGlobal[ky]
		}
		sx := a.Problem.Tasks[kx].DeadB * a.Problem.Tasks[kx].Work
		sy := a.Problem.Tasks[ky].DeadB * a.Problem.Tasks[ky].Work
		switch {
		case sx < sy:
			return -1
		case sx > sy:
			return 1
		}
		return int(a.Problem.Tasks[kx].Job) - int(a.Problem.Tasks[ky].Job)
	})
	for _, k := range ks {
		dst = append(dst, a.Problem.Tasks[k].Job)
	}
	ws.ks = ks
	return dst
}

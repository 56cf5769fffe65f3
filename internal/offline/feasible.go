package offline

import (
	"fmt"
	"math"

	"stretchsched/internal/model"
)

// Alloc is a deadline-respecting divisible allocation: Work[t][i][k] is the
// amount of work of task k processed on machine i during interval t.
// Bounds has len(T)+1 entries; interval t spans [Bounds[t], Bounds[t+1]).
type Alloc struct {
	Problem *Problem
	Stretch float64
	Bounds  []float64
	Work    [][][]float64 // [interval][machine] -> sparse map? dense per task
}

// workAt returns the work of task k on machine i in interval t.
func (a *Alloc) workAt(t, i, k int) float64 { return a.Work[t][i][k] }

// TaskWork returns the total allocated work of task k.
func (a *Alloc) TaskWork(k int) float64 {
	w := 0.0
	for t := range a.Work {
		for i := range a.Work[t] {
			w += a.Work[t][i][k]
		}
	}
	return w
}

// LastInterval returns the last interval in which task k has any allocation
// anywhere, or -1 if none. This is the "completion interval" used by the
// Online-EDF and Online-EGDF orderings.
func (a *Alloc) LastInterval(k int) int {
	for t := len(a.Work) - 1; t >= 0; t-- {
		for i := range a.Work[t] {
			if a.Work[t][i][k] > 0 {
				return t
			}
		}
	}
	return -1
}

// LastIntervalOn returns the last interval in which task k has any
// allocation on machine i, or -1.
func (a *Alloc) LastIntervalOn(k int, i int) int {
	for t := len(a.Work) - 1; t >= 0; t-- {
		if a.Work[t][i][k] > 0 {
			return t
		}
	}
	return -1
}

// feasNet is the transportation network for a fixed objective value F.
type feasNet struct {
	p      *Problem
	bounds []float64
	admiss [][]int // task -> admissible interval indices
}

// network builds the interval/admissibility structure at objective f. The
// structure is pooled and overwritten by the next network call — which is
// why Alloc.prepare copies the bounds it keeps.
func (p *Problem) network(f float64) *feasNet {
	net := &p.pool().net
	net.p = p
	net.bounds = p.intervalsInto(f, net.bounds)
	if cap(net.admiss) < len(p.Tasks) {
		net.admiss = make([][]int, len(p.Tasks))
	}
	net.admiss = net.admiss[:len(p.Tasks)]
	for k := range net.admiss {
		net.admiss[k] = net.admiss[k][:0]
	}
	bounds := net.bounds
	for k := range p.Tasks {
		t := &p.Tasks[k]
		d := t.Deadline(f)
		for ti := 0; ti+1 < len(bounds); ti++ {
			lo, hi := bounds[ti], bounds[ti+1]
			tol := 1e-9 * (1 + math.Abs(hi))
			if t.Release <= lo+tol && d >= hi-tol && hi-lo > 0 {
				net.admiss[k] = append(net.admiss[k], ti)
			}
		}
	}
	return net
}

// Feasible reports whether all tasks can meet their deadlines at objective
// value f, by solving the max-flow transportation problem: task k ships its
// Work into (interval, machine) bins of capacity len(I_t)·speed_i,
// restricted to admissible intervals and eligible machines.
func (p *Problem) Feasible(f float64) bool {
	_, ok := p.solveFlowBiased(f, false, nil)
	return ok
}

// FeasibleAlloc returns a deadline-respecting allocation at objective f.
// With late=false the max-flow search fills early intervals first; with
// late=true it fills late intervals first ("latest fit"), which represents
// an arbitrary deadline-feasible LP vertex with no earliness preference —
// the behaviour of the paper's non-optimised online baseline (§5.2).
func (p *Problem) FeasibleAlloc(f float64, late bool) (*Alloc, error) {
	alloc, ok := p.solveFlowBiased(f, late, &p.pool().allocLazy)
	if !ok {
		return nil, fmt.Errorf("offline: stretch %v infeasible", f)
	}
	return alloc, nil
}

// solveFlow extracts the feasibility witness at f into the solver-witness
// slot.
func (p *Problem) solveFlow(f float64) (*Alloc, bool) {
	return p.solveFlowBiased(f, false, &p.pool().allocSolve)
}

// binEdge records one task→bin arc for allocation extraction.
type binEdge struct{ t, i, k, id int }

// solveFlowBiased runs the feasibility flow at objective f. When dst is
// non-nil (a workspace allocation slot) and the flow saturates the demand,
// it also builds the allocation in dst and returns it. late reverses the
// admissible-interval order seen by the augmenting search, biasing the
// witness allocation toward late intervals.
func (p *Problem) solveFlowBiased(f float64, late bool, dst *Alloc) (*Alloc, bool) {
	n := len(p.Tasks)
	extract := dst != nil
	if n == 0 {
		if extract {
			dst.prepare(p, f, nil, 0, 0, 0)
		}
		return dst, true
	}
	net := p.network(f)
	m := p.Inst.Platform.NumMachines()
	nT := len(net.bounds) - 1
	if nT <= 0 {
		return nil, false
	}

	// Node layout: src, tasks, (interval,machine) bins, sink.
	src := 0
	taskNode := func(k int) int { return 1 + k }
	binNode := func(t, i int) int { return 1 + n + t*m + i }
	sink := 1 + n + nT*m

	total := p.totalWork()
	// Capacity tolerance relative to the shipped magnitude: absolute 1e-12
	// epsilons cause micro-augmentation churn when works are O(10³).
	g := p.dinicGraph(sink+1, 1e-12*(1+total))
	for k := range p.Tasks {
		g.AddEdge(src, taskNode(k), p.Tasks[k].Work)
	}
	binUsed, edges := p.binScratch(sink + 1)
	for k := range p.Tasks {
		admiss := net.admiss[k]
		for ai := range admiss {
			t := admiss[ai]
			if late {
				t = admiss[len(admiss)-1-ai]
			}
			for _, mid := range p.eligible(k) {
				id := g.AddEdge(taskNode(k), binNode(t, int(mid)), p.Tasks[k].Work)
				if extract {
					edges = append(edges, binEdge{t, int(mid), k, id})
				}
				binUsed[binNode(t, int(mid))] = true
			}
		}
	}
	for t := 0; t < nT; t++ {
		length := net.bounds[t+1] - net.bounds[t]
		for i := 0; i < m; i++ {
			if !binUsed[binNode(t, i)] {
				continue
			}
			g.AddEdge(binNode(t, i), sink, length*p.Inst.Platform.Machine(model.MachineID(i)).Speed)
		}
	}
	p.pool().edges = edges // retain the grown backing for the next build

	got := g.MaxFlow(src, sink)
	if got < total*(1-1e-9)-1e-12 {
		return nil, false
	}
	if !extract {
		return nil, true
	}
	dst.prepare(p, f, net.bounds, nT, m, n)
	for _, e := range edges {
		if fl := g.EdgeFlow(e.id); fl > 0 {
			dst.Work[e.t][e.i][e.k] += fl
		}
	}
	return dst, true
}

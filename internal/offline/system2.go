package offline

import (
	"fmt"

	"stretchsched/internal/model"
)

// Refine solves the paper's System (2): among all allocations that keep
// every task within its deadline at stretch f, it minimises
//
//	Σ_k Σ_t (fraction of task k in interval t) · mid(I_t),
//
// the rational relaxation of the sum-stretch that pulls every job as early
// as possible without degrading the max-stretch.
//
// The LP is a transportation problem with a per-(task, interval) unit cost,
// so it is solved as a min-cost max-flow: task k ships Work_k units into
// (interval, machine) bins; shipping into interval t costs mid(I_t)/Work_k
// per unit of work.
func (p *Problem) Refine(f float64) (*Alloc, error) {
	n := len(p.Tasks)
	ws := p.pool()
	alloc := &ws.allocRefine
	if n == 0 {
		alloc.prepare(p, f, nil, 0, 0, 0)
		return alloc, nil
	}
	net := p.network(f)
	m := p.Inst.Platform.NumMachines()
	nT := len(net.bounds) - 1
	if nT <= 0 {
		return nil, fmt.Errorf("offline: refine: empty interval structure at F=%v", f)
	}

	src := 0
	taskNode := func(k int) int { return 1 + k }
	binNode := func(t, i int) int { return 1 + n + t*m + i }
	sink := 1 + n + nT*m

	total := p.totalWork()
	g := p.mcGraph(sink+1, 1e-12*(1+total))
	for k := range p.Tasks {
		g.AddEdge(src, taskNode(k), p.Tasks[k].Work, 0)
	}
	// Normalise interval midpoints by the horizon start: a common shift of
	// all costs changes the objective by a constant and keeps costs ≥ 0.
	t0 := net.bounds[0]
	binUsed, edges := p.binScratch(sink + 1)
	for k := range p.Tasks {
		for _, t := range net.admiss[k] {
			mid := (net.bounds[t]+net.bounds[t+1])/2 - t0
			cost := mid / p.Tasks[k].Work
			for _, mi := range p.eligible(k) {
				id := g.AddEdge(taskNode(k), binNode(t, int(mi)), p.Tasks[k].Work, cost)
				edges = append(edges, binEdge{t, int(mi), k, id})
				binUsed[binNode(t, int(mi))] = true
			}
		}
	}
	for t := 0; t < nT; t++ {
		length := net.bounds[t+1] - net.bounds[t]
		for i := 0; i < m; i++ {
			if !binUsed[binNode(t, i)] {
				continue
			}
			g.AddEdge(binNode(t, i), sink,
				length*p.Inst.Platform.Machine(model.MachineID(i)).Speed, 0)
		}
	}
	ws.edges = edges

	shipped, _ := g.Run(src, sink)
	if shipped < total*(1-1e-9)-1e-12 {
		return nil, fmt.Errorf("offline: refine: stretch %v infeasible (%.9g of %.9g shipped)",
			f, shipped, total)
	}
	alloc.prepare(p, f, net.bounds, nT, m, n)
	for _, e := range edges {
		if fl := g.EdgeFlow(e.id); fl > 0 {
			alloc.Work[e.t][e.i][e.k] += fl
		}
	}
	return alloc, nil
}

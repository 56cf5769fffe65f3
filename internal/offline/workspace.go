package offline

import (
	"stretchsched/internal/flow"
	"stretchsched/internal/lp"
	"stretchsched/internal/model"
	"stretchsched/internal/rat"
	"stretchsched/internal/sim"
)

// Workspace owns every buffer the planned scheduling path needs — the
// pooled Problem, the interval structure, the Dinic, rational and min-cost
// flow networks, the allocation witnesses of the solver and of System (2),
// the realisation scratch and the output sim.Plan — and reuses them across
// solves, mirroring what sim.Engine does for the simulation state one layer
// down. With a workspace attached, the offline planner's steady-state
// Plan→OptimalStretch→Realize pipeline performs no heap allocation at all
// (TestRunPlannedOfflineSteadyStateAllocs).
//
// A Workspace must not be used from multiple goroutines; experiment
// harnesses hold one per worker next to the worker's engine (core.Runner
// does this wiring). Everything returned by workspace-backed calls —
// problems, solutions, allocations, plans — is owned by the workspace and
// overwritten by the next call of the same kind, so callers must finish
// consuming one result before requesting the next. The three allocation
// slots (solver witness, latest-fit baseline, System (2) refinement) are
// distinct precisely so the online heuristics can hold a solver witness
// while refining it.
//
// The zero-ws code paths (package-level FromInstance, Problem values built
// by hand) behave exactly as before: every buffer is freshly allocated and
// caller-owned.
type Workspace struct {
	prob Problem // pooled problem bound by Problem/FromInstance/FromContext

	fops  lp.Float64Ops // flow tolerance; boxed once via pointer, mutated in place
	dinic *flow.Graph[float64]
	mc    *flow.MinCost

	net feasNet // pooled interval/admissibility structure

	// Solver scratch.
	pts        []float64 // interval boundary collection
	ms         []float64 // milestone collection
	releases   []float64 // deduplicated release dates
	candidates []float64 // milestone bracket candidates
	sol        Solution

	// Flow-network construction scratch.
	binUsed []bool
	edges   []binEdge

	// Allocation slots. allocSolve holds the feasibility witness of
	// OptimalStretch, allocLazy the latest-fit baseline of FeasibleAlloc,
	// allocRefine the System (2) refinement — three slots because the online
	// heuristics keep the witness alive while computing its refinement.
	allocSolve  Alloc
	allocLazy   Alloc
	allocRefine Alloc

	// Realisation scratch.
	remBefore  []float64 // (nT+1)×n remaining-work table, flattened
	lastGlobal []int
	ks         []int
	plan       sim.Plan

	// Exact refinement state: the interval-affine structure, the cut
	// network scratch, and the rational certificate graph with the ops it
	// runs on, whose tier counters accumulate into tiers.
	exItems  []affItem
	exBounds []rat.Affine
	cut      cutNet
	exact    *flow.Graph[rat.Rat]
	rops     lp.RatOps
	tiers    rat.TierStats
}

// NewWorkspace returns an empty workspace; buffers are sized lazily on
// first use and grown only when an instance exceeds every previous one.
func NewWorkspace() *Workspace { return &Workspace{} }

// TierStats returns the representation-tier counters of the exact
// refinement's rational arithmetic, accumulated across every exact solve on
// this workspace, or nil when no exact solve has run yet. Reset between
// runs for per-run numbers.
func (ws *Workspace) TierStats() *rat.TierStats { return ws.rops.Tiers }

// Problem returns the workspace's pooled Problem, emptied and bound to
// inst. Callers append Tasks themselves (Bender98 builds its from-scratch
// release-date problem this way); FromInstance and FromContext are the
// common fillers.
func (ws *Workspace) Problem(inst *model.Instance) *Problem {
	p := &ws.prob
	p.Inst = inst
	p.ws = ws
	p.Tasks = p.Tasks[:0]
	return p
}

// FromInstance is the workspace-pooled variant of the package-level
// FromInstance. The returned problem is owned by ws.
func (ws *Workspace) FromInstance(inst *model.Instance) *Problem {
	return fillFromInstance(ws.Problem(inst), inst)
}

// FromContext is the workspace-pooled variant of the package-level
// FromContext. The returned problem is owned by ws.
func (ws *Workspace) FromContext(ctx *sim.Ctx) *Problem {
	return fillFromContext(ws.Problem(ctx.Inst), ctx)
}

// EmptyPlan returns the workspace's pooled plan reset to m empty machine
// timetables — the no-active-jobs answer of the online planners.
func (ws *Workspace) EmptyPlan(m int) *sim.Plan {
	ws.plan.Reset(m)
	return &ws.plan
}

// solution returns the workspace solution slot, or a fresh Solution for a
// workspace-less problem.
func (p *Problem) solution() *Solution {
	if p.ws != nil {
		p.ws.sol = Solution{}
		return &p.ws.sol
	}
	return &Solution{}
}

// allocSlot returns the requested pooled allocation slot, or a fresh Alloc
// for a workspace-less problem.
func (p *Problem) allocSlot(slot *Alloc) *Alloc {
	if p.ws != nil && slot != nil {
		return slot
	}
	return &Alloc{}
}

// prepare binds a (pooled or fresh) Alloc to problem p at stretch f with the
// given interval bounds, and zero-fills its nT×m×n work tensor reusing every
// nested buffer. Bounds are copied: the pooled interval structure is
// rebuilt by the next feasibility solve, but an Alloc must stay readable
// until its slot is reused.
func (a *Alloc) prepare(p *Problem, f float64, bounds []float64, nT, m, n int) {
	a.Problem = p
	a.Stretch = f
	a.Bounds = append(a.Bounds[:0], bounds...)
	if cap(a.Work) < nT {
		a.Work = make([][][]float64, nT)
	}
	a.Work = a.Work[:nT]
	for t := range a.Work {
		wt := a.Work[t]
		if cap(wt) < m {
			wt = make([][]float64, m)
		}
		wt = wt[:m]
		for i := range wt {
			wi := wt[i]
			if cap(wi) < n {
				wi = make([]float64, n)
			}
			wi = wi[:n]
			for k := range wi {
				wi[k] = 0
			}
			wt[i] = wi
		}
		a.Work[t] = wt
	}
}

// dinicGraph returns a flow network with n nodes and the given capacity
// tolerance: the workspace's pooled graph, or a fresh one.
func (p *Problem) dinicGraph(n int, eps float64) *flow.Graph[float64] {
	if p.ws == nil {
		return flow.NewGraph[float64](lp.Float64Ops{Eps: eps}, n)
	}
	ws := p.ws
	ws.fops.Eps = eps
	if ws.dinic == nil {
		ws.dinic = flow.NewGraph[float64](&ws.fops, n)
	} else {
		ws.dinic.Reset(&ws.fops, n)
	}
	return ws.dinic
}

// mcGraph is dinicGraph for the min-cost solver of System (2).
func (p *Problem) mcGraph(n int, eps float64) *flow.MinCost {
	if p.ws == nil {
		return flow.NewMinCost(n, eps)
	}
	if p.ws.mc == nil {
		p.ws.mc = flow.NewMinCost(n, eps)
	} else {
		p.ws.mc.Reset(n, eps)
	}
	return p.ws.mc
}

// binScratch returns a cleared node-used bitmap of length n and the edge
// list scratch, pooled when a workspace is attached.
func (p *Problem) binScratch(n int) ([]bool, []binEdge) {
	if p.ws == nil {
		return make([]bool, n), nil
	}
	if cap(p.ws.binUsed) < n {
		p.ws.binUsed = make([]bool, n)
	}
	used := p.ws.binUsed[:n]
	for i := range used {
		used[i] = false
	}
	return used, p.ws.edges[:0]
}

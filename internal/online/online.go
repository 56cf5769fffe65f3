// Package online implements the on-line max-stretch heuristics of §4.3.2.
//
// The paper's algorithm reacts to every job arrival:
//
//  1. preempt the running jobs;
//  2. compute the best achievable max-stretch S*, given the decisions
//     already made (executed work is sunk; remaining work is re-planned);
//  3. solve System (2): among allocations meeting the S*-deadlines,
//     minimise a relaxation of the sum-stretch (pull work early);
//  4. realise the allocation into an executable schedule.
//
// Step 4 exists in three variants — Online (per-machine, terminal jobs
// first under SWRPT), Online-EDF (per-machine, by global completion
// interval) and Online-EGDF (a global priority list fed to the greedy
// spatial rule of §3). A "non-optimised" variant stops after step 2 and
// realises the bare feasibility solution; Figure 3 of the paper measures
// what step 3 buys over it.
//
// The package also provides the two guaranteed competitors from the
// literature used in the paper's evaluation: Bender98 (offline-optimal
// recomputation with √∆-expanded deadlines + EDF) and Bender02 (the
// pseudo-stretch rule, re-exported from internal/policy).
package online

import (
	"encoding/json"
	"fmt"

	"stretchsched/internal/model"
	"stretchsched/internal/offline"
	"stretchsched/internal/sim"
)

// Variant selects the realisation strategy of step 4.
type Variant int

const (
	// Plain is the paper's "Online": terminal jobs first, SWRPT ties.
	Plain Variant = iota
	// EDF is "Online-EDF": per-machine list by global completion interval.
	EDF
)

func (v Variant) String() string {
	switch v {
	case Plain:
		return "Online"
	case EDF:
		return "Online-EDF"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// Heuristic is the LP-based online scheduler (variants Plain and EDF),
// used through sim.RunPlanned.
type Heuristic struct {
	Variant Variant
	// Optimized applies System (2) (step 3). When false the heuristic
	// stops after step 2 and realises the raw feasibility allocation —
	// the paper's "non-optimized" baseline of Figure 3.
	Optimized bool
	Solver    offline.Solver

	ws            *offline.Workspace
	lastStretch   float64
	refineErrs    int
	lastRefineErr error
}

// SetWorkspace attaches a shared solver workspace: every per-arrival
// re-optimisation reuses its one set of problem/flow/allocation/plan
// buffers (see offline.Workspace). A nil ws gives the heuristic a private
// workspace at its next Init. Must not be called mid-run.
func (h *Heuristic) SetWorkspace(ws *offline.Workspace) { h.ws = ws }

// New returns an optimised online heuristic of the given variant.
func New(v Variant) *Heuristic {
	return &Heuristic{Variant: v, Optimized: true}
}

// NewNonOptimized returns the Figure-3 baseline: best-achievable max-stretch
// deadlines, no sum-stretch refinement.
func NewNonOptimized() *Heuristic {
	return &Heuristic{Variant: Plain, Optimized: false}
}

// Name implements sim.Planner.
func (h *Heuristic) Name() string {
	if !h.Optimized {
		return "Online-NonOpt"
	}
	return h.Variant.String()
}

// LastStretch returns the most recent best-achievable max-stretch computed
// in step 2 (diagnostic).
func (h *Heuristic) LastStretch() float64 { return h.lastStretch }

// LastRefineErr returns the System (2) failure of the most recent Plan
// call, or nil if the last refinement succeeded (diagnostic). Unlike the
// offline planner, the online heuristic deliberately falls back to the
// step-2 allocation on refinement failure — the plan is recomputed at the
// next arrival anyway — but the failure is recorded, never swallowed.
func (h *Heuristic) LastRefineErr() error { return h.lastRefineErr }

// SolveFailures returns the number of per-arrival solver failures recorded
// by the current run. Step-2 failures abort the run through Plan's error
// (stretchErrs is always 0 here, kept for interface symmetry with EGDF);
// step-3 failures fall back to the unrefined allocation and count.
func (h *Heuristic) SolveFailures() (stretchErrs, refineErrs int) {
	return 0, h.refineErrs
}

// Init implements sim.Planner.
func (h *Heuristic) Init(*model.Instance) {
	if h.ws == nil {
		h.ws = offline.NewWorkspace()
	}
	h.lastStretch = 0
	h.refineErrs = 0
	h.lastRefineErr = nil
}

// Plan implements sim.Planner; it is invoked by the engine at the start and
// at every job arrival, which realises the paper's "preempt and recompute on
// every release" loop.
func (h *Heuristic) Plan(ctx *sim.Ctx) (*sim.Plan, error) {
	prob := h.ws.FromContext(ctx)
	if len(prob.Tasks) == 0 {
		return h.ws.EmptyPlan(ctx.Inst.Platform.NumMachines()), nil
	}
	sol, err := h.Solver.OptimalStretch(prob)
	if err != nil {
		return nil, fmt.Errorf("online: step 2: %w", err)
	}
	h.lastStretch = sol.Stretch

	alloc := sol.Alloc
	if h.Optimized {
		refined, err := prob.Refine(sol.Stretch)
		h.lastRefineErr = err
		if err == nil {
			alloc = refined
		} else {
			h.refineErrs++
		}
	} else {
		// Step-2-only baseline: any deadline-feasible allocation, with no
		// earliness preference — the paper's LP solver returned an
		// arbitrary vertex; latest-fit represents that without the
		// accidental earliness bias of a BFS max-flow witness.
		if lazy, err := prob.FeasibleAlloc(sol.Stretch, true); err == nil {
			alloc = lazy
		}
	}

	order := offline.TerminalSWRPT
	if h.Variant == EDF {
		order = offline.GlobalCompletionEDF
	}
	return alloc.Realize(order)
}

// EGDF is the "Online-EGDF" variant: steps 1–3 as above, but step 4 keeps
// only the global completion order of the refined allocation and feeds it
// to the greedy spatial rule as a priority list. It is therefore a
// sim.Policy, not a planner.
type EGDF struct {
	Solver offline.Solver

	ws       *offline.Workspace
	rank     map[model.JobID]int
	order    []model.JobID // the ranked jobs by rank; pooled GlobalOrder output
	hasRank  bool
	arrivals int // ctx.Arrivals at the last OnEvent; -1 forces a re-solve

	// Per-event solver failures are fallbacks by design (the previous
	// priority order keeps the simulation running), but they are recorded,
	// never swallowed. Counters reset at Init; cmd/experiments aggregates
	// them as grid diagnostics.
	stretchErrs    int
	refineErrs     int
	lastStretchErr error
	lastRefineErr  error

	solve  func(*offline.Solver, *offline.Problem) (*offline.Solution, error) // test seam; nil means Solver.OptimalStretch
	refine func(*offline.Problem, float64) (*offline.Alloc, error)            // test seam; nil means Problem.Refine
}

// NewEGDF returns an Online-EGDF policy.
func NewEGDF() *EGDF { return &EGDF{} }

// SetWorkspace attaches a shared solver workspace for the per-arrival
// re-optimisations. A nil ws gives the policy a private workspace at its
// next Init. Must not be called mid-run.
func (e *EGDF) SetWorkspace(ws *offline.Workspace) { e.ws = ws }

// Name implements sim.Policy.
func (e *EGDF) Name() string { return "Online-EGDF" }

// SolveFailures returns how many per-event step-2 (optimal stretch) and
// step-3 (System (2) refinement) solves failed — and fell back — during
// the current run (diagnostic; see LastStretchErr and LastRefineErr).
func (e *EGDF) SolveFailures() (stretchErrs, refineErrs int) {
	return e.stretchErrs, e.refineErrs
}

// LastStretchErr returns the most recent step-2 failure of the current
// run, or nil. A failure leaves the previous priority order in place.
func (e *EGDF) LastStretchErr() error { return e.lastStretchErr }

// LastRefineErr returns the most recent step-3 failure of the current run,
// or nil. A failure ranks by the unrefined step-2 allocation instead.
func (e *EGDF) LastRefineErr() error { return e.lastRefineErr }

// Init implements sim.Policy.
func (e *EGDF) Init(*model.Instance) {
	if e.ws == nil {
		e.ws = offline.NewWorkspace()
	}
	clear(e.rank)
	e.order = e.order[:0]
	e.hasRank = false
	e.arrivals = 0
	e.stretchErrs, e.refineErrs = 0, 0
	e.lastStretchErr, e.lastRefineErr = nil, nil
}

// OnEvent recomputes the global priority list when jobs arrived since its
// last call (ctx.Arrivals moved) or it has no ranking yet, as §4.3.2
// re-solves at every arrival; a completion keeps the order. Arrivals also
// counts the arrivals of events this policy sat out, such as the serving
// backlog guard's degraded ones, whose recycled slots the old ranks may
// no longer describe.
//
//stretch:noalloc
func (e *EGDF) OnEvent(ctx *sim.Ctx) {
	if ctx.Arrivals == e.arrivals && e.hasRank {
		return
	}
	e.arrivals = ctx.Arrivals

	prob := e.ws.FromContext(ctx)
	if len(prob.Tasks) == 0 {
		clear(e.rank)
		e.order = e.order[:0]
		e.hasRank = true
		return
	}
	solve := e.solve
	if solve == nil {
		solve = (*offline.Solver).OptimalStretch
	}
	sol, err := solve(&e.Solver, prob)
	if err != nil {
		// Degenerate numeric failure: keep the previous order rather than
		// stopping the simulation; SWRPT ties still give a total order.
		// Recorded, not swallowed.
		e.stretchErrs++
		e.lastStretchErr = err
		return
	}
	alloc := sol.Alloc
	refine := e.refine
	if refine == nil {
		refine = (*offline.Problem).Refine
	}
	if refined, err := refine(prob, sol.Stretch); err == nil {
		alloc = refined
	} else {
		// Fall back to ranking the step-2 allocation; recorded likewise.
		e.refineErrs++
		e.lastRefineErr = err
	}
	e.order = alloc.AppendGlobalOrder(e.order[:0])
	if e.rank == nil {
		e.rank = map[model.JobID]int{} //stretch:alloc-ok — lazy init, reused afterwards
	} else {
		clear(e.rank)
	}
	for i, j := range e.order {
		e.rank[j] = i
	}
	e.hasRank = true
}

// Less implements sim.Policy.
//
//stretch:noalloc
func (e *EGDF) Less(ctx *sim.Ctx, a, b model.JobID) bool {
	ra, oka := e.rank[a]
	rb, okb := e.rank[b]
	if oka && okb && ra != rb {
		return ra < rb
	}
	if oka != okb {
		return oka // ranked jobs first
	}
	// Fallback: SWRPT.
	ka := ctx.Inst.AloneTime(a) * ctx.RemainingAloneTime(a)
	kb := ctx.Inst.AloneTime(b) * ctx.RemainingAloneTime(b)
	if ka != kb {
		return ka < kb
	}
	return a < b
}

// egdfState is Online-EGDF's state as a checkpoint carries it.
type egdfState struct {
	Stale bool          // jobs arrived since the last OnEvent
	Rank  []model.JobID // the ranked slots by rank, freed ones included
}

// State implements sim.StatefulPolicy: the ranking, which keeps the slots
// of jobs completed since it was solved, and whether jobs arrived since.
// It is nil before the first ranking, which a fresh policy also lacks.
func (e *EGDF) State(ctx *sim.Ctx) ([]byte, error) {
	if !e.hasRank {
		return nil, nil
	}
	return json.Marshal(egdfState{Stale: ctx.Arrivals != e.arrivals, Rank: e.order})
}

// RestoreState implements sim.StatefulPolicy. It refuses a ranking that
// names a slot twice or outside ctx's slot table.
func (e *EGDF) RestoreState(state []byte, ctx *sim.Ctx) error {
	var st egdfState
	if err := json.Unmarshal(state, &st); err != nil {
		return fmt.Errorf("Online-EGDF state: %w", err)
	}
	e.rank = make(map[model.JobID]int, len(st.Rank))
	for i, j := range st.Rank {
		if _, dup := e.rank[j]; dup || j < 0 || int(j) >= len(ctx.Released) {
			return fmt.Errorf("Online-EGDF state: slot %d is ranked twice or is not a slot", j)
		}
		e.rank[j] = i
	}
	e.order = append(e.order[:0], st.Rank...)
	e.hasRank = true
	e.arrivals = restoredArrivals(st.Stale, ctx)
	return nil
}

// restoredArrivals is the ctx.Arrivals a restored policy remembers as seen
// at its last OnEvent: the restored count, or -1 when jobs had arrived
// since the encoding policy's last OnEvent, so that the next OnEvent
// re-solves as the encoding policy's would have.
func restoredArrivals(stale bool, ctx *sim.Ctx) int {
	if stale {
		return -1
	}
	return ctx.Arrivals
}

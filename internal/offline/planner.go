package offline

import (
	"fmt"

	"stretchsched/internal/model"
	"stretchsched/internal/sim"
)

// Planner is the offline optimal max-stretch scheduler as a sim.Planner:
// it knows the whole instance, solves the optimal stretch once at the first
// decision instant, realises the allocation into a timetable and follows it
// for the entire run.
type Planner struct {
	Solver Solver
	// Refined additionally applies System (2) at the optimal stretch before
	// realisation, which improves the (unconstrained) sum-stretch of the
	// realised schedule without touching the max-stretch. A failed
	// refinement aborts the run: an "Offline-Refined" result that was
	// silently never refined would skew every sum-stretch comparison it
	// appears in.
	Refined bool

	ws      *Workspace
	refine  func(*Problem, float64) (*Alloc, error) // test seam; nil means Problem.Refine
	plan    *sim.Plan
	stretch float64
}

// NewPlanner returns an offline planner with the default solver.
func NewPlanner() *Planner { return &Planner{} }

// SetWorkspace attaches a shared solver workspace. The planner draws every
// solver, allocation and plan buffer from its workspace, so replaying
// instances through one engine+workspace pair is allocation-free in steady
// state. A nil ws gives the planner a private workspace at its next Init.
// Must not be called between Plan invocations of a running simulation.
func (pl *Planner) SetWorkspace(ws *Workspace) { pl.ws = ws }

// Name implements sim.Planner.
func (pl *Planner) Name() string {
	if pl.Refined {
		return "Offline-Refined"
	}
	return "Offline"
}

// Stretch returns the optimal max-stretch computed during the run.
func (pl *Planner) Stretch() float64 { return pl.stretch }

// Init implements sim.Planner.
func (pl *Planner) Init(*model.Instance) {
	if pl.ws == nil {
		pl.ws = NewWorkspace()
	}
	pl.plan = nil
	pl.stretch = 0
}

// Plan implements sim.Planner. The full-horizon timetable is computed on
// the first call; re-invocations at later arrivals resume the same plan.
func (pl *Planner) Plan(ctx *sim.Ctx) (*sim.Plan, error) {
	if pl.plan != nil {
		return pl.plan, nil
	}
	prob := pl.ws.FromInstance(ctx.Inst)
	sol, err := pl.Solver.OptimalStretch(prob)
	if err != nil {
		return nil, err
	}
	pl.stretch = sol.Stretch
	alloc := sol.Alloc
	if pl.Refined {
		refine := pl.refine
		if refine == nil {
			refine = (*Problem).Refine
		}
		refined, err := refine(prob, sol.Stretch)
		if err != nil {
			return nil, fmt.Errorf("offline: System (2) refinement at F=%v: %w", sol.Stretch, err)
		}
		alloc = refined
	}
	plan, err := alloc.Realize(TerminalSWRPT)
	if err != nil {
		return nil, err
	}
	pl.plan = plan
	return plan, nil
}

// Optimal computes the optimal max-stretch value of a full instance.
func Optimal(inst *model.Instance) (float64, error) {
	var s Solver
	sol, err := s.OptimalStretch(FromInstance(inst))
	if err != nil {
		return 0, err
	}
	return sol.Stretch, nil
}

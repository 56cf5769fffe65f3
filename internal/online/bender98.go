package online

import (
	"encoding/json"
	"fmt"
	"math"

	"stretchsched/internal/model"
	"stretchsched/internal/offline"
	"stretchsched/internal/sim"
)

// Bender98 is the O(√∆)-competitive online algorithm of Bender, Chakrabarti
// and Muthukrishnan (SODA'98), as described in §4.3.2: at every arrival it
// recomputes the optimal *offline* max-stretch S* of all jobs released so
// far (from scratch, with their original release dates and full sizes —
// ignoring the executed work), sets expanded deadlines
//
//	d̄_j = r_j + α · S* · p*_j,   α = √∆,
//
// and runs Earliest Deadline First. The full offline solve per arrival is
// what makes the algorithm prohibitively expensive (§5.3 restricts it to
// 3-site platforms; so does this repository's harness).
//
// On a stream (sim.Driver, as stretchd serves it) the offline problem
// covers live jobs only: Driver.Complete clears a finished job's Released
// flag, whereas a batch run (sim.Engine) keeps every job ever released.
type Bender98 struct {
	// Alpha overrides the expansion factor; 0 means √∆ as in the paper.
	Alpha float64

	ws       *offline.Workspace
	deadline []float64 // per slot; +Inf until a solve covers the slot
	arrivals int       // ctx.Arrivals at the last OnEvent; -1 forces a re-solve

	// A failed offline solve keeps the previous deadlines; it is counted,
	// never swallowed. The counter resets at Init.
	stretchErrs int

	solver offline.Solver                                                     // the zero value: float step 2
	solve  func(*offline.Solver, *offline.Problem) (*offline.Solution, error) // test seam; nil means Solver.OptimalStretch
}

// NewBender98 returns the heuristic with the paper's α = √∆.
func NewBender98() *Bender98 { return &Bender98{} }

// SetWorkspace attaches a shared solver workspace for the per-arrival
// offline solves — the dominant cost of this algorithm (§5.3). A nil ws
// gives the policy a private workspace at its next Init. Must not be
// called mid-run.
func (b *Bender98) SetWorkspace(ws *offline.Workspace) { b.ws = ws }

// Name implements sim.Policy.
func (b *Bender98) Name() string { return "Bender98" }

// SolveFailures returns how many per-arrival offline solves failed — and
// kept the previous deadlines — during the current run. Bender98 runs no
// System (2), so refineErrs is always 0.
func (b *Bender98) SolveFailures() (stretchErrs, refineErrs int) {
	return b.stretchErrs, 0
}

// Init implements sim.Policy.
func (b *Bender98) Init(inst *model.Instance) {
	if b.ws == nil {
		b.ws = offline.NewWorkspace()
	}
	n := inst.NumJobs()
	if cap(b.deadline) < n {
		b.deadline = make([]float64, n)
	}
	b.deadline = b.deadline[:n]
	for j := range b.deadline {
		b.deadline[j] = math.Inf(1)
	}
	b.arrivals = 0
	b.stretchErrs = 0
}

// OnEvent recomputes deadlines when jobs arrived since its last call
// (ctx.Arrivals moved, as in EGDF.OnEvent), the arrivals §4.3.2 re-solves
// at; a completion keeps them. A stream adds job slots after Init, so the
// deadline table grows to the slot count first; a batch run sized it in
// Init.
func (b *Bender98) OnEvent(ctx *sim.Ctx) {
	for len(b.deadline) < len(ctx.Released) {
		b.deadline = append(b.deadline, math.Inf(1))
	}
	if ctx.Arrivals == b.arrivals {
		return
	}
	b.arrivals = ctx.Arrivals

	// Offline problem over all released jobs, from scratch.
	prob := b.ws.Problem(ctx.Inst)
	minAlone, maxAlone := math.Inf(1), 0.0
	for j := range ctx.Released {
		if !ctx.Released[j] {
			continue
		}
		id := model.JobID(j)
		alone := ctx.Inst.AloneTime(id)
		minAlone = math.Min(minAlone, alone)
		maxAlone = math.Max(maxAlone, alone)
		prob.Tasks = append(prob.Tasks, offline.Task{
			Job:     id,
			Release: ctx.Inst.Jobs[j].Release,
			Work:    ctx.Inst.Jobs[j].Size,
			DeadA:   ctx.Inst.Jobs[j].Release,
			DeadB:   alone,
		})
	}
	solve := b.solve
	if solve == nil {
		solve = (*offline.Solver).OptimalStretch
	}
	sol, err := solve(&b.solver, prob)
	if err != nil {
		b.stretchErrs++ // keep previous deadlines on numeric failure
		return
	}
	alpha := b.Alpha
	if alpha == 0 {
		alpha = math.Sqrt(math.Max(1, maxAlone/minAlone))
	}
	for j := range ctx.Released {
		if !ctx.Released[j] {
			continue
		}
		id := model.JobID(j)
		b.deadline[j] = ctx.Inst.Jobs[j].Release + alpha*sol.Stretch*ctx.Inst.AloneTime(id)
	}
}

// Less implements sim.Policy: EDF over the expanded deadlines, ties to the
// smaller job.
func (b *Bender98) Less(ctx *sim.Ctx, x, y model.JobID) bool {
	dx, dy := b.deadline[x], b.deadline[y]
	if dx != dy {
		return dx < dy
	}
	return ctx.Inst.AloneTime(x) < ctx.Inst.AloneTime(y)
}

// bender98State is Bender98's state as a checkpoint carries it.
type bender98State struct {
	Stale    bool       // jobs arrived since the last OnEvent
	Deadline []*float64 // per slot, freed ones included; nil for +Inf, which JSON lacks
}

// State implements sim.StatefulPolicy: whether jobs arrived since the last
// OnEvent, and every slot's deadline.
func (b *Bender98) State(ctx *sim.Ctx) ([]byte, error) {
	st := bender98State{Stale: ctx.Arrivals != b.arrivals, Deadline: make([]*float64, len(b.deadline))}
	for j := range b.deadline {
		if !math.IsInf(b.deadline[j], 1) {
			st.Deadline[j] = &b.deadline[j]
		}
	}
	return json.Marshal(st)
}

// RestoreState implements sim.StatefulPolicy. It refuses more deadlines
// than ctx has slots; JSON admits no NaN deadline.
func (b *Bender98) RestoreState(state []byte, ctx *sim.Ctx) error {
	var st bender98State
	if err := json.Unmarshal(state, &st); err != nil {
		return fmt.Errorf("Bender98 state: %w", err)
	}
	if len(st.Deadline) > len(ctx.Released) {
		return fmt.Errorf("Bender98 state: %d deadlines for fewer slots", len(st.Deadline))
	}
	b.deadline = b.deadline[:0]
	for _, d := range st.Deadline {
		v := math.Inf(1)
		if d != nil {
			v = *d
		}
		b.deadline = append(b.deadline, v)
	}
	b.arrivals = restoredArrivals(st.Stale, ctx)
	return nil
}

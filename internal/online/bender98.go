package online

import (
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
	deadline []float64
	released int
}

// NewBender98 returns the heuristic with the paper's α = √∆.
func NewBender98() *Bender98 { return &Bender98{} }

// SetWorkspace attaches a pooled solver workspace for the per-arrival
// offline solves — the dominant cost of this algorithm (§5.3). Must not be
// called mid-run.
func (b *Bender98) SetWorkspace(ws *offline.Workspace) { b.ws = ws }

// Name implements sim.Policy.
func (b *Bender98) Name() string { return "Bender98" }

// Init implements sim.Policy.
func (b *Bender98) Init(inst *model.Instance) {
	n := inst.NumJobs()
	if cap(b.deadline) < n {
		b.deadline = make([]float64, n)
	}
	b.deadline = b.deadline[:n]
	for j := range b.deadline {
		b.deadline[j] = math.Inf(1)
	}
	b.released = 0
}

// OnEvent recomputes deadlines when new jobs have been released. A stream
// adds job slots after Init, so the deadline table grows to the slot count
// first; a batch run sized it in Init.
func (b *Bender98) OnEvent(ctx *sim.Ctx) {
	for len(b.deadline) < len(ctx.Released) {
		b.deadline = append(b.deadline, math.Inf(1))
	}
	released := 0
	for _, r := range ctx.Released {
		if r {
			released++
		}
	}
	if released == b.released {
		return
	}
	b.released = released

	// Offline problem over all released jobs, from scratch.
	var prob *offline.Problem
	if b.ws != nil {
		prob = b.ws.Problem(ctx.Inst)
	} else {
		prob = &offline.Problem{Inst: ctx.Inst}
	}
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
	var solver offline.Solver
	sol, err := solver.OptimalStretch(prob)
	if err != nil {
		return // keep previous deadlines on numeric failure
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

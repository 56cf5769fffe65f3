// Package sim is the discrete-event simulation engine for divisible loads
// with negligible communication — the repository's substitute for the
// SimGrid toolkit used by the paper (§5).
//
// The model makes an exact fluid simulation possible: at any instant each
// machine serves at most one job at its full speed, a job may span several
// machines, and rates only change at events (releases, completions, plan
// breakpoints). The engine therefore advances from event to event in closed
// form; there is no time-stepping error.
//
// Two drivers are provided:
//
//   - RunList executes a priority-list policy with the greedy spatial rule
//     of §3: "while some processors are idle, select the job with the
//     highest priority and distribute its processing on all appropriate
//     available processors".
//   - RunPlanned executes schedulers that emit explicit per-machine
//     timetables (the offline optimal and the LP-based online heuristics),
//     re-invoking the planner at every job arrival.
//
// Both drivers are available in two forms: the package-level functions
// return a caller-owned schedule, while an Engine owns every buffer the
// simulation needs (state vectors, the active set, the priority order it
// keeps across events, the predicted completion instants, the output
// schedule) and reuses them across invocations, so the steady-state event
// loop of RunList performs no heap allocation at all.
// Experiment harnesses that replay thousands of instances should hold one
// Engine per worker; see DESIGN.md for the full design.
package sim

import (
	"fmt"
	"math"
	"slices"

	"stretchsched/internal/model"
)

// Ctx is the read-only state handed to policies and planners at each
// decision instant.
type Ctx struct {
	Inst      *model.Instance
	Now       float64
	Remaining []float64 // remaining work per job (0 when done)
	Released  []bool
	Done      []bool
	// Arrivals counts the jobs that have entered the active set since the
	// run started (engine) or the driver was built; Driver.RestoreActive
	// counts the restored jobs as arrivals. It only grows, so a policy
	// that remembers it sees every arrival since its last OnEvent, even
	// when completions in between left the active count unchanged.
	// Hand-constructed contexts leave it 0.
	Arrivals int

	// active is the engine-maintained set of released, unfinished jobs in
	// ID order, updated incrementally at releases and completions. It is
	// nil for hand-constructed contexts, in which case Active falls back
	// to a scan.
	active  []model.JobID
	managed bool
}

// addActive inserts j into the active set by binary search, keeping it in
// ID order, and counts the arrival. The engine releases jobs in ID order,
// so there j lands at the end; the driver's recycled slots may land
// anywhere.
//
//stretch:noalloc
func (c *Ctx) addActive(j model.JobID) {
	i, _ := slices.BinarySearch(c.active, j)
	c.active = append(c.active, 0)
	copy(c.active[i+1:], c.active[i:])
	c.active[i] = j
	c.Arrivals++
}

// dropActive removes j from the active set by binary search, keeping ID
// order; it is a no-op when j is not active.
//
//stretch:noalloc
func (c *Ctx) dropActive(j model.JobID) {
	if i, ok := slices.BinarySearch(c.active, j); ok {
		c.active = slices.Delete(c.active, i, i+1)
	}
}

// Active returns the released, unfinished jobs in ID order. The returned
// slice is owned by the engine and must not be mutated or retained.
func (c *Ctx) Active() []model.JobID {
	if c.managed {
		return c.active
	}
	var out []model.JobID
	for j := range c.Remaining {
		if c.Released[j] && !c.Done[j] {
			out = append(out, model.JobID(j))
		}
	}
	return out
}

// RemainingAloneTime returns the time job j would still need alone on its
// eligible machines: ρ_j(t) / Σ_{i∈elig(j)} speed_i.
func (c *Ctx) RemainingAloneTime(j model.JobID) float64 {
	return c.Remaining[j] / c.Inst.Platform.AggregateSpeed(c.Inst.Jobs[j].Databank)
}

// Policy is a dynamic priority order over active jobs. OnEvent runs at every
// decision instant (start, release, completion) before comparisons, letting
// stateful policies (deadline-based, pseudo-stretch) refresh themselves.
type Policy interface {
	Name() string
	Init(inst *model.Instance)
	OnEvent(ctx *Ctx)
	// Less reports whether a must be served strictly before b.
	Less(ctx *Ctx, a, b model.JobID) bool
}

// StatefulPolicy is the optional hook of a policy whose decisions depend on
// state it builds across events and the Ctx does not hold: Online-EGDF's
// ranks, Bender98's deadlines, the alone times Bender02 and ST14 have seen.
// The serving daemon's checkpoint carries that state, so a restored policy
// decides as the interrupted one would have.
type StatefulPolicy interface {
	Policy
	// State encodes the policy's state as one JSON value, or returns nil
	// when the policy holds nothing a fresh Init does not. ctx is the
	// context of the policy's run.
	State(ctx *Ctx) ([]byte, error)
	// RestoreState replaces the state of a freshly initialised policy with
	// one State encoded. ctx is the restored context: it holds the live
	// jobs of the encoding run, and its Arrivals counts only them. A state
	// no run reaches is refused.
	RestoreState(state []byte, ctx *Ctx) error
}

// relTol is the relative numeric tolerance of the engine.
const relTol = 1e-9

// maxEvents caps the number of engine iterations as a defence against
// non-advancing policies; realistic runs are far below it.
const maxEvents = 10_000_000

// Engine owns every buffer a simulation needs and reuses them across
// invocations: after a warm-up run, the RunList event loop allocates
// nothing; within a run, RunList re-sorts one priority order in place
// from event to event. An Engine must not be used from multiple
// goroutines, and the schedule returned by its Run methods is overwritten
// by the next call — copy what must outlive it, or use the package-level
// functions, which return caller-owned schedules.
type Engine struct {
	st state
}

// NewEngine returns an empty engine; buffers are sized lazily on first use
// and grown only when an instance exceeds every previous one.
func NewEngine() *Engine { return &Engine{} }

// RunList simulates inst under the given priority policy and returns the
// complete schedule trace. The result is valid until the next call on e.
//
//stretch:noalloc
func (e *Engine) RunList(inst *model.Instance, pol Policy) (*model.Schedule, error) {
	pol.Init(inst)
	st := &e.st
	st.reset(inst)

	for ev := 0; ; ev++ {
		if ev > maxEvents {
			return nil, fmt.Errorf("sim: %s exceeded event budget", pol.Name()) //stretch:alloc-ok — error exit
		}
		if st.allDone() {
			return &st.sched, nil
		}
		if len(st.ctx.active) == 0 {
			if !st.advanceToNextArrival() {
				return nil, fmt.Errorf("sim: %s deadlocked with unfinished jobs", pol.Name()) //stretch:alloc-ok — error exit
			}
			continue
		}
		pol.OnEvent(&st.ctx)
		st.syncOrder()
		st.sortOrder(pol)

		st.allocate(st.order)
		st.refreshEvents()

		// Horizon: next arrival or earliest predicted completion at
		// current rates, a scan over the running jobs (at most one per
		// machine).
		earliest := math.Inf(1)
		for _, j := range st.running {
			if st.due[j] < earliest {
				earliest = st.due[j]
			}
		}
		dt := math.Min(st.timeToNextArrival(), earliest-st.ctx.Now)
		if math.IsInf(dt, 1) {
			return nil, fmt.Errorf("sim: %s has active jobs with no eligible machine and no future arrivals", pol.Name()) //stretch:alloc-ok — error exit
		}
		if dt < 0 {
			dt = 0
		}
		st.advance(dt)
	}
}

// RunPlanned simulates inst under a planning scheduler and returns the
// schedule trace. The result is valid until the next call on e.
func (e *Engine) RunPlanned(inst *model.Instance, pl Planner) (*model.Schedule, error) {
	return e.st.runPlanned(inst, pl)
}

// RunList simulates inst under the given priority policy on a fresh engine
// and returns a caller-owned schedule trace.
func RunList(inst *model.Instance, pol Policy) (*model.Schedule, error) {
	return NewEngine().RunList(inst, pol)
}

// state is the mutable engine state shared by both drivers. Every slice is
// retained across reset calls and regrown only when an instance is larger
// than all previous ones.
type state struct {
	ctx     Ctx
	inst    *model.Instance
	nextArr int // index into inst.Jobs of the next unreleased job
	doneCnt int
	workTol []float64 // absolute completion tolerance per job

	sched model.Schedule // reused output trace

	order    []model.JobID // active jobs in priority order
	assign   []int         // machine -> job (-1 idle)
	rate     []float64     // job -> aggregate service rate
	prevRate []float64     // rate at the previous event
	due      []float64     // job -> predicted completion while rate > 0
	running  []model.JobID // jobs with rate > 0, priority order
	cursor   []int         // planned driver: next plan slice per machine
}

// grow returns s resized to length n, reusing its backing array when large
// enough. Contents are unspecified; callers refill what they read.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// reset prepares the state for a new instance, reusing all buffers.
//
//stretch:noalloc
func (st *state) reset(inst *model.Instance) {
	n := inst.NumJobs()
	m := inst.Platform.NumMachines()
	st.inst = inst
	st.nextArr = 0
	st.doneCnt = 0

	st.ctx.Inst = inst
	st.ctx.managed = true
	st.ctx.Remaining = grow(st.ctx.Remaining, n)
	st.ctx.Released = grow(st.ctx.Released, n)
	st.ctx.Done = grow(st.ctx.Done, n)
	st.ctx.active = grow(st.ctx.active, n)[:0]
	st.ctx.Arrivals = 0
	st.workTol = grow(st.workTol, n)
	st.order = grow(st.order, n)[:0]
	st.assign = grow(st.assign, m)
	st.rate = grow(st.rate, n)
	st.prevRate = grow(st.prevRate, n)
	st.due = grow(st.due, n)
	st.running = grow(st.running, n)[:0]
	st.cursor = grow(st.cursor, m)
	st.sched.Reset(inst)

	// The completion tolerance is relative to the whole instance, not just
	// the job: planners built on float solvers (max-flow, LP) are accurate
	// to ~relTol·ΣW, and a plan may under-serve one small job by that much.
	total := inst.TotalWork()
	for j := range inst.Jobs {
		st.ctx.Remaining[j] = inst.Jobs[j].Size
		st.ctx.Released[j] = false
		st.ctx.Done[j] = false
		st.rate[j] = 0
		st.prevRate[j] = 0
		st.workTol[j] = relTol * (inst.Jobs[j].Size + total)
	}
	st.releaseUpTo(st.startTime())
	st.ctx.Now = st.startTime()
}

func (st *state) startTime() float64 {
	if st.inst.NumJobs() == 0 {
		return 0
	}
	return st.inst.Jobs[0].Release
}

// releaseUpTo marks every job released by time t and adds it to the
// active set.
//
//stretch:noalloc
func (st *state) releaseUpTo(t float64) {
	for st.nextArr < st.inst.NumJobs() && st.inst.Jobs[st.nextArr].Release <= t+relTol*(1+t) {
		st.ctx.Released[st.nextArr] = true
		st.ctx.addActive(model.JobID(st.nextArr))
		st.nextArr++
	}
}

func (st *state) allDone() bool { return st.doneCnt == st.inst.NumJobs() }

//stretch:noalloc
func (st *state) timeToNextArrival() float64 {
	if st.nextArr >= st.inst.NumJobs() {
		return math.Inf(1)
	}
	dt := st.inst.Jobs[st.nextArr].Release - st.ctx.Now
	if dt < 0 {
		return 0
	}
	return dt
}

//stretch:noalloc
func (st *state) advanceToNextArrival() bool {
	if st.nextArr >= st.inst.NumJobs() {
		return false
	}
	st.ctx.Now = st.inst.Jobs[st.nextArr].Release
	st.releaseUpTo(st.ctx.Now)
	return true
}

// priorityLess is the total order the drivers sort by: the policy's strict
// order with ties broken by job ID.
func priorityLess(pol Policy, ctx *Ctx, a, b model.JobID) bool {
	if pol.Less(ctx, a, b) {
		return true
	}
	if pol.Less(ctx, b, a) {
		return false
	}
	return a < b
}

// SortByPriority sorts order in place by pol's strict order with ties
// broken by job ID — the exact sequence the engine drivers use, exported
// so external event loops (the serving daemon) rank jobs identically.
// The result does not depend on the permutation order starts in, so a
// caller may keep order across events and pass it back nearly sorted, as
// Engine.RunList does; only the number of comparisons changes.
// slices.SortFunc is generic — no reflect-based swapper, and the
// comparison closure does not escape — so unlike sort.SliceStable it
// allocates nothing (enforced by TestRunListSteadyStateAllocs).
// priorityLess is a total order (ties break by job ID), so the unstable
// sort still produces a unique, deterministic sequence.
//
//stretch:noalloc
func SortByPriority(pol Policy, ctx *Ctx, order []model.JobID) {
	slices.SortFunc(order, func(a, b model.JobID) int { //stretch:alloc-ok — non-escaping comparison closure
		if pol.Less(ctx, a, b) {
			return -1
		}
		if pol.Less(ctx, b, a) {
			return 1
		}
		// Equal policy priority: break ties by job ID (total order).
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	})
}

// syncOrder brings the persistent priority order up to the active set:
// completed jobs leave it and released ones join at its end, so the next
// sort starts from the last event's order, in which only the running
// jobs' keys have moved. Releases come in ID order, so the jobs it lacks
// are the tail of the ID-ordered active set.
//
//stretch:noalloc
func (st *state) syncOrder() {
	k := 0
	for _, j := range st.order {
		if !st.ctx.Done[j] {
			st.order[k] = j
			k++
		}
	}
	st.order = append(st.order[:k], st.ctx.active[k:]...)
}

//stretch:noalloc
func (st *state) sortOrder(pol Policy) {
	SortByPriority(pol, &st.ctx, st.order)
}

// AllocateGreedy applies the §3 spatial rule: walk jobs in priority order,
// give each all still-free eligible machines. It fills assign (machine →
// job, -1 for idle, length NumMachines) and rate (job → aggregate rate,
// indexed by job ID), and appends the jobs holding a positive rate to
// running in priority order, returning the extended slice. Exported so
// external event loops share the engine's allocation semantics exactly.
//
//stretch:noalloc
func AllocateGreedy(inst *model.Instance, order []model.JobID, assign []int, rate []float64, running []model.JobID) []model.JobID {
	m := inst.Platform.NumMachines()
	for i := 0; i < m; i++ {
		assign[i] = -1
	}
	for _, j := range order {
		rate[j] = 0
	}
	free := m
	for _, j := range order {
		if free == 0 {
			break
		}
		for _, mid := range inst.Eligible(j) {
			if assign[mid] == -1 {
				assign[mid] = int(j)
				rate[j] += inst.Platform.Machine(mid).Speed
				free--
			}
		}
	}
	for _, j := range order {
		if rate[j] > 0 {
			running = append(running, j)
		}
	}
	return running
}

// allocate runs AllocateGreedy over the state's buffers.
//
//stretch:noalloc
func (st *state) allocate(order []model.JobID) {
	st.running = AllocateGreedy(st.inst, order, st.assign, st.rate, st.running[:0])
}

// refreshEvents records the predicted completion instants under the rates
// chosen by the last allocation. A job's prediction Now + ρ_j/rate_j is
// invariant while its rate holds, so it is recomputed only when the rate
// changes to a positive value; a job whose rate holds keeps the instant
// it was given then.
//
//stretch:noalloc
func (st *state) refreshEvents() {
	for _, j := range st.order {
		r := st.rate[j]
		if r == st.prevRate[j] {
			continue
		}
		if r > 0 {
			st.due[j] = st.ctx.Now + st.ctx.Remaining[j]/r
		}
		st.prevRate[j] = r
	}
}

// advance moves time forward by dt under st.assign/st.rate, emitting slices
// and completing jobs whose remaining work reaches zero.
//
//stretch:noalloc
func (st *state) advance(dt float64) {
	t0 := st.ctx.Now
	t1 := t0 + dt
	if dt > 0 {
		for mid, j := range st.assign {
			if j >= 0 {
				st.sched.AddSlice(model.Slice{
					Machine: model.MachineID(mid), Job: model.JobID(j), Start: t0, End: t1,
				})
			}
		}
		for _, j := range st.running {
			st.ctx.Remaining[j] -= st.rate[j] * dt
		}
	}
	st.ctx.Now = t1
	for _, j := range st.running {
		if !st.ctx.Done[j] && st.ctx.Remaining[j] <= st.workTol[j] {
			st.ctx.Remaining[j] = 0
			st.ctx.Done[j] = true
			st.doneCnt++
			st.sched.Completion[j] = t1
			st.ctx.dropActive(j)
		}
	}
	st.releaseUpTo(t1)
}

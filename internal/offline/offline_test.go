package offline

import (
	"math"
	"math/rand"
	"testing"

	"stretchsched/internal/model"
	"stretchsched/internal/sim"
)

func uniInstance(t *testing.T, speeds []float64, jobs []model.Job) *model.Instance {
	t.Helper()
	p, err := model.Uniform(speeds)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := model.NewInstance(p, jobs)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func solve(t *testing.T, inst *model.Instance) *Solution {
	t.Helper()
	var s Solver
	sol, err := s.OptimalStretch(FromInstance(inst))
	if err != nil {
		t.Fatal(err)
	}
	return sol
}

func TestSingleJobOptimalStretchIsOne(t *testing.T) {
	inst := uniInstance(t, []float64{2}, []model.Job{{Release: 3, Size: 8, Databank: 0}})
	sol := solve(t, inst)
	if math.Abs(sol.Stretch-1) > 1e-8 {
		t.Fatalf("stretch = %v, want 1", sol.Stretch)
	}
}

func TestTwoSimultaneousEqualJobs(t *testing.T) {
	// Two unit-speed jobs of length 2 released together on one machine:
	// total work 4 must fit in [0, 2F] → F* = 2.
	inst := uniInstance(t, []float64{1}, []model.Job{
		{Release: 0, Size: 2, Databank: 0},
		{Release: 0, Size: 2, Databank: 0},
	})
	sol := solve(t, inst)
	if math.Abs(sol.Stretch-2) > 1e-7 {
		t.Fatalf("stretch = %v, want 2", sol.Stretch)
	}
}

func TestBigJobSmallJob(t *testing.T) {
	// J1 (r=0, p=10), J2 (r=1, p=1): serving J2 at release stretches J1 to
	// 11/10; capacity forces F* = 1.1 exactly.
	inst := uniInstance(t, []float64{1}, []model.Job{
		{Release: 0, Size: 10, Databank: 0},
		{Release: 1, Size: 1, Databank: 0},
	})
	sol := solve(t, inst)
	if math.Abs(sol.Stretch-1.1) > 1e-7 {
		t.Fatalf("stretch = %v, want 1.1", sol.Stretch)
	}
}

// TestFloatModeMatchesExact: the float Newton phase lands on the exact
// optimum of System (1) to within 1e-9, and that optimum is tight.
func TestFloatModeMatchesExact(t *testing.T) {
	inst := uniInstance(t, []float64{1}, []model.Job{
		{Release: 0, Size: 10, Databank: 0},
		{Release: 1, Size: 1, Databank: 0},
		{Release: 2, Size: 3, Databank: 0},
	})
	fast := solve(t, inst)
	exact := Solver{Exact: true}
	sol, err := exact.OptimalStretch(FromInstance(inst))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fast.Stretch-sol.Stretch) > 1e-9*math.Max(1, sol.Stretch) {
		t.Fatalf("float %v vs exact %v", fast.Stretch, sol.Stretch)
	}
	// The exact value must itself be feasible and 1e-6 below it infeasible.
	prob := FromInstance(inst)
	if !prob.Feasible(sol.Stretch * (1 + 1e-9)) {
		t.Fatal("exact optimum infeasible")
	}
	if prob.Feasible(sol.Stretch * (1 - 1e-6)) {
		t.Fatal("exact optimum not minimal")
	}
}

func TestRestrictedAvailability(t *testing.T) {
	// db0 only on machine 0 (speed 1); db1 on both. Two simultaneous jobs.
	p, err := model.NewPlatform([]model.Machine{
		{Speed: 1, Databanks: []model.DatabankID{0, 1}},
		{Speed: 1, Databanks: []model.DatabankID{1}},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := model.NewInstance(p, []model.Job{
		{Release: 0, Size: 2, Databank: 0}, // alone time 2 (machine 0 only)
		{Release: 0, Size: 2, Databank: 1}, // alone time 1 (both machines)
	})
	if err != nil {
		t.Fatal(err)
	}
	sol := solve(t, inst)
	// Give machine 0 fully to job 0 (stretch 1); job 1 runs on machine 1
	// alone: flow 2, alone time 1 → stretch 2. Any work of job 1 moved to
	// machine 0 delays job 0 past stretch 1... F* balances: with F, job 0
	// may finish by 2F, job 1 by F. Feasibility: machine 1 gives job 1 min(F,2)
	// work; job 0 needs 2 ≤ capacity of machine 0 in [0,2F] minus job 1's
	// leftover (2-F if F<2). 2F ≥ 2 + max(0, 2-F) → 3F ≥ 4 → F* = 4/3.
	if math.Abs(sol.Stretch-4.0/3) > 1e-7 {
		t.Fatalf("stretch = %v, want 4/3", sol.Stretch)
	}
}

func TestLowerBoundFeasibleShortcut(t *testing.T) {
	// Jobs on disjoint machines, each alone: F* = lower bound = 1.
	p, err := model.NewPlatform([]model.Machine{
		{Speed: 1, Databanks: []model.DatabankID{0}},
		{Speed: 2, Databanks: []model.DatabankID{1}},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := model.NewInstance(p, []model.Job{
		{Release: 0, Size: 5, Databank: 0},
		{Release: 0, Size: 4, Databank: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	sol := solve(t, inst)
	if math.Abs(sol.Stretch-1) > 1e-8 {
		t.Fatalf("stretch = %v, want 1", sol.Stretch)
	}
}

func TestEmptyProblem(t *testing.T) {
	inst := uniInstance(t, []float64{1}, nil)
	sol := solve(t, inst)
	if sol.Stretch != 1 {
		t.Fatalf("stretch = %v", sol.Stretch)
	}
}

func TestFeasibilityMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		inst := randomInstance(t, rng, 2, 2, 6)
		prob := FromInstance(inst)
		lb := prob.LowerBound()
		ub := prob.UpperBound()
		prev := false
		for step := 0; step <= 8; step++ {
			f := lb + (ub*1.5-lb)*float64(step)/8
			cur := prob.Feasible(f)
			if prev && !cur {
				t.Fatalf("trial %d: feasibility not monotone at F=%v", trial, f)
			}
			prev = prev || cur
		}
		if !prob.Feasible(ub) {
			t.Fatalf("trial %d: upper bound %v infeasible", trial, ub)
		}
	}
}

func randomInstance(t *testing.T, rng *rand.Rand, nm, nb, nj int) *model.Instance {
	t.Helper()
	ms := make([]model.Machine, nm)
	for i := range ms {
		var banks []model.DatabankID
		for b := 0; b < nb; b++ {
			if i == 0 || rng.Float64() < 0.6 {
				banks = append(banks, model.DatabankID(b))
			}
		}
		ms[i] = model.Machine{Speed: 0.5 + 2*rng.Float64(), Databanks: banks}
	}
	p, err := model.NewPlatform(ms, nb)
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]model.Job, nj)
	for j := range jobs {
		jobs[j] = model.Job{
			Release:  rng.Float64() * 8,
			Size:     0.5 + 4*rng.Float64(),
			Databank: model.DatabankID(rng.Intn(nb)),
		}
	}
	inst, err := model.NewInstance(p, jobs)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// localSRPT avoids importing internal/policy (keeps this test package
// focused on offline).
type localSRPT struct{}

func (localSRPT) Name() string         { return "srpt" }
func (localSRPT) Init(*model.Instance) {}
func (localSRPT) OnEvent(*sim.Ctx)     {}
func (localSRPT) Less(ctx *sim.Ctx, a, b model.JobID) bool {
	return ctx.RemainingAloneTime(a) < ctx.RemainingAloneTime(b)
}

func TestOptimalDominatesHeuristics(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 12; trial++ {
		inst := randomInstance(t, rng, 1+rng.Intn(3), 1+rng.Intn(2), 3+rng.Intn(6))
		sol := solve(t, inst)
		sched, err := sim.RunList(inst, localSRPT{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if ms := sched.MaxStretch(inst); sol.Stretch > ms*(1+1e-6) {
			t.Fatalf("trial %d: optimal %v beats SRPT %v in the wrong direction",
				trial, sol.Stretch, ms)
		}
	}
}

func TestPlannerProducesOptimalSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		inst := randomInstance(t, rng, 1+rng.Intn(3), 1+rng.Intn(2), 3+rng.Intn(5))
		pl := NewPlanner()
		sched, err := sim.RunPlanned(inst, pl)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := sched.Validate(inst, 1e-6); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got := sched.MaxStretch(inst)
		if got > pl.Stretch()*(1+1e-5) {
			t.Fatalf("trial %d: realised max-stretch %v exceeds computed optimum %v",
				trial, got, pl.Stretch())
		}
	}
}

func TestRefinedPlannerKeepsMaxStretch(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	var plainSum, refinedSum float64
	for trial := 0; trial < 8; trial++ {
		inst := randomInstance(t, rng, 1+rng.Intn(2), 1+rng.Intn(2), 3+rng.Intn(5))

		plain := NewPlanner()
		s1, err := sim.RunPlanned(inst, plain)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		refined := &Planner{Refined: true}
		s2, err := sim.RunPlanned(inst, refined)
		if err != nil {
			t.Fatalf("trial %d refined: %v", trial, err)
		}
		if err := s2.Validate(inst, 1e-6); err != nil {
			t.Fatalf("trial %d refined: %v", trial, err)
		}
		if got := s2.MaxStretch(inst); got > refined.Stretch()*(1+1e-5) {
			t.Fatalf("trial %d: refined max-stretch %v > optimum %v", trial, got, refined.Stretch())
		}
		plainSum += s1.SumStretch(inst)
		refinedSum += s2.SumStretch(inst)
	}
	// System (2) optimises a relaxation (interval midpoints), so a single
	// realised schedule can regress slightly; in aggregate it must help
	// (the paper's Figure 3(b) measures exactly this gain).
	if refinedSum > plainSum*1.02 {
		t.Fatalf("refinement worsened aggregate sum-stretch: %v → %v", plainSum, refinedSum)
	}
}

func TestRefineAllocationIsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 8; trial++ {
		inst := randomInstance(t, rng, 1+rng.Intn(2), 1+rng.Intn(2), 3+rng.Intn(4))
		prob := FromInstance(inst)
		var s Solver
		sol, err := s.OptimalStretch(prob)
		if err != nil {
			t.Fatal(err)
		}
		alloc, err := prob.Refine(sol.Stretch * (1 + 1e-9))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkAlloc(t, alloc)
	}
}

// checkAlloc verifies work conservation, capacity and window constraints.
func checkAlloc(t *testing.T, a *Alloc) {
	t.Helper()
	p := a.Problem
	for k := range p.Tasks {
		if got, want := a.TaskWork(k), p.Tasks[k].Work; math.Abs(got-want) > 1e-6*(1+want) {
			t.Fatalf("task %d allocated %v of %v", k, got, want)
		}
	}
	for ti := range a.Work {
		lo, hi := a.Bounds[ti], a.Bounds[ti+1]
		length := hi - lo
		for i := range a.Work[ti] {
			speed := p.Inst.Platform.Machine(model.MachineID(i)).Speed
			sum := 0.0
			for k, w := range a.Work[ti][i] {
				if w == 0 {
					continue
				}
				sum += w
				task := &p.Tasks[k]
				if task.Release > lo+1e-6*(1+math.Abs(lo)) {
					t.Fatalf("task %d runs in interval starting %v before release %v", k, lo, task.Release)
				}
				if d := task.Deadline(a.Stretch); d < hi-1e-6*(1+math.Abs(hi)) {
					t.Fatalf("task %d runs in interval ending %v after deadline %v", k, hi, d)
				}
				if !p.Inst.Platform.Machine(model.MachineID(i)).Hosts(p.Inst.Jobs[task.Job].Databank) {
					t.Fatalf("task %d on ineligible machine %d", k, i)
				}
			}
			if sum > speed*length*(1+1e-6)+1e-9 {
				t.Fatalf("interval %d machine %d overfull: %v > %v", ti, i, sum, speed*length)
			}
		}
	}
}

func TestSolveFlowAllocationIsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 8; trial++ {
		inst := randomInstance(t, rng, 1+rng.Intn(3), 1+rng.Intn(2), 2+rng.Intn(5))
		sol := solve(t, inst)
		checkAlloc(t, sol.Alloc)
	}
}

func TestFromContextSkipsDoneAndUnreleased(t *testing.T) {
	inst := uniInstance(t, []float64{1}, []model.Job{
		{Release: 0, Size: 2, Databank: 0},
		{Release: 0, Size: 3, Databank: 0},
		{Release: 9, Size: 1, Databank: 0},
	})
	ctx := &sim.Ctx{
		Inst:      inst,
		Now:       4,
		Remaining: []float64{0, 1.5, 1},
		Released:  []bool{true, true, false},
		Done:      []bool{true, false, false},
	}
	prob := FromContext(ctx)
	if len(prob.Tasks) != 1 {
		t.Fatalf("tasks = %d, want 1", len(prob.Tasks))
	}
	task := prob.Tasks[0]
	if task.Job != 1 || task.Release != 4 || task.Work != 1.5 || task.DeadA != 0 || task.DeadB != 3 {
		t.Fatalf("task = %+v", task)
	}
}

func TestMilestonesSortedUnique(t *testing.T) {
	inst := uniInstance(t, []float64{1}, []model.Job{
		{Release: 0, Size: 4, Databank: 0},
		{Release: 1, Size: 2, Databank: 0},
		{Release: 3, Size: 1, Databank: 0},
	})
	prob := FromInstance(inst)
	ms := prob.Milestones(0, 100)
	for i := 1; i < len(ms); i++ {
		if ms[i] <= ms[i-1] {
			t.Fatalf("milestones not strictly increasing: %v", ms)
		}
	}
	if len(ms) == 0 {
		t.Fatal("expected at least one milestone")
	}
	// A known crossing: deadline of job 0 (4F) passes release 1 at F=1/4 —
	// but below the range lower bound it must be excluded.
	ms2 := prob.Milestones(0.5, 100)
	for _, f := range ms2 {
		if f <= 0.5 {
			t.Fatalf("milestone %v below range", f)
		}
	}
}

func TestGlobalOrderPrefersEarlyCompletion(t *testing.T) {
	inst := uniInstance(t, []float64{1}, []model.Job{
		{Release: 0, Size: 10, Databank: 0},
		{Release: 1, Size: 1, Databank: 0},
	})
	sol := solve(t, inst)
	order := sol.Alloc.GlobalOrder()
	if len(order) != 2 {
		t.Fatal("order size")
	}
	// The small job completes in an earlier interval than the big one.
	if order[0] != 1 {
		t.Fatalf("order = %v, want small job first", order)
	}
}

func TestUpperBoundAlwaysFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 15; trial++ {
		inst := randomInstance(t, rng, 1+rng.Intn(3), 1+rng.Intn(3), 1+rng.Intn(7))
		prob := FromInstance(inst)
		if !prob.Feasible(prob.UpperBound()) {
			t.Fatalf("trial %d: upper bound infeasible", trial)
		}
	}
}

package online

import (
	"math"
	"math/rand"
	"testing"

	"stretchsched/internal/model"
	"stretchsched/internal/offline"
	"stretchsched/internal/sim"
)

func randomInstance(t *testing.T, seed int64, nm, nb, nj int) *model.Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
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

func TestNames(t *testing.T) {
	if New(Plain).Name() != "Online" || New(EDF).Name() != "Online-EDF" {
		t.Fatal("variant names")
	}
	if NewNonOptimized().Name() != "Online-NonOpt" {
		t.Fatal("non-optimised name")
	}
	if NewEGDF().Name() != "Online-EGDF" || NewBender98().Name() != "Bender98" {
		t.Fatal("policy names")
	}
}

// TestOnlineValidNearOptimal: every online variant produces valid schedules
// with max-stretch close to the offline optimum on random instances — the
// paper's central experimental finding for Online and Online-EDF.
func TestOnlineValidNearOptimal(t *testing.T) {
	var degOnline, degEGDF float64
	n := 0
	for seed := int64(0); seed < 8; seed++ {
		inst := randomInstance(t, seed, 2, 2, 6)
		opt, err := offline.Optimal(inst)
		if err != nil {
			t.Fatal(err)
		}
		for _, variant := range []Variant{Plain, EDF} {
			h := New(variant)
			sched, err := sim.RunPlanned(inst, h)
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, variant, err)
			}
			if err := sched.Validate(inst, 1e-5); err != nil {
				t.Fatalf("seed %d %v: %v", seed, variant, err)
			}
			if ms := sched.MaxStretch(inst); ms < opt*(1-1e-4) {
				t.Fatalf("seed %d %v: beats optimum (%v < %v)", seed, variant, ms, opt)
			} else if variant == Plain {
				degOnline += ms / opt
			}
		}
		eg, err := sim.RunList(inst, NewEGDF())
		if err != nil {
			t.Fatalf("seed %d EGDF: %v", seed, err)
		}
		if err := eg.Validate(inst, 1e-5); err != nil {
			t.Fatalf("seed %d EGDF: %v", seed, err)
		}
		degEGDF += eg.MaxStretch(inst) / opt
		n++
	}
	degOnline /= float64(n)
	degEGDF /= float64(n)
	if degOnline > 1.1 {
		t.Fatalf("Online mean degradation %v too high", degOnline)
	}
	if degEGDF > 1.5 {
		t.Fatalf("Online-EGDF mean degradation %v too high", degEGDF)
	}
}

// TestOptimizedImprovesSumStretch verifies the Figure 3(b) effect in
// aggregate: System (2) improves the sum-stretch over the non-optimised
// baseline.
func TestOptimizedImprovesSumStretch(t *testing.T) {
	var opt, non float64
	for seed := int64(20); seed < 32; seed++ {
		inst := randomInstance(t, seed, 2, 2, 7)
		so, err := sim.RunPlanned(inst, New(Plain))
		if err != nil {
			t.Fatal(err)
		}
		sn, err := sim.RunPlanned(inst, NewNonOptimized())
		if err != nil {
			t.Fatal(err)
		}
		opt += so.SumStretch(inst)
		non += sn.SumStretch(inst)
	}
	if opt > non*1.001 {
		t.Fatalf("optimised sum-stretch %v worse than non-optimised %v", opt, non)
	}
}

// TestNonOptimizedStillNearOptimalMaxStretch: both variants target the same
// deadlines, so the max-stretch of the non-optimised variant is also close
// to optimal (Figure 3(a)).
func TestNonOptimizedStillNearOptimalMaxStretch(t *testing.T) {
	for seed := int64(40); seed < 45; seed++ {
		inst := randomInstance(t, seed, 2, 2, 6)
		opt, err := offline.Optimal(inst)
		if err != nil {
			t.Fatal(err)
		}
		sn, err := sim.RunPlanned(inst, NewNonOptimized())
		if err != nil {
			t.Fatal(err)
		}
		if ms := sn.MaxStretch(inst); ms > opt*1.35 {
			t.Fatalf("seed %d: non-optimised degradation %v", seed, ms/opt)
		}
	}
}

func TestBender98ExpandedDeadlines(t *testing.T) {
	// Single arrival wave: Bender98 with α=1 equals EDF at the optimal
	// stretch; with the default √∆ the deadlines are looser but the
	// schedule must still be valid and complete.
	inst := randomInstance(t, 77, 2, 2, 6)
	pol := NewBender98()
	sched, err := sim.RunList(inst, pol)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(inst, 1e-5); err != nil {
		t.Fatal(err)
	}
	// α override is honoured.
	tight := &Bender98{Alpha: 1}
	s2, err := sim.RunList(inst, tight)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Validate(inst, 1e-5); err != nil {
		t.Fatal(err)
	}
}

// TestBender98WeakerThanOnline reproduces the paper's observation that the
// guaranteed Bender heuristics lose to the LP-based online heuristics on
// max-stretch (in aggregate).
func TestBender98WeakerThanOnline(t *testing.T) {
	var bender, online float64
	for seed := int64(50); seed < 60; seed++ {
		inst := randomInstance(t, seed, 2, 2, 7)
		sb, err := sim.RunList(inst, NewBender98())
		if err != nil {
			t.Fatal(err)
		}
		so, err := sim.RunPlanned(inst, New(Plain))
		if err != nil {
			t.Fatal(err)
		}
		bender += sb.MaxStretch(inst)
		online += so.MaxStretch(inst)
	}
	if bender < online*(1-1e-9) {
		t.Fatalf("Bender98 aggregate max-stretch %v beat Online %v", bender, online)
	}
}

// TestEGDFRanksStableAcrossCompletions: after one arrival wave, EGDF ranks
// the jobs once and completes them in that order; the small job must not
// finish last. It checks the completion order only. That completions do
// not re-solve is TestMissedArrivalIntoRecycledSlotResolves's last step.
func TestEGDFRanksStableAcrossCompletions(t *testing.T) {
	jobs := []model.Job{
		{Release: 0, Size: 3, Databank: 0},
		{Release: 0, Size: 1, Databank: 0},
		{Release: 0, Size: 2, Databank: 0},
	}
	p, err := model.Uniform([]float64{1})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := model.NewInstance(p, jobs)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEGDF()
	sched, err := sim.RunList(inst, e)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(inst, 1e-6); err != nil {
		t.Fatal(err)
	}
	// Sanity: the small job should not be last.
	if sched.Completion[1] >= sched.Completion[0] {
		t.Fatalf("completions = %v", sched.Completion)
	}
}

func TestPlanEmptyContext(t *testing.T) {
	inst := randomInstance(t, 99, 1, 1, 1)
	h := New(Plain)
	h.Init(inst)
	plan, err := h.Plan(&sim.Ctx{
		Inst:      inst,
		Remaining: []float64{0},
		Released:  []bool{true},
		Done:      []bool{true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.PerMachine[0]) != 0 {
		t.Fatal("plan for finished instance not empty")
	}
}

func TestLastStretchExposed(t *testing.T) {
	inst := randomInstance(t, 123, 1, 1, 4)
	h := New(Plain)
	if _, err := sim.RunPlanned(inst, h); err != nil {
		t.Fatal(err)
	}
	if h.LastStretch() <= 0 {
		t.Fatalf("LastStretch = %v", h.LastStretch())
	}
}

func TestMaxStretchMonotoneVsOffline(t *testing.T) {
	// The online S* after the final arrival is a lower bound on what the
	// online run can achieve, and the offline optimum lower-bounds both.
	inst := randomInstance(t, 31, 2, 2, 5)
	opt, err := offline.Optimal(inst)
	if err != nil {
		t.Fatal(err)
	}
	h := New(Plain)
	sched, err := sim.RunPlanned(inst, h)
	if err != nil {
		t.Fatal(err)
	}
	got := sched.MaxStretch(inst)
	if got < opt*(1-1e-4) {
		t.Fatalf("online %v below offline optimum %v", got, opt)
	}
	if got < h.LastStretch()*(1-1e-4) {
		t.Fatalf("online result %v below its own final bound %v", got, h.LastStretch())
	}
	if math.IsNaN(got) {
		t.Fatal("NaN max-stretch")
	}
}

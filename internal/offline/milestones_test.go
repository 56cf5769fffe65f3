package offline

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"stretchsched/internal/model"
)

// TestMilestoneCountBound checks the paper's counting argument (§4.3.1):
// there are at most n(n−1)/2 deadline/release milestones plus n(n−1)/2
// deadline/deadline milestones, i.e. nq ≤ n²−n distinct milestones.
func TestMilestoneCountBound(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		jobs := make([]model.Job, n)
		for j := range jobs {
			jobs[j] = model.Job{
				Release:  rng.Float64() * 10,
				Size:     0.2 + rng.Float64()*3,
				Databank: 0,
			}
		}
		p, err := model.Uniform([]float64{1})
		if err != nil {
			return false
		}
		inst, err := model.NewInstance(p, jobs)
		if err != nil {
			return false
		}
		prob := FromInstance(inst)
		ms := prob.Milestones(0, math.Inf(1))
		return len(ms) <= n*n-n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestIntervalStructureAtMilestoneBoundaries: strictly inside a milestone
// interval the number of epochal intervals is constant; probing three
// points inside the same bracket must agree.
func TestIntervalStructureStableInsideBracket(t *testing.T) {
	rng := rand.New(rand.NewSource(419))
	for trial := 0; trial < 10; trial++ {
		inst := randomInstance(t, rng, 1+rng.Intn(2), 1+rng.Intn(2), 3+rng.Intn(4))
		prob := FromInstance(inst)
		ms := prob.Milestones(0, 50)
		if len(ms) < 2 {
			continue
		}
		k := rng.Intn(len(ms) - 1)
		lo, hi := ms[k], ms[k+1]
		n1 := len(prob.Intervals(lo + (hi-lo)*0.25))
		n2 := len(prob.Intervals(lo + (hi-lo)*0.5))
		n3 := len(prob.Intervals(lo + (hi-lo)*0.75))
		if n1 != n2 || n2 != n3 {
			t.Fatalf("trial %d: interval count changed inside bracket (%d,%d): %d %d %d",
				trial, k, k+1, n1, n2, n3)
		}
	}
}

// TestFeasibleAllocLateBias: the latest-fit allocation places the weighted
// centre of mass of the work no earlier than the earliest-fit one.
func TestFeasibleAllocLateBias(t *testing.T) {
	rng := rand.New(rand.NewSource(421))
	for trial := 0; trial < 10; trial++ {
		inst := randomInstance(t, rng, 1+rng.Intn(2), 1, 3+rng.Intn(4))
		prob := FromInstance(inst)
		var s Solver
		sol, err := s.OptimalStretch(prob)
		if err != nil {
			t.Fatal(err)
		}
		f := sol.Stretch * (1 + 1e-9)
		centre := func(a *Alloc) float64 {
			num, den := 0.0, 0.0
			for ti := range a.Work {
				mid := (a.Bounds[ti] + a.Bounds[ti+1]) / 2
				for i := range a.Work[ti] {
					for _, w := range a.Work[ti][i] {
						num += w * mid
						den += w
					}
				}
			}
			if den == 0 {
				return 0
			}
			return num / den
		}
		early, err := prob.FeasibleAlloc(f, false)
		if err != nil {
			t.Fatal(err)
		}
		checkAlloc(t, early)
		// Both allocations share prob's latest-fit slot: read the early one
		// before the late one overwrites it.
		earlyCentre := centre(early)
		late, err := prob.FeasibleAlloc(f, true)
		if err != nil {
			t.Fatal(err)
		}
		if lateCentre := centre(late); lateCentre < earlyCentre-1e-9 {
			t.Fatalf("trial %d: late centre %v earlier than early centre %v",
				trial, lateCentre, earlyCentre)
		}
		checkAlloc(t, late)
	}
}

// TestFeasibleAllocInfeasible returns an error below the optimum.
func TestFeasibleAllocInfeasible(t *testing.T) {
	inst := uniInstance(t, []float64{1}, []model.Job{
		{Release: 0, Size: 2, Databank: 0},
		{Release: 0, Size: 2, Databank: 0},
	})
	prob := FromInstance(inst)
	if _, err := prob.FeasibleAlloc(1.0, true); err == nil {
		t.Fatal("stretch 1 should be infeasible for two simultaneous jobs")
	}
}

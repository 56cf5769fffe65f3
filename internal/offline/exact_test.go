package offline

import (
	"math"
	"math/rand"
	"testing"

	"stretchsched/internal/model"
	"stretchsched/internal/rat"
	"stretchsched/internal/workload"
)

// TestExactModeRandomCrossValidation: on random restricted-availability
// instances, the exact rational System (1) refinement and the float Newton
// phase agree to 1e-9, the exact optimum is feasible, and anything visibly
// below it is infeasible — the paper's §5.3 precision anomaly cannot occur
// in exact mode by construction.
func TestExactModeRandomCrossValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	for trial := 0; trial < 8; trial++ {
		inst := randomInstance(t, rng, 1+rng.Intn(2), 1+rng.Intn(2), 2+rng.Intn(4))
		prob := FromInstance(inst)

		// The float solve runs on its own problem: a second solve on prob
		// would overwrite its result in prob's solution slot.
		var fast Solver
		fsol, err := fast.OptimalStretch(FromInstance(inst))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		exact := Solver{Exact: true}
		esol, err := exact.OptimalStretch(prob)
		if err != nil {
			t.Fatalf("trial %d exact: %v", trial, err)
		}
		if math.Abs(fsol.Stretch-esol.Stretch) > 1e-9*math.Max(1, esol.Stretch) {
			t.Fatalf("trial %d: float %v vs exact %v", trial, fsol.Stretch, esol.Stretch)
		}
		if esol.ExactStretch.Sign() <= 0 {
			t.Fatalf("trial %d: exact stretch %v not positive", trial, esol.ExactStretch)
		}
		if !prob.Feasible(esol.Stretch * (1 + 1e-9)) {
			t.Fatalf("trial %d: exact optimum infeasible", trial)
		}
		if esol.Stretch > prob.LowerBound()*(1+1e-9) && prob.Feasible(esol.Stretch*(1-1e-5)) {
			t.Fatalf("trial %d: exact optimum not minimal", trial)
		}
		// The witness allocation of the exact mode must be valid too.
		checkAlloc(t, esol.Alloc)
	}
}

// TestExactWorkspaceMatchesFresh: the exact path on one shared workspace —
// cut network, float and rational graphs, construction scratch — produces
// bit-identical results to problems on fresh private workspaces, across
// interleaved instance sizes (so grown and shrunk scratch is exercised in
// both directions).
func TestExactWorkspaceMatchesFresh(t *testing.T) {
	ws := NewWorkspace()
	exact := Solver{Exact: true}
	for i, nJobs := range []int{8, 3, 10, 2, 6} {
		inst := plannerTestInstance(t, 700+int64(i), nJobs)
		fsol, err := exact.OptimalStretch(FromInstance(inst))
		if err != nil {
			t.Fatal(err)
		}
		psol, err := exact.OptimalStretch(ws.FromInstance(inst))
		if err != nil {
			t.Fatal(err)
		}
		if psol.ExactStretch.Cmp(fsol.ExactStretch) != 0 {
			t.Fatalf("jobs=%d: pooled exact stretch %v, fresh %v",
				nJobs, psol.ExactStretch, fsol.ExactStretch)
		}
		if psol.Stretch != fsol.Stretch {
			t.Fatalf("jobs=%d: pooled stretch %v, fresh %v", nJobs, psol.Stretch, fsol.Stretch)
		}
		if len(psol.Alloc.Bounds) != len(fsol.Alloc.Bounds) {
			t.Fatalf("jobs=%d: bounds %d pooled vs %d fresh",
				nJobs, len(psol.Alloc.Bounds), len(fsol.Alloc.Bounds))
		}
		for b := range fsol.Alloc.Bounds {
			if fsol.Alloc.Bounds[b] != psol.Alloc.Bounds[b] {
				t.Fatalf("jobs=%d: bound %d differs", nJobs, b)
			}
		}
	}
}

// TestExactSmallDataSteadyStateAllocs is the small-value-regime acceptance
// of the small-rational backend: on an instance whose releases, sizes and
// speeds are small integers, every rational the exact System (1) solve
// touches fits rat's inline int64 form, and a warmed-up workspace-backed
// exact solve must therefore not allocate at all — the exact analogue of
// TestRunPlannedOfflineSteadyStateAllocs.
func TestExactSmallDataSteadyStateAllocs(t *testing.T) {
	inst := uniInstance(t, []float64{1}, []model.Job{
		{Release: 0, Size: 4, Databank: 0},
		{Release: 2, Size: 2, Databank: 0},
	})
	ws := NewWorkspace()
	exact := Solver{Exact: true}
	if _, err := exact.OptimalStretch(ws.FromInstance(inst)); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(30, func() {
		if _, err := exact.OptimalStretch(ws.FromInstance(inst)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state exact solve allocates %.1f objects/op, want 0", allocs)
	}
}

// TestExactFloatHeavySteadyStateAllocs is the float-heavy counterpart of
// TestExactSmallDataSteadyStateAllocs and the CI gate of the medium tier:
// on generator instances (full-mantissa processing times, heterogeneous
// speeds) the exact System (1) coefficients overflow the int64 small form
// in nearly every pivot product, and before the 128-bit medium tier each
// of those escaped to an allocating big.Rat — ~10^5 allocations per solve
// at this size. With the medium tier absorbing them, a warmed-up
// workspace-backed solve performs only the residual big escapes and the
// medium→float materialisations of the solution vector. The bound has
// ~5× headroom over the measured steady state (~850); losing the medium
// tier regresses it by two orders of magnitude, so a creeping escape
// leak fails here long before it shows in the nightly grid.
func TestExactFloatHeavySteadyStateAllocs(t *testing.T) {
	inst, err := workload.Config{
		Sites: 3, Databanks: 3, Availability: 0.6, Density: 1.5,
		TargetJobs: 15, SizeRange: [2]float64{10, 200}, Seed: 4242,
	}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWorkspace()
	exact := Solver{Exact: true}
	if _, err := exact.OptimalStretch(ws.FromInstance(inst)); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := exact.OptimalStretch(ws.FromInstance(inst)); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 5000
	if allocs > budget {
		t.Fatalf("steady-state float-heavy exact solve allocates %.0f objects/op, budget %d",
			allocs, budget)
	}
}

// TestExactOracleMatchesCut: System (1) on the certified rational simplex
// — the oracle of the parametric cut — agrees with the cut on the exact
// optimal stretch, not within a tolerance but as identical rationals,
// across random instances. The witness allocations may differ (degenerate
// optima have many vertices, and the cut's witness is a flow), but both
// must be valid.
func TestExactOracleMatchesCut(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	for trial := 0; trial < 8; trial++ {
		inst := randomInstance(t, rng, 1+rng.Intn(2), 1+rng.Intn(2), 2+rng.Intn(5))

		osol, err := OracleStretch(FromInstance(inst))
		if err != nil {
			t.Fatalf("trial %d oracle: %v", trial, err)
		}
		exact := Solver{Exact: true}
		csol, err := exact.OptimalStretch(FromInstance(inst))
		if err != nil {
			t.Fatalf("trial %d cut: %v", trial, err)
		}
		if csol.ExactStretch.Cmp(osol.ExactStretch) != 0 {
			t.Fatalf("trial %d: oracle stretch %v, cut %v", trial, osol.ExactStretch, csol.ExactStretch)
		}
		checkAlloc(t, osol.Alloc)
		checkAlloc(t, csol.Alloc)
	}
}

// TestExactStretchIsRational: the exact solver returns the optimum as a
// true rational, and its float projection matches Stretch.
func TestExactStretchIsRational(t *testing.T) {
	inst := uniInstance(t, []float64{1}, []model.Job{
		{Release: 0, Size: 1.0 / 3, Databank: 0},
		{Release: 0.1, Size: 1.0 / 7, Databank: 0},
		{Release: 0.2, Size: 1.0 / 11, Databank: 0},
	})
	exact := Solver{Exact: true}
	sol, err := exact.OptimalStretch(FromInstance(inst))
	if err != nil {
		t.Fatal(err)
	}
	if got := sol.ExactStretch.Float(); math.Abs(got-sol.Stretch) > 1e-12 {
		t.Fatalf("rational %v vs float %v", got, sol.Stretch)
	}
	if sol.ExactStretch.Cmp(rat.One) < 0 {
		t.Fatalf("stretch below 1: %v", sol.ExactStretch)
	}
}

// BenchmarkExactOracle times the exact refinement against the System (1)
// linear program it replaced, which stays as its test oracle on the
// certified rational simplex, on the paper's 3-site shape.
func BenchmarkExactOracle(b *testing.B) {
	inst, err := workload.Config{
		Sites: 3, Databanks: 3, Availability: 0.6, Density: 1.5,
		TargetJobs: 8, SizeRange: [2]float64{10, 200}, Seed: 20_06,
	}.Generate()
	if err != nil {
		b.Fatal(err)
	}
	prob := FromInstance(inst)
	b.Run("cut", func(b *testing.B) {
		s := Solver{Exact: true}
		for i := 0; i < b.N; i++ {
			if _, err := s.OptimalStretch(prob); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lp-revised", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := OracleStretch(prob); err != nil {
				b.Fatal(err)
			}
		}
	})
}

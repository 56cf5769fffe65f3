package lp

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"stretchsched/internal/rat"
)

// TestRevisedSimpleMax ports the canonical tableau test to the revised
// solver: max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18 → x=2, y=6.
func TestRevisedSimpleMax(t *testing.T) {
	p := f64Prob(2)
	p.SetMaximize(true)
	p.SetObjectiveCoef(0, 3)
	p.SetObjectiveCoef(1, 5)
	p.AddDense([]float64{1, 0}, LE, 4)
	p.AddDense([]float64{0, 2}, LE, 12)
	p.AddDense([]float64{3, 2}, LE, 18)
	sol, err := p.SolveRevised()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-36) > 1e-7 {
		t.Fatalf("obj = %v, want 36", sol.Objective)
	}
	if math.Abs(sol.X[0]-2) > 1e-7 || math.Abs(sol.X[1]-6) > 1e-7 {
		t.Fatalf("x = %v, want [2 6]", sol.X)
	}
}

// TestRevisedStatuses checks the three non-optimal outcomes surface with
// both the right Status and the right typed sentinel.
func TestRevisedStatuses(t *testing.T) {
	inf := f64Prob(1)
	inf.AddDense([]float64{1}, LE, 1)
	inf.AddDense([]float64{1}, GE, 2)
	sol, err := inf.SolveRevised()
	if sol.Status != Infeasible || !errors.Is(err, ErrInfeasible) || !errors.Is(err, ErrNotOptimal) {
		t.Fatalf("status = %v err = %v", sol.Status, err)
	}

	unb := f64Prob(1)
	unb.SetMaximize(true)
	unb.SetObjectiveCoef(0, 1)
	unb.AddDense([]float64{-1}, LE, 0)
	sol, err = unb.SolveRevised()
	if sol.Status != Unbounded || !errors.Is(err, ErrUnbounded) || !errors.Is(err, ErrNotOptimal) {
		t.Fatalf("status = %v err = %v", sol.Status, err)
	}

	// Sentinels are distinguishable from each other.
	if errors.Is(ErrInfeasible, ErrUnbounded) || errors.Is(ErrUnbounded, ErrIterLimit) {
		t.Fatal("typed sentinels alias each other")
	}
}

// TestRevisedEqualityAndNegativeRHS exercises row sign normalisation and
// equality rows (no slack column) together.
func TestRevisedEqualityAndNegativeRHS(t *testing.T) {
	p := f64Prob(2)
	p.SetObjectiveCoef(0, 1)
	p.SetObjectiveCoef(1, 1)
	p.AddDense([]float64{1, 2}, EQ, 4)
	p.AddDense([]float64{-1, 1}, LE, -1) // x - y >= 1 in disguise
	sol, err := p.SolveRevised()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.X[0]-2) > 1e-7 || math.Abs(sol.X[1]-1) > 1e-7 {
		t.Fatalf("x = %v, want [2 1]", sol.X)
	}
}

// TestRevisedRedundantRows: dependent equalities leave artificials parked
// in dependent rows; the optimum must be unaffected.
func TestRevisedRedundantRows(t *testing.T) {
	p := f64Prob(2)
	p.SetObjectiveCoef(0, 1)
	p.SetObjectiveCoef(1, 1)
	p.AddDense([]float64{1, 1}, EQ, 3)
	p.AddDense([]float64{2, 2}, EQ, 6)
	p.AddDense([]float64{1, 1}, EQ, 3)
	sol, err := p.SolveRevised()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-3) > 1e-7 {
		t.Fatalf("obj = %v, want 3", sol.Objective)
	}
}

// TestRevisedDegenerateBealeExact is the anti-cycling regression the typed
// IterLimit error exists for: Beale's classic cycling LP, solved in exact
// rational arithmetic where no tolerance can break ties — under pure
// Dantzig pricing this instance cycles forever; the degeneracy-streak
// Bland fallback must terminate it at the true optimum, never IterLimit.
func TestRevisedDegenerateBealeExact(t *testing.T) {
	build := func() *Problem[rat.Rat] {
		p := ratProb(4)
		p.SetObjectiveCoef(0, rat.FromFrac(-3, 4))
		p.SetObjectiveCoef(1, rat.FromInt(150))
		p.SetObjectiveCoef(2, rat.FromFrac(-1, 50))
		p.SetObjectiveCoef(3, rat.FromInt(6))
		p.AddDense([]rat.Rat{rat.FromFrac(1, 4), rat.FromInt(-60), rat.FromFrac(-1, 25), rat.FromInt(9)}, LE, rat.Zero)
		p.AddDense([]rat.Rat{rat.FromFrac(1, 2), rat.FromInt(-90), rat.FromFrac(-1, 50), rat.FromInt(3)}, LE, rat.Zero)
		p.AddDense([]rat.Rat{rat.Zero, rat.Zero, rat.One, rat.Zero}, LE, rat.One)
		return p
	}
	want := rat.FromFrac(-1, 20)
	for name, solve := range map[string]func(*Problem[rat.Rat]) (*Solution[rat.Rat], error){
		"revised": (*Problem[rat.Rat]).SolveRevised,
		"dense":   (*Problem[rat.Rat]).Solve,
	} {
		sol, err := solve(build())
		if err != nil {
			if errors.Is(err, ErrIterLimit) {
				t.Fatalf("%s: cycled into the iteration limit: %v", name, err)
			}
			t.Fatalf("%s: %v", name, err)
		}
		if !sol.Objective.Equal(want) {
			t.Fatalf("%s: obj = %v, want -1/20", name, sol.Objective)
		}
	}
}

// TestRevisedMatchesDenseRandom cross-checks the two solvers over the
// shared random generator on the float backend.
func TestRevisedMatchesDenseRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 60; trial++ {
		nvars := 2 + rng.Intn(5)
		ncons := 1 + rng.Intn(5)
		c, a, b, u := randomLP(rng, nvars, ncons)
		build := func() *Problem[float64] {
			p := f64Prob(nvars)
			for i := 0; i < nvars; i++ {
				p.SetObjectiveCoef(i, c[i])
				bound := make([]float64, nvars)
				bound[i] = 1
				p.AddDense(bound, LE, u)
			}
			for r := range a {
				p.AddDense(a[r], LE, b[r])
			}
			return p
		}
		ds, derr := build().Solve()
		rs, rerr := build().SolveRevised()
		if (derr == nil) != (rerr == nil) || ds.Status != rs.Status {
			t.Fatalf("trial %d: dense (%v, %v) vs revised (%v, %v)",
				trial, ds.Status, derr, rs.Status, rerr)
		}
		if derr != nil {
			continue
		}
		if math.Abs(ds.Objective-rs.Objective) > 1e-6*(1+math.Abs(ds.Objective)) {
			t.Fatalf("trial %d: dense obj %v vs revised %v", trial, ds.Objective, rs.Objective)
		}
	}
}

// TestRevisedRationalExactness mirrors TestRationalExactness: exact
// fractions out of the revised path.
func TestRevisedRationalExactness(t *testing.T) {
	p := ratProb(2)
	p.SetMaximize(true)
	p.SetObjectiveCoef(0, rat.One)
	p.SetObjectiveCoef(1, rat.One)
	p.AddDense([]rat.Rat{rat.FromInt(3), rat.One}, LE, rat.One)
	p.AddDense([]rat.Rat{rat.One, rat.FromInt(3)}, LE, rat.One)
	sol, err := p.SolveRevised()
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Objective.Equal(rat.FromFrac(1, 2)) {
		t.Fatalf("obj = %v, want 1/2", sol.Objective)
	}
	if !sol.X[0].Equal(rat.FromFrac(1, 4)) || !sol.X[1].Equal(rat.FromFrac(1, 4)) {
		t.Fatalf("x = %v", sol.X)
	}
}

// TestRevisedRefactorisation forces many pivots through a chain problem so
// the eta file crosses revisedRefactorEvery repeatedly, and checks the
// solution against the dense oracle — the refactorisation path's
// correctness certificate.
func TestRevisedRefactorisation(t *testing.T) {
	const n = 90 // > revisedRefactorEvery pivots guaranteed
	build := func() *Problem[rat.Rat] {
		p := ratProb(n)
		p.SetMaximize(true)
		vs := []int{0}
		cs := []rat.Rat{rat.One}
		for v := 0; v < n; v++ {
			p.SetObjectiveCoef(v, rat.FromInt(int64(1+v%7)))
			vs[0], cs[0] = v, rat.One
			p.AddSparse(vs, cs, LE, rat.FromInt(int64(2+v%5)))
		}
		// Chain couplings x_v + x_{v+1} <= k keep pivots coming.
		for v := 0; v+1 < n; v++ {
			p.AddSparse([]int{v, v + 1}, []rat.Rat{rat.One, rat.One}, LE, rat.FromInt(int64(3+v%4)))
		}
		return p
	}
	ds, err := build().Solve()
	if err != nil {
		t.Fatal(err)
	}
	rv := &revised[rat.Rat]{}
	rv.init(build())
	rs := rv.solve()
	if err := rs.Status.Err(); err != nil {
		t.Fatal(err)
	}
	if !rs.Objective.Equal(ds.Objective) {
		t.Fatalf("revised obj %v, dense %v", rs.Objective, ds.Objective)
	}
	if rs.Iterations <= revisedRefactorEvery {
		t.Fatalf("only %d iterations; refactorisation never exercised", rs.Iterations)
	}
	// Cadence guards. The trigger is nnz-based (appended eta nonzeros
	// outweighing the fresh factorisation, see shouldRefactor) with the eta
	// cap as backstop, so the bound here is anti-thrash, not a fixed
	// interval: a rebuild's own etas count into sinceRefac and its nonzeros
	// into the file while it runs, and forgetting to reset the counters
	// *after* the rebuild made the solver refactorise almost every
	// iteration on any paper-scale basis. A healthy cadence needs at least
	// a handful of pivots between rebuilds.
	if rv.refacs == 0 {
		t.Fatal("refactorisation never triggered")
	}
	if max := rs.Iterations/4 + 1; rv.refacs > max {
		t.Fatalf("%d refactorisations in %d iterations (want ≤ %d: the cadence is thrashing)",
			rv.refacs, rs.Iterations, max)
	}
}

// TestRevisedExactSmallRationalAllocs: on small-integer rational data every
// value the exact revised path touches stays in rat's inline int64 form, so
// an exact solve allocates exactly what the float64 solve of the same
// program does — its per-solve state and result — and its iterations
// nothing beyond that.
func TestRevisedExactSmallRationalAllocs(t *testing.T) {
	fp := New[float64](NewFloat64Ops(), 6)
	rp := New[rat.Rat](RatOps{}, 6)
	fp.SetMaximize(true)
	rp.SetMaximize(true)
	fcoef := make([]float64, 6)
	rcoef := make([]rat.Rat, 6)
	for v := 0; v < 6; v++ {
		fp.SetObjectiveCoef(v, float64(v+1))
		rp.SetObjectiveCoef(v, rat.FromInt(int64(v+1)))
		for i := range fcoef {
			fcoef[i], rcoef[i] = 0, rat.Zero
		}
		fcoef[v], rcoef[v] = 1, rat.One
		fp.AddDense(fcoef, LE, 10)
		rp.AddDense(rcoef, LE, rat.FromInt(10))
	}
	for i := range fcoef {
		fcoef[i], rcoef[i] = 1, rat.One
	}
	fp.AddDense(fcoef, LE, 20)
	rp.AddDense(rcoef, LE, rat.FromInt(20))

	fsol, err := fp.SolveRevised()
	if err != nil {
		t.Fatal(err)
	}
	rsol, err := rp.SolveRevised()
	if err != nil {
		t.Fatal(err)
	}
	if rsol.Objective.Float() != fsol.Objective || rsol.Iterations != fsol.Iterations {
		t.Fatalf("exact (%v, %d iterations), float (%v, %d)",
			rsol.Objective, rsol.Iterations, fsol.Objective, fsol.Iterations)
	}
	floatAllocs := testing.AllocsPerRun(30, func() {
		if _, err := fp.SolveRevised(); err != nil {
			t.Fatal(err)
		}
	})
	exactAllocs := testing.AllocsPerRun(30, func() {
		if _, err := rp.SolveRevised(); err != nil {
			t.Fatal(err)
		}
	})
	if exactAllocs != floatAllocs {
		t.Fatalf("exact SolveRevised allocates %.1f objects/op, float %.1f: rational values escaped",
			exactAllocs, floatAllocs)
	}
}

// TestStatusErr pins the Status→sentinel mapping.
func TestStatusErr(t *testing.T) {
	if Optimal.Err() != nil {
		t.Fatal("Optimal.Err() != nil")
	}
	for s, want := range map[Status]error{
		Infeasible: ErrInfeasible, Unbounded: ErrUnbounded, IterLimit: ErrIterLimit,
	} {
		err := s.Err()
		if !errors.Is(err, want) || !errors.Is(err, ErrNotOptimal) {
			t.Fatalf("%v.Err() = %v", s, err)
		}
	}
}

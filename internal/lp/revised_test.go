package lp

import (
	"errors"
	"math"
	"slices"
	"testing"

	"stretchsched/internal/rat"
)

// TestRevisedStatuses checks the three non-optimal outcomes surface with
// both the right Status and the right typed sentinel.
func TestRevisedStatuses(t *testing.T) {
	inf := f64Prob(1)
	inf.AddDense([]float64{1}, LE, 1)
	inf.AddDense([]float64{1}, GE, 2)
	sol, err := inf.Solve()
	if sol.Status != Infeasible || !errors.Is(err, ErrInfeasible) || !errors.Is(err, ErrNotOptimal) {
		t.Fatalf("status = %v err = %v", sol.Status, err)
	}

	unb := f64Prob(1)
	unb.SetMaximize(true)
	unb.SetObjectiveCoef(0, 1)
	unb.AddDense([]float64{-1}, LE, 0)
	sol, err = unb.Solve()
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
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.X[0]-2) > 1e-7 || math.Abs(sol.X[1]-1) > 1e-7 {
		t.Fatalf("x = %v, want [2 1]", sol.X)
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
	sol, err := build().Solve()
	if errors.Is(err, ErrIterLimit) {
		t.Fatalf("cycled into the iteration limit: %v", err)
	}
	if err != nil {
		t.Fatal(err)
	}
	if want := rat.FromFrac(-1, 20); !sol.Objective.Equal(want) {
		t.Fatalf("obj = %v, want -1/20", sol.Objective)
	}
}

// TestRevisedRefactorisation forces many pivots through a chain problem so
// the eta file crosses revisedRefactorEvery repeatedly, and checks the
// solution against the chain's known optimum — the refactorisation path's
// correctness certificate.
func TestRevisedRefactorisation(t *testing.T) {
	const n = 90 // > revisedRefactorEvery pivots guaranteed

	w := func(v int) int64 { return int64(1 + v%7) } // objective
	u := func(v int) int64 { return int64(2 + v%5) } // x_v ≤ u
	k := func(v int) int64 { return int64(3 + v%4) } // x_v + x_{v+1} ≤ k
	p := ratProb(n)
	p.SetMaximize(true)
	vs := []int{0}
	cs := []rat.Rat{rat.One}
	for v := 0; v < n; v++ {
		p.SetObjectiveCoef(v, rat.FromInt(w(v)))
		vs[0], cs[0] = v, rat.One
		p.AddSparse(vs, cs, LE, rat.FromInt(u(v)))
	}
	// Chain couplings x_v + x_{v+1} <= k keep pivots coming.
	for v := 0; v+1 < n; v++ {
		p.AddSparse([]int{v, v + 1}, []rat.Rat{rat.One, rat.One}, LE, rat.FromInt(k(v)))
	}
	// Each row's ones are consecutive in the variables, so the matrix is
	// totally unimodular and the optimum is integral: a dynamic program
	// over x_v ∈ {0..u} finds it. best[x] is the best value of x_0..x_v
	// with x_v = x, or MinInt64 when no feasible prefix ends at x.
	best := []int64{0} // the empty prefix
	for v := 0; v < n; v++ {
		next := make([]int64, u(v)+1)
		for x := range next {
			next[x] = math.MinInt64
			for px, b := range best {
				if b != math.MinInt64 && (v == 0 || int64(px+x) <= k(v-1)) {
					next[x] = max(next[x], b+w(v)*int64(x))
				}
			}
		}
		best = next
	}
	want := slices.Max(best)

	rv := &revised[rat.Rat]{}
	rv.init(p)
	rs := rv.solve()
	if err := rs.Status.Err(); err != nil {
		t.Fatal(err)
	}
	if err := p.certify(&rs, rv.multipliers()); err != nil {
		t.Fatal(err)
	}
	if !rs.Objective.Equal(rat.FromInt(want)) {
		t.Fatalf("obj %v, want %d", rs.Objective, want)
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

	fsol, err := fp.Solve()
	if err != nil {
		t.Fatal(err)
	}
	rsol, err := rp.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if rsol.Objective.Float() != fsol.Objective || rsol.Iterations != fsol.Iterations {
		t.Fatalf("exact (%v, %d iterations), float (%v, %d)",
			rsol.Objective, rsol.Iterations, fsol.Objective, fsol.Iterations)
	}
	floatAllocs := testing.AllocsPerRun(30, func() {
		if _, err := fp.Solve(); err != nil {
			t.Fatal(err)
		}
	})
	exactAllocs := testing.AllocsPerRun(30, func() {
		if _, err := rp.Solve(); err != nil {
			t.Fatal(err)
		}
	})
	if exactAllocs != floatAllocs {
		t.Fatalf("exact Solve allocates %.1f objects/op, float %.1f: rational values escaped",
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

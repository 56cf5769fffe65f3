package lp

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"stretchsched/internal/rat"
)

// TestStrongDuality solves random primal LPs
//
//	min c·x  st  A x >= b, x >= 0
//
// and their explicit duals
//
//	max b·y  st  Aᵀ y <= c, y >= 0
//
// with the same solver. LP strong duality demands equal optima whenever the
// primal has one — an end-to-end correctness certificate for the simplex
// that no single hand-crafted instance provides.
func TestStrongDuality(t *testing.T) {
	rng := rand.New(rand.NewSource(313))
	solved := 0
	for trial := 0; trial < 60; trial++ {
		nvars := 2 + rng.Intn(4)
		ncons := 2 + rng.Intn(4)
		// Nonnegative data keeps both problems feasible and bounded often
		// enough to exercise the equality meaningfully.
		c := make([]float64, nvars)
		for i := range c {
			c[i] = float64(rng.Intn(9) + 1)
		}
		a := make([][]float64, ncons)
		bvec := make([]float64, ncons)
		for r := range a {
			a[r] = make([]float64, nvars)
			for i := range a[r] {
				a[r][i] = float64(rng.Intn(5))
			}
			bvec[r] = float64(rng.Intn(10) + 1)
		}

		primal := New[float64](NewFloat64Ops(), nvars)
		for i := range c {
			primal.SetObjectiveCoef(i, c[i])
		}
		for r := range a {
			primal.AddDense(a[r], GE, bvec[r])
		}
		psol, perr := primal.Solve()

		dual := New[float64](NewFloat64Ops(), ncons)
		dual.SetMaximize(true)
		for r := range bvec {
			dual.SetObjectiveCoef(r, bvec[r])
		}
		for i := 0; i < nvars; i++ {
			col := make([]float64, ncons)
			for r := range a {
				col[r] = a[r][i]
			}
			dual.AddDense(col, LE, c[i])
		}
		dsol, derr := dual.Solve()

		if perr != nil {
			// Primal infeasible (some row has all-zero coefficients with
			// b>0): the dual must then be unbounded or infeasible.
			if derr == nil {
				t.Fatalf("trial %d: primal %v but dual optimal %v",
					trial, psol.Status, dsol.Objective)
			}
			continue
		}
		if derr != nil {
			t.Fatalf("trial %d: primal optimal %v but dual %v", trial, psol.Objective, dsol.Status)
		}
		if math.Abs(psol.Objective-dsol.Objective) > 1e-6*(1+math.Abs(psol.Objective)) {
			t.Fatalf("trial %d: duality gap: primal %v dual %v",
				trial, psol.Objective, dsol.Objective)
		}
		// Complementary slackness spot-check: y_r·(A_r x − b_r) ≈ 0.
		for r := range a {
			slack := -bvec[r]
			for i := range c {
				slack += a[r][i] * psol.X[i]
			}
			if dsol.X[r]*slack > 1e-5*(1+math.Abs(psol.Objective)) {
				t.Fatalf("trial %d: complementary slackness violated at row %d", trial, r)
			}
		}
		solved++
	}
	if solved < 30 {
		t.Fatalf("only %d instances reached optimality; generator too degenerate", solved)
	}
}

// TestMaximizeWithMixedRelations exercises the solver on a maximisation
// with all three relation kinds at once.
func TestMaximizeWithMixedRelations(t *testing.T) {
	// max x + 2y st x + y <= 10, x >= 2, y = 3 → x=7, y=3, obj=13.
	p := New[float64](NewFloat64Ops(), 2)
	p.SetMaximize(true)
	p.SetObjectiveCoef(0, 1)
	p.SetObjectiveCoef(1, 2)
	p.AddDense([]float64{1, 1}, LE, 10)
	p.AddDense([]float64{1, 0}, GE, 2)
	p.AddDense([]float64{0, 1}, EQ, 3)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-13) > 1e-7 {
		t.Fatalf("obj = %v, want 13", sol.Objective)
	}
}

// TestIterationsReported sanity-checks the iteration counter.
func TestIterationsReported(t *testing.T) {
	p := New[float64](NewFloat64Ops(), 2)
	p.SetMaximize(true)
	p.SetObjectiveCoef(0, 1)
	p.SetObjectiveCoef(1, 1)
	p.AddDense([]float64{1, 1}, LE, 1)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Iterations <= 0 {
		t.Fatalf("iterations = %d", sol.Iterations)
	}
}

// TestCertificateRejectsTampering hands certify a solved program with one
// value tampered at a time. The untampered results pass; each tampered
// one fails with ErrCertificate. The optimal program's binding rows are a
// ≤ row and a ≥ row stored negated (negative rhs), whose multiplier the
// mapping back to the problem's rows must flip; the infeasible program's
// multipliers are a Farkas certificate.
func TestCertificateRejectsTampering(t *testing.T) {
	solve := func(p *Problem[rat.Rat]) (Solution[rat.Rat], []rat.Rat) {
		rv := &revised[rat.Rat]{}
		rv.init(p)
		sol := rv.solve()
		return sol, slices.Clone(rv.multipliers())
	}
	one, two := rat.One, rat.FromInt(2)

	// max 3x + 5y st x ≤ 4, 2y ≤ 12, −3x − 2y ≥ −18, x ≥ 1
	// → x = 2, y = 6, objective 36.
	opt := ratProb(2)
	opt.SetMaximize(true)
	opt.SetObjectiveCoef(0, rat.FromInt(3))
	opt.SetObjectiveCoef(1, rat.FromInt(5))
	opt.AddDense([]rat.Rat{one, rat.Zero}, LE, rat.FromInt(4))
	opt.AddDense([]rat.Rat{rat.Zero, two}, LE, rat.FromInt(12))
	opt.AddDense([]rat.Rat{rat.FromInt(-3), two.Neg()}, GE, rat.FromInt(-18))
	opt.AddDense([]rat.Rat{one, rat.Zero}, GE, one)
	sol, y := solve(opt)
	if sol.Status != Optimal || !sol.Objective.Equal(rat.FromInt(36)) {
		t.Fatalf("status %v, objective %v; want optimal 36", sol.Status, sol.Objective)
	}
	if err := opt.certify(&sol, y); err != nil {
		t.Fatalf("untampered optimum: %v", err)
	}
	// In minimisation form the binding rows' multipliers are −3/2 and +1.
	if !y[1].Equal(rat.FromFrac(-3, 2)) || !y[2].Equal(one) {
		t.Fatalf("multipliers %v, want −3/2 on row 1 and 1 on row 2", y)
	}
	tampered := func(name string, sol Solution[rat.Rat], y []rat.Rat) {
		t.Helper()
		if err := opt.certify(&sol, y); !errors.Is(err, ErrCertificate) {
			t.Errorf("%s: err = %v, want ErrCertificate", name, err)
		}
	}
	x := slices.Clone(sol.X)
	x[0] = x[0].Add(one)
	tampered("x entry", Solution[rat.Rat]{Status: Optimal, X: x, Objective: sol.Objective}, y)
	tampered("objective", Solution[rat.Rat]{Status: Optimal, X: sol.X, Objective: sol.Objective.Add(one)}, y)
	flipped := slices.Clone(y)
	flipped[2] = flipped[2].Neg()
	tampered("multiplier sign", sol, flipped)

	// x ≤ 1 and x ≥ 2 have no solution.
	inf := ratProb(1)
	inf.AddDense([]rat.Rat{one}, LE, one)
	inf.AddDense([]rat.Rat{one}, GE, two)
	isol, iy := solve(inf)
	if isol.Status != Infeasible {
		t.Fatalf("status %v, want infeasible", isol.Status)
	}
	if err := inf.certify(&isol, iy); err != nil {
		t.Fatalf("untampered infeasibility: %v", err)
	}
	for r := range iy {
		flipped := slices.Clone(iy)
		flipped[r] = flipped[r].Neg()
		if err := inf.certify(&isol, flipped); !errors.Is(err, ErrCertificate) {
			t.Errorf("Farkas multiplier %d flipped: err = %v, want ErrCertificate", r, err)
		}
	}
}

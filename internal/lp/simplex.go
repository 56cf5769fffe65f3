package lp

import (
	"errors"
	"fmt"
)

// Rel is the relation of a linear constraint.
type Rel int

const (
	LE Rel = iota // Σ a_k x_k ≤ b
	GE            // Σ a_k x_k ≥ b
	EQ            // Σ a_k x_k = b
)

func (r Rel) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	}
	return fmt.Sprintf("Rel(%d)", int(r))
}

// Status is the outcome of a solve.
type Status int

const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterLimit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// ErrNotOptimal is wrapped by Solve when the problem has no optimum. The
// typed sentinels below wrap it and name the concrete non-optimal status,
// so callers can tell an infeasible program from a cycling one:
//
//	errors.Is(err, lp.ErrNotOptimal) // any non-optimal outcome
//	errors.Is(err, lp.ErrInfeasible) // specifically no feasible point
var ErrNotOptimal = errors.New("lp: no optimal solution")

// Typed non-optimal outcomes, each wrapping ErrNotOptimal.
var (
	ErrInfeasible = fmt.Errorf("%w: infeasible", ErrNotOptimal)
	ErrUnbounded  = fmt.Errorf("%w: unbounded", ErrNotOptimal)
	ErrIterLimit  = fmt.Errorf("%w: iteration limit reached", ErrNotOptimal)
)

// Err returns the typed sentinel for a non-optimal status, or nil for
// Optimal.
func (s Status) Err() error {
	switch s {
	case Optimal:
		return nil
	case Infeasible:
		return ErrInfeasible
	case Unbounded:
		return ErrUnbounded
	case IterLimit:
		return ErrIterLimit
	}
	return fmt.Errorf("%w: %v", ErrNotOptimal, s)
}

// constraint is one row Σ coefs[k]·x[vars[k]] rel rhs, stored sparsely.
// Entries may repeat a variable; consumers accumulate. Sparse rows are what
// let both solvers scale: the dense tableau scatters them once into its
// rows, and the revised solver transposes them into sparse columns, so a
// System (1) program with ~95% zeros never materialises its zero entries.
type constraint[T any] struct {
	vars  []int
	coefs []T
	rel   Rel
	rhs   T
}

// Problem is a linear program over nonnegative variables:
//
//	minimise (or maximise)  c·x
//	subject to              A_k · x  {≤,=,≥}  b_k     for every constraint k
//	                        x ≥ 0
//
// All variables are implicitly nonnegative, which matches every program in
// this repository (fractions of work and stretch bounds are nonnegative).
type Problem[T any] struct {
	ops      Ops[T]
	nvars    int
	obj      []T
	maximize bool
	cons     []constraint[T]
}

// New returns an empty problem with nvars nonnegative variables and an
// all-zero minimisation objective.
func New[T any](ops Ops[T], nvars int) *Problem[T] {
	if nvars < 0 {
		panic("lp: negative variable count")
	}
	obj := make([]T, nvars)
	for i := range obj {
		obj[i] = ops.Zero()
	}
	return &Problem[T]{ops: ops, nvars: nvars, obj: obj}
}

// NumVars returns the number of variables.
func (p *Problem[T]) NumVars() int { return p.nvars }

// NumConstraints returns the number of constraints added so far.
func (p *Problem[T]) NumConstraints() int { return len(p.cons) }

// SetObjectiveCoef sets the objective coefficient of variable v.
func (p *Problem[T]) SetObjectiveCoef(v int, c T) {
	p.obj[v] = c
}

// SetMaximize switches the problem to maximisation (default is minimisation).
func (p *Problem[T]) SetMaximize(maximize bool) { p.maximize = maximize }

// appendCon extends p.cons by one empty constraint and returns it.
func (p *Problem[T]) appendCon() *constraint[T] {
	p.cons = append(p.cons, constraint[T]{})
	return &p.cons[len(p.cons)-1]
}

// AddDense adds the constraint coef·x rel rhs. coef may be shorter than the
// variable count; missing coefficients are zero. Only entries with nonzero
// Sign are stored; the slice is not retained.
func (p *Problem[T]) AddDense(coef []T, rel Rel, rhs T) {
	if len(coef) > p.nvars {
		panic("lp: constraint wider than variable count")
	}
	c := p.appendCon()
	for v, val := range coef {
		if p.ops.Sign(val) != 0 {
			c.vars = append(c.vars, v)
			c.coefs = append(c.coefs, val)
		}
	}
	c.rel, c.rhs = rel, rhs
}

// AddSparse adds the constraint Σ coefs[k]·x[vars[k]] rel rhs. A variable
// may appear more than once; its coefficients accumulate. The slices are
// not retained.
func (p *Problem[T]) AddSparse(vars []int, coefs []T, rel Rel, rhs T) {
	if len(vars) != len(coefs) {
		panic("lp: vars/coefs length mismatch")
	}
	c := p.appendCon()
	for k, v := range vars {
		if v < 0 || v >= p.nvars {
			panic("lp: variable index out of range")
		}
		if p.ops.Sign(coefs[k]) != 0 {
			c.vars = append(c.vars, v)
			c.coefs = append(c.coefs, coefs[k])
		}
	}
	c.rel, c.rhs = rel, rhs
}

// Solution is the result of a successful solve.
type Solution[T any] struct {
	Status     Status
	X          []T // variable values, length NumVars
	Objective  T   // objective value in the problem's own sense
	Iterations int
}

// Solve runs the two-phase primal simplex method on a dense tableau and
// returns the optimal solution, or an error wrapping ErrNotOptimal (with
// the non-optimal Solution) if the problem is infeasible or unbounded.
// Every solve allocates its own tableau, and the Solution is the caller's.
func (p *Problem[T]) Solve() (*Solution[T], error) {
	sol := newTableau(p).solve()
	return &sol, sol.Status.Err()
}

// tableau is the dense simplex working state in standard equality form
// min c·x, Ax = b, x ≥ 0 with b ≥ 0.
type tableau[T any] struct {
	ops   Ops[T]
	prob  *Problem[T]
	m, n  int   // rows, structural+slack columns (artificials after n)
	a     [][]T // m rows × (n + nart) coefficient matrix
	b     []T   // m, right-hand sides (kept ≥ 0)
	basis []int // m, column index basic in each row
	z     []T   // reduced-cost scratch of optimize
	nart  int
	iters int
}

const maxIterFactor = 200 // iteration cap = maxIterFactor * (m + n)

// newTableau scatters p's sparse rows into a fresh tableau.
//
//stretch:noalloc
func newTableau[T any](p *Problem[T]) *tableau[T] {
	ops := p.ops
	m := len(p.cons)
	nSlack := 0
	for _, c := range p.cons {
		if c.rel != EQ {
			nSlack++
		}
	}
	n := p.nvars + nSlack
	t := &tableau[T]{ops: ops, prob: p, m: m, n: n} //stretch:alloc-ok — per-solve state
	t.a = make([][]T, m)                            //stretch:alloc-ok — per-solve state
	t.b = make([]T, m)                              //stretch:alloc-ok — per-solve state
	t.basis = make([]int, m)                        //stretch:alloc-ok — per-solve state

	// Rows are sized to the full phase-1 width n+m up front, with the
	// artificial columns zeroed, so solve() fills them in place instead of
	// appending.
	width := n + m
	slack := p.nvars
	for r := range p.cons {
		c := &p.cons[r]
		row := make([]T, width) //stretch:alloc-ok — per-solve state
		for j := range row {
			row[j] = ops.Zero()
		}
		for k, v := range c.vars {
			row[v] = ops.Add(row[v], c.coefs[k])
		}
		rhs := c.rhs
		switch c.rel {
		case LE:
			row[slack] = ops.One()
			slack++
		case GE:
			row[slack] = ops.Neg(ops.One())
			slack++
		}
		// Normalise to rhs ≥ 0 so phase 1 can start from the artificials.
		if ops.Sign(rhs) < 0 {
			for j := range row {
				row[j] = ops.Neg(row[j])
			}
			rhs = ops.Neg(rhs)
		}
		t.a[r] = row
		t.b[r] = rhs
	}
	return t
}

//stretch:noalloc
func (t *tableau[T]) solve() Solution[T] {
	ops := t.ops

	// Phase 1: one artificial per row (columns pre-zeroed by newTableau),
	// minimise their sum.
	t.nart = t.m
	for r := 0; r < t.m; r++ {
		t.a[r][t.n+r] = ops.One()
		t.basis[r] = t.n + r
	}
	phase1Obj := make([]T, t.n+t.nart) //stretch:alloc-ok — per-solve buffer
	for j := 0; j < t.n; j++ {
		phase1Obj[j] = ops.Zero()
	}
	for j := t.n; j < t.n+t.nart; j++ {
		phase1Obj[j] = ops.One()
	}
	status, val := t.optimize(phase1Obj)
	if status != Optimal {
		return Solution[T]{Status: status, Iterations: t.iters}
	}
	if ops.Sign(val) > 0 {
		return Solution[T]{Status: Infeasible, Iterations: t.iters}
	}
	t.driveOutArtificials()
	// Drop artificial columns and any redundant row whose artificial could
	// not be driven out (such rows are identically zero with zero rhs).
	keep := 0
	for r := 0; r < t.m; r++ {
		if t.basis[r] >= t.n {
			continue
		}
		t.a[keep] = t.a[r][:t.n]
		t.basis[keep] = t.basis[r]
		t.b[keep] = t.b[r]
		keep++
	}
	t.a = t.a[:keep]
	t.basis = t.basis[:keep]
	t.b = t.b[:keep]
	t.m = keep
	t.nart = 0

	// Phase 2: original objective (negated if maximising).
	obj := make([]T, t.n) //stretch:alloc-ok — per-solve buffer
	for j := range obj {
		obj[j] = ops.Zero()
	}
	for j := 0; j < t.prob.nvars; j++ {
		c := t.prob.obj[j]
		if t.prob.maximize {
			c = ops.Neg(c)
		}
		obj[j] = c
	}
	status, val = t.optimize(obj)
	if status != Optimal {
		return Solution[T]{Status: status, Iterations: t.iters}
	}

	x := make([]T, t.prob.nvars) //stretch:alloc-ok — the returned solution
	for j := range x {
		x[j] = ops.Zero()
	}
	for r, bj := range t.basis {
		if bj < t.prob.nvars {
			x[bj] = t.b[r]
		}
	}
	if t.prob.maximize {
		val = ops.Neg(val)
	}
	return Solution[T]{Status: Optimal, X: x, Objective: val, Iterations: t.iters}
}

// driveOutArtificials pivots any artificial variable that is still basic at
// value zero out of the basis (or verifies its row is redundant).
//
//stretch:noalloc
func (t *tableau[T]) driveOutArtificials() {
	ops := t.ops
	for r := 0; r < t.m; r++ {
		if t.basis[r] < t.n {
			continue
		}
		// Find any non-artificial column with a nonzero coefficient.
		pivoted := false
		for j := 0; j < t.n; j++ {
			if ops.Sign(t.a[r][j]) != 0 {
				t.pivot(r, j)
				pivoted = true
				break
			}
		}
		if !pivoted {
			// Redundant row: every structural coefficient is zero, and so is
			// b (phase 1 ended at zero). Leave the artificial basic at zero;
			// it can never turn positive because its row is identically zero.
			continue
		}
	}
}

// optimize runs primal simplex iterations for the reduced costs of obj.
// It returns Optimal with the objective value, or Unbounded / IterLimit.
//
//stretch:noalloc
func (t *tableau[T]) optimize(obj []T) (Status, T) {
	ops := t.ops
	width := t.n + t.nart
	// z[j] = reduced cost of column j; zval = current objective value.
	t.z = growSlice(t.z, width)
	z := t.z
	limit := maxIterFactor * (t.m + width + 1)

	recompute := func() T { //stretch:alloc-ok — non-escaping closure
		// reduced cost c_j - c_B · B^{-1} A_j, computed from the tableau:
		// since rows are already B^{-1}A, it is c_j - Σ_r c_basis[r]·a[r][j].
		val := ops.Zero()
		for j := 0; j < width; j++ {
			z[j] = obj[j]
		}
		for r := 0; r < t.m; r++ {
			cb := obj[t.basis[r]]
			if ops.Sign(cb) == 0 {
				continue
			}
			ncb := ops.Neg(cb)
			row := t.a[r]
			for j := 0; j < width; j++ {
				z[j] = ops.MulAdd(z[j], ncb, row[j])
			}
			val = ops.MulAdd(val, cb, t.b[r])
		}
		return val
	}
	val := recompute()

	bland := false
	for iter := 0; ; iter++ {
		if iter > limit {
			return IterLimit, val
		}
		t.iters++
		// After many Dantzig iterations, switch to Bland's rule, which
		// guarantees termination in the presence of degeneracy.
		if iter > 4*(t.m+width) {
			bland = true
		}

		enter := -1
		if bland {
			for j := 0; j < width; j++ {
				if t.isBasic(j) {
					continue
				}
				if ops.Sign(z[j]) < 0 {
					enter = j
					break
				}
			}
		} else {
			var best T
			for j := 0; j < width; j++ {
				if ops.Sign(z[j]) < 0 && (enter == -1 || ops.Cmp(z[j], best) < 0) {
					enter, best = j, z[j]
				}
			}
		}
		if enter == -1 {
			return Optimal, val
		}

		// Ratio test: leaving row minimises b_r / a[r][enter] over positive
		// pivot entries; ties broken by smallest basis index (lexicographic
		// enough for our sizes together with the Bland fallback).
		leave := -1
		var bestRatio T
		for r := 0; r < t.m; r++ {
			arj := t.a[r][enter]
			if ops.Sign(arj) <= 0 {
				continue
			}
			ratio := ops.Div(t.b[r], arj)
			if leave == -1 || ops.Cmp(ratio, bestRatio) < 0 ||
				(ops.Cmp(ratio, bestRatio) == 0 && t.basis[r] < t.basis[leave]) {
				leave, bestRatio = r, ratio
			}
		}
		if leave == -1 {
			return Unbounded, val
		}

		t.pivot(leave, enter)

		// Update reduced costs incrementally: z ← z - z[enter]·(pivot row).
		ze := z[enter]
		if ops.Sign(ze) != 0 {
			nze := ops.Neg(ze)
			row := t.a[leave]
			for j := 0; j < width; j++ {
				z[j] = ops.MulAdd(z[j], nze, row[j])
			}
			val = ops.MulAdd(val, ze, t.b[leave])
		}
		z[enter] = ops.Zero()
	}
}

//stretch:noalloc
func (t *tableau[T]) isBasic(col int) bool {
	for _, b := range t.basis {
		if b == col {
			return true
		}
	}
	return false
}

// pivot makes column col basic in row row using Gauss-Jordan elimination.
//
//stretch:noalloc
func (t *tableau[T]) pivot(row, col int) {
	ops := t.ops
	width := len(t.a[row])
	piv := t.a[row][col]
	if ops.Sign(piv) == 0 {
		panic("lp: zero pivot")
	}
	inv := ops.Div(ops.One(), piv)
	prow := t.a[row]
	for j := 0; j < width; j++ {
		prow[j] = ops.Mul(prow[j], inv)
	}
	prow[col] = ops.One() // avoid drift in the float backend
	t.b[row] = ops.Mul(t.b[row], inv)

	for r := 0; r < t.m; r++ {
		if r == row {
			continue
		}
		factor := t.a[r][col]
		if ops.Sign(factor) == 0 {
			t.a[r][col] = ops.Zero()
			continue
		}
		nf := ops.Neg(factor)
		arow := t.a[r]
		for j := 0; j < width; j++ {
			arow[j] = ops.MulAdd(arow[j], nf, prow[j])
		}
		arow[col] = ops.Zero()
		t.b[r] = ops.MulAdd(t.b[r], nf, t.b[row])
		// Degenerate negative dust from float cancellation: clamp to zero so
		// the ratio test stays consistent.
		if ops.Sign(t.b[r]) < 0 {
			t.b[r] = ops.Zero()
		}
	}
	t.basis[row] = col
}

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

// ErrCertificate is wrapped by Solve when an Optimal or Infeasible result
// fails its duality certificate (see certify): the solver is at fault, not
// the program. It does not wrap ErrNotOptimal.
var ErrCertificate = errors.New("lp: result fails its certificate")

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
// Entries may repeat a variable; consumers accumulate. The solver
// transposes the rows into sparse columns, so a System (1) program with
// ~95% zeros never materialises its zero entries; certify reads the rows
// as they were added.
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

// Solution is the result of a solve.
type Solution[T any] struct {
	Status     Status
	X          []T // variable values, one per variable (Optimal only)
	Objective  T   // objective value in the problem's own sense
	Iterations int
}

// Solve runs the two-phase sparse revised simplex method (revised.go) and
// returns the optimal solution, or an error wrapping ErrNotOptimal (with
// the non-optimal Solution) if the problem is infeasible, unbounded or hits
// the iteration cap. Every Optimal and Infeasible result is checked against
// p's own rows before it is returned (certify); a result that fails the
// check returns ErrCertificate. Every solve allocates its own working
// state, and the Solution is the caller's.
func (p *Problem[T]) Solve() (*Solution[T], error) {
	rv := &revised[T]{}
	rv.init(p)
	sol := rv.solve()
	if sol.Status == Optimal || sol.Status == Infeasible {
		if err := p.certify(&sol, rv.multipliers()); err != nil {
			return &sol, err
		}
	}
	return &sol, sol.Status.Err()
}

// certify checks an Optimal or Infeasible result against p's own rows and
// objective, never the solver's column matrix or costs. y holds one
// multiplier per row of p, for the problem in minimisation form (objective
// σ·c, σ = −1 when maximising). y must be sign-feasible for the dual: y_r
// ≤ 0 on ≤ rows, ≥ 0 on ≥ rows, free on equalities. Every reduced cost
// d_j = σc_j − y·A_j must be ≥ 0, with c read as zero for Infeasible.
//
// For Optimal, x must satisfy every row and x ≥ 0, Objective must be c·x,
// and σ·c·x must equal y·b. Weak duality then makes x optimal. For
// Infeasible, y is a Farkas certificate: y·A ≤ 0 with y·b > 0, and no x ≥ 0
// satisfies the rows. Comparisons go through Ops.Sign and Ops.Cmp, so they
// are exact on RatOps and within Eps on Float64Ops.
func (p *Problem[T]) certify(sol *Solution[T], y []T) error {
	ops := p.ops
	optimal := sol.Status == Optimal
	d := make([]T, p.nvars)
	for j := range d {
		d[j] = ops.Zero()
		if optimal {
			d[j] = p.obj[j]
			if p.maximize {
				d[j] = ops.Neg(d[j])
			}
		}
	}
	yb := ops.Zero()
	for r := range p.cons {
		c := &p.cons[r]
		if s := ops.Sign(y[r]); c.rel == LE && s > 0 || c.rel == GE && s < 0 {
			return fmt.Errorf("%w: row %d (%v) has a multiplier of sign %+d", ErrCertificate, r, c.rel, s)
		}
		for k, v := range c.vars {
			d[v] = ops.MulSub(d[v], y[r], c.coefs[k])
		}
		yb = ops.MulAdd(yb, y[r], c.rhs)
	}
	for j := range d {
		if ops.Sign(d[j]) < 0 {
			return fmt.Errorf("%w: variable %d has a negative reduced cost", ErrCertificate, j)
		}
	}
	if !optimal {
		if ops.Sign(yb) <= 0 {
			return fmt.Errorf("%w: infeasibility multipliers give y·b ≤ 0", ErrCertificate)
		}
		return nil
	}

	cx := ops.Zero()
	for j, x := range sol.X {
		if ops.Sign(x) < 0 {
			return fmt.Errorf("%w: variable %d is negative", ErrCertificate, j)
		}
		cx = ops.MulAdd(cx, p.obj[j], x)
	}
	for r := range p.cons {
		c := &p.cons[r]
		ax := ops.Zero()
		for k, v := range c.vars {
			ax = ops.MulAdd(ax, c.coefs[k], sol.X[v])
		}
		if s := ops.Cmp(ax, c.rhs); c.rel == LE && s > 0 || c.rel == GE && s < 0 || c.rel == EQ && s != 0 {
			return fmt.Errorf("%w: x violates row %d (%v)", ErrCertificate, r, c.rel)
		}
	}
	if ops.Cmp(cx, sol.Objective) != 0 {
		return fmt.Errorf("%w: the objective is not c·x", ErrCertificate)
	}
	if p.maximize {
		cx = ops.Neg(cx)
	}
	if ops.Cmp(cx, yb) != 0 {
		return fmt.Errorf("%w: c·x and y·b differ", ErrCertificate)
	}
	return nil
}

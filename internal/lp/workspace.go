package lp

import "stretchsched/internal/rat"

// Workspace owns the mutable solver state of a simplex solve — the tableau
// (rows, right-hand sides, basis), the phase objectives, the reduced-cost
// vector and the solution buffer — and is reset between solves, so a caller
// that solves many programs of similar shape (the exact System (1)
// refinement of the offline solver, the lpcli REPL) performs no steady-state
// tableau allocation. Arithmetic-side allocation is the backend's business:
// the float64 backend allocates nothing, and the exact rational backend
// stores rat.Rat values inline in the pooled tableau rows, so it too
// allocates nothing while entries stay in rat's fixed-width forms (the
// int64 small form and the 128-bit medium tier) — only values that
// overflow past 128 bits into math/big cost heap (see rat.Rat and RatOps).
//
// A Workspace must not be used from multiple goroutines, and the Solution
// returned by Problem.SolveWith (including its X vector) is overwritten by
// the next SolveWith on the same workspace.
type Workspace[T any] struct {
	tab    tableau[T]
	rev    revised[T] // sparse revised-simplex state (SolveRevisedWith)
	sol    Solution[T]
	phase1 []T
	phase2 []T
	x      []T

	// Tiers is the conventional home of the exact backend's per-operation
	// representation-tier counters: a caller that builds its Problem with
	// RatOps{Tiers: ws.Tiers()} has every solve on this workspace counted
	// (the offline exact refinement does; core.Stats.Tiers reports the
	// result). Unused by other backends.
	tiers rat.TierStats
}

// Tiers returns the workspace's tier-counter slot. The pointer is stable
// for the workspace's lifetime, so it can be handed to RatOps once.
func (ws *Workspace[T]) Tiers() *rat.TierStats { return &ws.tiers }

// NewWorkspace returns an empty workspace; buffers are sized lazily on first
// use and grown only when a program exceeds every previous one.
func NewWorkspace[T any]() *Workspace[T] { return &Workspace[T]{} }

// Reset clears the problem back to nvars nonnegative variables with an
// all-zero minimisation objective, retaining the constraint and coefficient
// buffers of previous uses so that rebuilding a similarly-shaped program
// allocates nothing.
func (p *Problem[T]) Reset(nvars int) {
	if nvars < 0 {
		panic("lp: negative variable count")
	}
	p.nvars = nvars
	p.obj = growSlice(p.obj, nvars)
	for i := range p.obj {
		p.obj[i] = p.ops.Zero()
	}
	p.maximize = false
	p.cons = p.cons[:0]
}

// appendCon extends p.cons by one slot, resurrecting a previously-used
// constraint (and its sparse row buffers) when the backing array allows.
func (p *Problem[T]) appendCon() *constraint[T] {
	if len(p.cons) < cap(p.cons) {
		p.cons = p.cons[:len(p.cons)+1]
	} else {
		p.cons = append(p.cons, constraint[T]{})
	}
	c := &p.cons[len(p.cons)-1]
	c.vars = c.vars[:0]
	c.coefs = c.coefs[:0]
	return c
}

// growSlice returns s resized to length n, reusing its backing array when
// large enough. Contents are unspecified; callers refill what they read.
func growSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// growIntSlice is growSlice for []int (kept monomorphic for clarity at call
// sites that mix element types).
func growIntSlice(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

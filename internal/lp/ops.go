// Package lp implements a two-phase primal simplex solver: a sparse
// revised method with a product-form basis inverse, which checks its own
// results.
//
// The paper's offline max-stretch algorithm (System (1)) and the sum-stretch
// refinement of its online heuristics (System (2)) are linear programs. The
// original work used an external LP solver; Go's standard library has none,
// so this package provides one from scratch, generic over the scalar
// field: a float64 backend with tolerances, and an exact rational backend
// that eliminates the floating-point milestone anomaly the paper reports in
// §5.3. Production paths no longer solve linear programs: on exact
// rationals Solve runs System (1) as the oracle of the offline solver's
// parametric cut (offline.OracleStretch). Every Optimal or Infeasible
// result carries a duality certificate that Solve checks against the
// problem's own rows, so a wrong answer fails with ErrCertificate instead
// of passing silently. The Ops scalar layer is shared with package flow.
package lp

import "stretchsched/internal/rat"

// Ops abstracts the arithmetic the simplex and the flow solvers need.
// Implementations must behave like an ordered field; Sign may incorporate a
// tolerance (float64).
type Ops[T any] interface {
	Add(a, b T) T
	Sub(a, b T) T
	Mul(a, b T) T
	Div(a, b T) T
	// MulAdd returns a + b·c. Backends fuse it where that matters: the
	// exact backend evaluates the whole expression before deciding whether
	// it fits an inline fixed-width form, so accumulate chains (simplex eta
	// updates) whose intermediates overflow but whose results cancel back
	// into range stay allocation-free.
	MulAdd(a, b, c T) T
	// MulSub returns a - b·c, fused like MulAdd. It exists for the pricing
	// dot products (reduced cost = c_j - y·A_j), where a separate Neg per
	// element would double the value traffic through the ops boundary.
	MulSub(a, b, c T) T
	Neg(a T) T
	Zero() T
	One() T
	// Sign returns -1, 0, +1; values within the backend tolerance of zero
	// must report 0.
	Sign(a T) int
	Cmp(a, b T) int
}

// Float64Ops is the fast backend. Eps is the absolute tolerance under which
// a value is considered zero during pivoting and status tests.
type Float64Ops struct {
	Eps float64
}

// NewFloat64Ops returns a Float64Ops with the default tolerance 1e-9.
func NewFloat64Ops() Float64Ops { return Float64Ops{Eps: 1e-9} }

func (o Float64Ops) Add(a, b float64) float64       { return a + b }
func (o Float64Ops) Sub(a, b float64) float64       { return a - b }
func (o Float64Ops) Mul(a, b float64) float64       { return a * b }
func (o Float64Ops) Div(a, b float64) float64       { return a / b }
func (o Float64Ops) MulAdd(a, b, c float64) float64 { return a + b*c }
func (o Float64Ops) MulSub(a, b, c float64) float64 { return a - b*c }
func (o Float64Ops) Neg(a float64) float64          { return -a }
func (o Float64Ops) Zero() float64                  { return 0 }
func (o Float64Ops) One() float64                   { return 1 }

func (o Float64Ops) Sign(a float64) int {
	eps := o.Eps
	if eps == 0 {
		eps = 1e-9
	}
	switch {
	case a > eps:
		return 1
	case a < -eps:
		return -1
	default:
		return 0
	}
}

func (o Float64Ops) Cmp(a, b float64) int { return o.Sign(a - b) }

// RatOps is the exact backend over immutable rationals. Every arithmetic
// result is passed through rat.Reduce: values that promoted to the 128-bit
// medium form or escaped to math/big during a pivot (overflowing products
// of float-derived coefficients) are demoted back down the representation
// ladder the moment cancellation brings them back in range, so simplex data
// whose entries simplify — the common case, since most columns are 0/±1 —
// stay in the allocation-free fixed-width regime.
type RatOps struct {
	// Tiers, when non-nil, accumulates per-operation representation-tier
	// counters for every arithmetic op this value performs: results by
	// tier, promotions past the operands' tier (overflow escapes) and
	// demotions below it (Reduce reclaiming values after cancellation).
	// offline.Workspace owns the counters its exact refinement records
	// into; core.Stats.Tiers reports them. The nil default costs one
	// predictable branch per op.
	Tiers *rat.TierStats
}

// note2 and note3 record one op against the tier counters, if enabled.
func (o RatOps) note2(r, a, b rat.Rat) rat.Rat {
	if o.Tiers != nil {
		o.Tiers.Note(r.Tier(), max(a.Tier(), b.Tier()))
	}
	return r
}

func (o RatOps) note3(r, a, b, c rat.Rat) rat.Rat {
	if o.Tiers != nil {
		o.Tiers.Note(r.Tier(), max(a.Tier(), b.Tier(), c.Tier()))
	}
	return r
}

func (o RatOps) Add(a, b rat.Rat) rat.Rat       { return o.note2(a.Add(b).Reduce(), a, b) }
func (o RatOps) Sub(a, b rat.Rat) rat.Rat       { return o.note2(a.Sub(b).Reduce(), a, b) }
func (o RatOps) Mul(a, b rat.Rat) rat.Rat       { return o.note2(a.Mul(b).Reduce(), a, b) }
func (o RatOps) Div(a, b rat.Rat) rat.Rat       { return o.note2(a.Div(b).Reduce(), a, b) }
func (o RatOps) MulAdd(a, b, c rat.Rat) rat.Rat { return o.note3(rat.MulAdd(a, b, c), a, b, c) }
func (o RatOps) MulSub(a, b, c rat.Rat) rat.Rat { return o.note3(rat.MulSub(a, b, c), a, b, c) }
func (RatOps) Neg(a rat.Rat) rat.Rat            { return a.Neg() }
func (RatOps) Zero() rat.Rat                    { return rat.Zero }
func (RatOps) One() rat.Rat                     { return rat.One }
func (RatOps) Sign(a rat.Rat) int               { return a.Sign() }
func (RatOps) Cmp(a, b rat.Rat) int             { return a.Cmp(b) }

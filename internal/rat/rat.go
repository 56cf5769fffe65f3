// Package rat provides immutable exact rational scalars, plus
// one-dimensional affine forms a + b·x used by the milestone machinery of
// the offline max-stretch solver.
//
// The paper (§5.3) reports that its offline solver is "occasionally beaten"
// by online heuristics because of floating-point precision loss when two
// epochal times nearly coincide. Exact rationals remove that failure mode,
// at a constant-factor cost; the fast float64 paths elsewhere in this
// repository fall back to this package whenever exactness matters.
//
// # Representation
//
// A Rat is stored in one of three forms. The small form is an inline
// int64 numerator/denominator pair: all arithmetic on it is a handful of
// machine operations (binary GCD, 128-bit overflow checks via bits.Mul64)
// and allocates nothing. When a result no longer fits — numerator or
// denominator magnitude above MaxInt64 — the operation promotes to the
// medium form: inline unsigned 128-bit num/den magnitudes with an explicit
// sign, whose arithmetic runs on bits.Mul64/bits.Add64 chains with 192-bit
// intermediates (see medium.go) and still allocates nothing. Only when a
// reduced result exceeds 128 bits does the operation escape to the big
// form, a *math/big.Rat. Operations involving a big operand stay big, and
// medium results stay medium even when they shrink back into int64 range:
// the package never demotes behind the caller's back. Reduce demotes an
// escaped value down the ladder (big → medium → small) as far as it fits;
// hot loops that want to stay in the fixed-width regime (the exact LP
// backend, see lp.RatOps) apply it after each operation.
package rat

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"strconv"
)

// Rat is an immutable rational number. The zero value is 0.
//
// Immutability is the point of the wrapper: math/big.Rat has an imperative,
// aliasing API that is easy to misuse inside solver pivots. All arithmetic
// here returns a fresh value and never mutates operands, which also makes
// it safe for two Rats to share an escaped *big.Rat.
type Rat struct {
	// Small form (r == nil, !med): the value num/den with den > 0,
	// gcd(|num|, den) == 1 and |num|, den ≤ MaxInt64 — MinInt64 is kept out
	// of both fields so negation can never overflow. The zero value
	// (num == 0, den == 0) is the canonical 0.
	//
	// Medium form (r == nil, med): the value ±n/d with unsigned 128-bit
	// magnitudes n = nhi·2^64 + uint64(num), d = dhi·2^64 + uint64(den)
	// (the small form's fields double as the low words), d > 0,
	// gcd(n, d) == 1, and the sign in neg. Zero is never medium.
	num, den int64
	nhi, dhi uint64
	// Big form (r != nil): all other fields are meaningless. The pointed-to
	// value is never mutated, so ops may return an operand's pointer
	// unchanged.
	r   *big.Rat
	med bool
	neg bool
}

// Zero is the rational 0.
var Zero = Rat{}

// One is the rational 1.
var One = FromInt(1)

// small builds a small-form Rat from a reduced num/den pair with den > 0,
// canonicalising zero.
func small(num, den int64) Rat {
	if num == 0 {
		return Rat{}
	}
	return Rat{num: num, den: den}
}

// normSmall reduces num/den (den > 0) by their GCD and canonicalises.
func normSmall(num, den int64) Rat {
	if num == 0 {
		return Rat{}
	}
	if g := int64(gcd64(absU(num), uint64(den))); g > 1 {
		num, den = num/g, den/g
	}
	return Rat{num: num, den: den}
}

// nd returns the small-form numerator and denominator, mapping the zero
// value to 0/1. Only valid in the small form (r == nil, !med).
func (a Rat) nd() (num, den int64) {
	if a.den == 0 {
		return 0, 1
	}
	return a.num, a.den
}

// absU is |n| as a uint64 (correct for MinInt64, which the small form
// nevertheless never holds).
func absU(n int64) uint64 {
	if n < 0 {
		return uint64(-n)
	}
	return uint64(n)
}

// gcd64 is the binary GCD of a and b; gcd64(0, b) = b.
func gcd64(a, b uint64) uint64 {
	if a == 0 {
		return b
	}
	if b == 0 {
		return a
	}
	if a == 1 || b == 1 {
		// Unit operands are everywhere in simplex data (integer values have
		// den == 1, and LP matrices are 0/±1-heavy); without this exit the binary
		// loop grinds a unit down one subtract-and-shift at a time.
		return 1
	}
	k := bits.TrailingZeros64(a | b)
	a >>= bits.TrailingZeros64(a)
	for {
		b >>= bits.TrailingZeros64(b)
		if a > b {
			a, b = b, a
		}
		b -= a
		if b == 0 {
			return a << k
		}
	}
}

// mul64 returns a·b, reporting overflow past ±MaxInt64 (MinInt64 counts as
// overflow so the small form stays negation-safe).
func mul64(a, b int64) (int64, bool) {
	hi, lo := bits.Mul64(absU(a), absU(b))
	if hi != 0 || lo > math.MaxInt64 {
		return 0, true
	}
	if (a < 0) != (b < 0) {
		return -int64(lo), false
	}
	return int64(lo), false
}

// add64 returns a+b, reporting overflow (MinInt64 counts as overflow).
func add64(a, b int64) (int64, bool) {
	s := a + b
	if ((a^s)&(b^s)) < 0 || s == math.MinInt64 {
		return 0, true
	}
	return s, false
}

// FromInt returns the rational n/1.
func FromInt(n int64) Rat {
	if n == math.MinInt64 {
		return mkMed(true, u128From64(1<<63), one128)
	}
	return small(n, 1)
}

// FromFrac returns the rational num/den. It panics if den == 0.
func FromFrac(num, den int64) Rat {
	if den == 0 {
		panic("rat: zero denominator")
	}
	if num == math.MinInt64 || den == math.MinInt64 {
		// Constructors demote when the reduced value fits (e.g. MinInt64/2).
		return Rat{r: big.NewRat(num, den)}.Reduce()
	}
	if den < 0 {
		num, den = -num, -den
	}
	return normSmall(num, den)
}

// FromFloat returns the exact rational value of f.
// It panics if f is NaN or ±Inf, which have no rational representation.
func FromFloat(f float64) Rat {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		panic(fmt.Sprintf("rat: cannot represent %v", f))
	}
	if f == 0 {
		return Rat{}
	}
	// f = m·2^e exactly, with m odd after stripping trailing zero bits.
	frac, exp := math.Frexp(f)
	m := int64(frac * (1 << 53))
	e := exp - 53
	if tz := bits.TrailingZeros64(absU(m)); tz > 0 {
		m >>= tz
		e += tz
	}
	if e >= 0 {
		if e+bits.Len64(absU(m)) <= 63 {
			return small(m<<e, 1)
		}
		if e+bits.Len64(absU(m)) <= 128 {
			return mkMed(m < 0, shl128(u128From64(absU(m)), uint(e)), one128)
		}
	} else if -e <= 62 {
		// m is odd, so m / 2^-e is already reduced.
		return small(m, int64(1)<<-e)
	} else if -e <= 127 {
		return mkMed(m < 0, u128From64(absU(m)), shl128(one128, uint(-e)))
	}
	// Magnitude or precision beyond the fixed-width forms: escape.
	r := new(big.Rat).SetFloat64(f)
	if r == nil {
		panic(fmt.Sprintf("rat: cannot represent %v", f))
	}
	return Rat{r: r}
}

// FromBig returns a Rat holding the value of r (copied, then demoted to the
// small form if it fits).
func FromBig(r *big.Rat) Rat { return Rat{r: new(big.Rat).Set(r)}.Reduce() }

// Parse reads a rational from a string in "a/b" or decimal notation.
func Parse(s string) (Rat, error) {
	r, ok := new(big.Rat).SetString(s)
	if !ok {
		return Rat{}, fmt.Errorf("rat: cannot parse %q", s)
	}
	return Rat{r: r}.Reduce(), nil
}

// IsSmall reports whether a is held in the inline int64 form. Arithmetic on
// small operands allocates nothing unless the result overflows.
func (a Rat) IsSmall() bool { return a.r == nil && !a.med }

// isSmall, isMed and isBig are the internal form predicates; exactly one
// holds for any Rat.
func (a Rat) isSmall() bool { return a.r == nil && !a.med }
func (a Rat) isMed() bool   { return a.med }
func (a Rat) isBig() bool   { return a.r != nil }

// Tier identifies which of the three representations holds a value.
type Tier uint8

const (
	// TierSmall is the inline int64 num/den form.
	TierSmall Tier = iota
	// TierMedium is the inline 128-bit num/den form.
	TierMedium
	// TierBig is the escaped *math/big.Rat form.
	TierBig
)

func (t Tier) String() string {
	switch t {
	case TierSmall:
		return "small"
	case TierMedium:
		return "medium"
	}
	return "big"
}

// Tier returns the representation currently holding a.
func (a Rat) Tier() Tier {
	switch {
	case a.r != nil:
		return TierBig
	case a.med:
		return TierMedium
	}
	return TierSmall
}

// Reduce returns a demoted down the representation ladder as far as its
// value fits: big values whose num/den magnitudes fit 128 bits become
// medium (or small when they fit int64), and medium values whose
// magnitudes fit int64 become small. Arithmetic never demotes on its own —
// once a value promotes it stays there — so long-running exact computations
// call Reduce at natural boundaries (the LP backend applies it after every
// operation) to return to the fastest regime that holds the value.
func (a Rat) Reduce() Rat {
	if a.med {
		if a.nhi == 0 && a.dhi == 0 &&
			uint64(a.num) <= math.MaxInt64 && uint64(a.den) <= math.MaxInt64 {
			n := a.num // low word; medium invariants give gcd == 1, den > 0
			if a.neg {
				n = -n
			}
			return small(n, a.den)
		}
		return a
	}
	if a.r == nil {
		return a
	}
	num, den := a.r.Num(), a.r.Denom()
	if num.IsInt64() && den.IsInt64() {
		n, d := num.Int64(), den.Int64()
		if n != math.MinInt64 && d != math.MinInt64 {
			// big.Rat keeps gcd(|n|, d) == 1 and d > 0.
			return small(n, d)
		}
	}
	if num.BitLen() <= 128 && den.BitLen() <= 128 {
		// big.Rat keeps the pair reduced with den > 0, so the magnitudes
		// can be lifted into the medium form directly.
		return mkMed(num.Sign() < 0, u128FromBigAbs(num), u128FromBigAbs(den))
	}
	return a
}

// u128FromBigAbs returns |x| as a u128; callers check BitLen() <= 128.
func u128FromBigAbs(x *big.Int) u128 {
	var v u128
	for i, w := range x.Bits() {
		v = or128(v, shl128(u128From64(uint64(w)), uint(i)*uint(bits.UintSize)))
	}
	return v
}

// setBig128 sets dst to the (nonnegative) value of x. The limb slice must
// be freshly allocated: dst may share storage with math/big internals (a
// fresh Rat's Denom aliases the package-global 1), so appending into
// dst.Bits() would corrupt them.
func setBig128(dst *big.Int, x u128) {
	var w []big.Word
	if bits.UintSize == 64 {
		w = []big.Word{big.Word(x.lo), big.Word(x.hi)}
	} else {
		w = []big.Word{big.Word(x.lo), big.Word(x.lo >> 32), big.Word(x.hi), big.Word(x.hi >> 32)}
	}
	dst.SetBits(w) // SetBits normalises away leading zero words
}

// bigRef materialises a as a *big.Rat, allocating only for small and medium
// values. Callers must not mutate the result when a is big.
func (a Rat) bigRef() *big.Rat {
	if a.r != nil {
		return a.r
	}
	if a.med {
		// The magnitudes are already reduced with d > 0, so the big.Rat can
		// be assembled through Num/Denom directly — SetFrac would re-run a
		// two-word GCD for nothing. SetInt64 first: Denom on an
		// uninitialized Rat returns a detached Int, not a reference.
		m := a.med128()
		br := new(big.Rat).SetInt64(1)
		setBig128(br.Num(), m.n)
		setBig128(br.Denom(), m.d)
		if a.neg {
			br.Neg(br)
		}
		return br
	}
	n, d := a.nd()
	return big.NewRat(n, d)
}

// Float returns the nearest float64 to a.
func (a Rat) Float() float64 {
	if a.r != nil {
		f, _ := a.r.Float64()
		return f
	}
	if a.med {
		m := a.med128()
		if m.n.isZero() {
			return 0
		}
		f := divFloat128(m.n, m.d)
		if m.neg {
			f = -f
		}
		return f
	}
	n, d := a.nd()
	if n == 0 {
		return 0
	}
	if d == 1 {
		return float64(n) // int64→float64 conversion rounds correctly
	}
	// When both operands convert exactly, IEEE division rounds correctly.
	const exact = int64(1) << 53
	if n > -exact && n < exact && d < exact {
		return float64(n) / float64(d)
	}
	f := divFloat128(u128From64(absU(n)), u128From64(uint64(d)))
	if n < 0 {
		f = -f
	}
	return f
}

// Big returns a copy of a as a *big.Rat.
func (a Rat) Big() *big.Rat { return new(big.Rat).Set(a.bigRef()) }

// addSmall computes a + sign·b on small operands; ok is false on overflow
// (sign is ±1, so sign·b cannot itself overflow).
//
//stretch:noalloc
func addSmall(a, b Rat, sign int64) (Rat, bool) {
	an, ad := a.nd()
	bn, bd := b.nd()
	bn *= sign
	if an == 0 {
		return small(bn, bd), true
	}
	if bn == 0 {
		return small(an, ad), true
	}
	// a/b + c/d = (a·(d/g) + c·(b/g)) / (b·(d/g)) with g = gcd(b, d).
	g := int64(gcd64(uint64(ad), uint64(bd)))
	ad2, bd2 := ad/g, bd/g
	p1, ov1 := mul64(an, bd2)
	p2, ov2 := mul64(bn, ad2)
	num, ov3 := add64(p1, p2)
	den, ov4 := mul64(ad, bd2)
	if ov1 || ov2 || ov3 || ov4 {
		return Rat{}, false
	}
	// num can still share a factor of g with den.
	return normSmall(num, den), true
}

// mulSmall computes a·b on small operands; ok is false on overflow.
//
//stretch:noalloc
func mulSmall(a, b Rat) (Rat, bool) {
	an, ad := a.nd()
	bn, bd := b.nd()
	if an == 0 || bn == 0 {
		return Rat{}, true
	}
	// Cross-reduce first so the products are as small as possible; the
	// result is then already in lowest terms.
	g1 := int64(gcd64(absU(an), uint64(bd)))
	g2 := int64(gcd64(absU(bn), uint64(ad)))
	num, ov1 := mul64(an/g1, bn/g2)
	den, ov2 := mul64(ad/g2, bd/g1)
	if ov1 || ov2 {
		return Rat{}, false
	}
	return Rat{num: num, den: den}, true
}

// invSmall returns 1/b for a small nonzero b.
//
//stretch:noalloc
func invSmall(b Rat) Rat {
	bn, bd := b.nd()
	if bn < 0 {
		return Rat{num: -bd, den: -bn}
	}
	return Rat{num: bd, den: bn}
}

// Add returns a + b.
//
//stretch:noalloc
func (a Rat) Add(b Rat) Rat {
	if a.isSmall() && b.isSmall() {
		if r, ok := addSmall(a, b, 1); ok {
			return r
		}
	}
	if !a.isBig() && !b.isBig() {
		// Small-form overflow or medium operands: the medium lane.
		if m, ok := addMed(a.med128(), b.med128()); ok {
			return m.rat()
		}
	}
	if a.isSmall() && a.den == 0 {
		return b
	}
	if b.isSmall() && b.den == 0 {
		return a
	}
	return Rat{r: new(big.Rat).Add(a.bigRef(), b.bigRef())} //stretch:alloc-ok — escape to big
}

// Sub returns a - b.
//
//stretch:noalloc
func (a Rat) Sub(b Rat) Rat {
	if a.isSmall() && b.isSmall() {
		if r, ok := addSmall(a, b, -1); ok {
			return r
		}
	}
	if !a.isBig() && !b.isBig() {
		if m, ok := addMed(a.med128(), negMed(b.med128())); ok {
			return m.rat()
		}
	}
	if b.isSmall() && b.den == 0 {
		return a
	}
	if a.isSmall() && a.den == 0 {
		return b.Neg()
	}
	return Rat{r: new(big.Rat).Sub(a.bigRef(), b.bigRef())} //stretch:alloc-ok — escape to big
}

// Mul returns a * b.
//
//stretch:noalloc
func (a Rat) Mul(b Rat) Rat {
	if a.isSmall() && b.isSmall() {
		if r, ok := mulSmall(a, b); ok {
			return r
		}
	}
	if !a.isBig() && !b.isBig() {
		if m, ok := mulMed(a.med128(), b.med128()); ok {
			return m.rat()
		}
	}
	// Annihilator and unit shortcuts keep the mixed path allocation-free
	// on the 0/±1 entries that dominate LP matrices.
	if a.isSmall() {
		switch {
		case a.den == 0:
			return Rat{}
		case a.num == 1 && a.den == 1:
			return b
		case a.num == -1 && a.den == 1:
			return b.Neg()
		}
	}
	if b.isSmall() {
		switch {
		case b.den == 0:
			return Rat{}
		case b.num == 1 && b.den == 1:
			return a
		case b.num == -1 && b.den == 1:
			return a.Neg()
		}
	}
	return Rat{r: new(big.Rat).Mul(a.bigRef(), b.bigRef())} //stretch:alloc-ok — escape to big
}

// Div returns a / b. It panics if b is zero.
//
//stretch:noalloc
func (a Rat) Div(b Rat) Rat {
	if b.Sign() == 0 {
		panic("rat: division by zero")
	}
	if b.isSmall() {
		if a.isSmall() {
			if r, ok := mulSmall(a, invSmall(b)); ok {
				return r
			}
		}
		if b.num == 1 && b.den == 1 {
			return a
		}
		if b.num == -1 && b.den == 1 {
			return a.Neg()
		}
	}
	if !a.isBig() && !b.isBig() {
		if m, ok := mulMed(a.med128(), invMed(b.med128())); ok {
			return m.rat()
		}
	}
	if a.isSmall() && a.den == 0 {
		return Rat{}
	}
	return Rat{r: new(big.Rat).Quo(a.bigRef(), b.bigRef())} //stretch:alloc-ok — escape to big
}

// MulAdd returns a + b·c as one fused operation. The point over
// a.Add(b.Mul(c)) is escape behaviour, not value: the product and the sum
// are attempted in the int64 small form together, then in the 128-bit
// medium form, and only when both fail is the whole expression evaluated in
// math/big once and demoted once — so a b·c whose intermediate would escape
// but whose final value fits a fixed-width form still comes back inline,
// and whenever the final value fits int64 it comes back small. It is the
// accumulate primitive of the revised-simplex eta updates (see
// lp.Ops.MulAdd), which are long chains of exactly this shape.
//
//stretch:noalloc
func MulAdd(a, b, c Rat) Rat {
	// The all-small lane runs first, before any Sign dispatch: it is the
	// statistically dominant case in the solver loops, and mulSmall/addSmall
	// already handle zero operands exactly.
	if a.isSmall() && b.isSmall() && c.isSmall() {
		if p, ok := mulSmall(b, c); ok {
			if s, ok := addSmall(a, p, 1); ok {
				return s
			}
		}
	}
	// Annihilator shortcuts next: they keep the mixed small/big path free
	// of big temporaries on the 0-heavy vectors of sparse solvers.
	if b.Sign() == 0 || c.Sign() == 0 {
		return a
	}
	if a.Sign() == 0 {
		return b.Mul(c).Reduce()
	}
	if !a.isBig() && !b.isBig() && !c.isBig() {
		// Medium-precision fusion with the product carried in 192-bit
		// intermediates, so only the final value needs to fit 128 bits.
		// Unlike the plain ops, the fused result is demoted to the lowest
		// tier that fits — that is its contract.
		if s, ok := muladdMed(a.med128(), b.med128(), c.med128()); ok {
			return s.rat().Reduce()
		}
	}
	prod := new(big.Rat).Mul(b.bigRef(), c.bigRef()) //stretch:alloc-ok — escape to big
	return Rat{r: prod.Add(prod, a.bigRef())}.Reduce()
}

// MulSub returns a - b·c with MulAdd's fused escape behaviour. Negating b
// is a sign flip in the small and medium forms, so the fusion is free
// there; a big b pays one extra big.Rat, on a path that allocates anyway.
func MulSub(a, b, c Rat) Rat { return MulAdd(a, b.Neg(), c) }

// Neg returns -a.
//
//stretch:noalloc
func (a Rat) Neg() Rat {
	if a.med {
		return mkMed(!a.neg, u128{a.nhi, uint64(a.num)}, u128{a.dhi, uint64(a.den)})
	}
	if a.r == nil {
		return small(-a.num, a.den)
	}
	return Rat{r: new(big.Rat).Neg(a.r)} //stretch:alloc-ok — escape to big
}

// Inv returns 1/a. It panics if a is zero.
//
//stretch:noalloc
func (a Rat) Inv() Rat {
	if a.Sign() == 0 {
		panic("rat: inverse of zero")
	}
	if a.med {
		return invMed(a.med128()).rat()
	}
	if a.r == nil {
		return invSmall(a)
	}
	return Rat{r: new(big.Rat).Inv(a.r)} //stretch:alloc-ok — escape to big
}

// Abs returns |a|.
//
//stretch:noalloc
func (a Rat) Abs() Rat {
	if a.Sign() < 0 {
		return a.Neg()
	}
	return a
}

// Sign returns -1, 0 or +1 according to the sign of a.
//
//stretch:noalloc
func (a Rat) Sign() int {
	if a.r != nil {
		return a.r.Sign()
	}
	if a.med {
		// Medium values are never zero.
		if a.neg {
			return -1
		}
		return 1
	}
	switch {
	case a.num > 0:
		return 1
	case a.num < 0:
		return -1
	}
	return 0
}

// Cmp compares a and b and returns -1, 0 or +1.
//
//stretch:noalloc
func (a Rat) Cmp(b Rat) int {
	if a.med || b.med {
		if !a.isBig() && !b.isBig() {
			return cmpMed(a.med128(), b.med128())
		}
		return a.bigRef().Cmp(b.bigRef())
	}
	if a.r == nil && b.r == nil {
		sa, sb := a.Sign(), b.Sign()
		switch {
		case sa != sb:
			if sa < sb {
				return -1
			}
			return 1
		case sa == 0:
			return 0
		}
		// Same nonzero sign: compare |an|·bd against |bn|·ad in 128 bits,
		// flipping the answer for negatives.
		an, ad := a.nd()
		bn, bd := b.nd()
		h1, l1 := bits.Mul64(absU(an), uint64(bd))
		h2, l2 := bits.Mul64(absU(bn), uint64(ad))
		c := 0
		switch {
		case h1 != h2:
			if h1 < h2 {
				c = -1
			} else {
				c = 1
			}
		case l1 != l2:
			if l1 < l2 {
				c = -1
			} else {
				c = 1
			}
		}
		if sa < 0 {
			c = -c
		}
		return c
	}
	return a.bigRef().Cmp(b.bigRef())
}

// Equal reports whether a == b.
func (a Rat) Equal(b Rat) bool { return a.Cmp(b) == 0 }

// Less reports whether a < b.
func (a Rat) Less(b Rat) bool { return a.Cmp(b) < 0 }

// LessEq reports whether a <= b.
func (a Rat) LessEq(b Rat) bool { return a.Cmp(b) <= 0 }

// Min returns the smaller of a and b.
//
//stretch:noalloc
func Min(a, b Rat) Rat {
	if a.Cmp(b) <= 0 {
		return a
	}
	return b
}

// Max returns the larger of a and b.
//
//stretch:noalloc
func Max(a, b Rat) Rat {
	if a.Cmp(b) >= 0 {
		return a
	}
	return b
}

// String formats a in exact "a/b" notation.
func (a Rat) String() string {
	if a.r != nil || a.med {
		return a.bigRef().RatString()
	}
	n, d := a.nd()
	if d == 1 {
		return strconv.FormatInt(n, 10)
	}
	return strconv.FormatInt(n, 10) + "/" + strconv.FormatInt(d, 10)
}

// Affine is the one-dimensional affine form A + B·x with exact coefficients.
// Epochal times in the offline solver are affine functions of the stretch
// objective F: release dates are constants, deadlines are r_j + F·p*_j.
type Affine struct {
	A Rat // constant term
	B Rat // slope
}

// Const returns the constant affine form c.
func Const(c Rat) Affine { return Affine{A: c} }

// Line returns the affine form a + b·x.
func Line(a, b Rat) Affine { return Affine{A: a, B: b} }

// Eval returns f(x) = A + B·x.
func (f Affine) Eval(x Rat) Rat { return f.A.Add(f.B.Mul(x)) }

// EvalFloat evaluates f at a float64 point in float arithmetic.
func (f Affine) EvalFloat(x float64) float64 { return f.A.Float() + f.B.Float()*x }

// Add returns f + g.
func (f Affine) Add(g Affine) Affine { return Affine{f.A.Add(g.A), f.B.Add(g.B)} }

// Sub returns f - g.
func (f Affine) Sub(g Affine) Affine { return Affine{f.A.Sub(g.A), f.B.Sub(g.B)} }

// Scale returns c·f.
func (f Affine) Scale(c Rat) Affine { return Affine{f.A.Mul(c), f.B.Mul(c)} }

// IsConst reports whether the slope of f is zero.
func (f Affine) IsConst() bool { return f.B.Sign() == 0 }

// Intersect returns the x at which f(x) == g(x) and whether it is unique
// (parallel lines have none or infinitely many; ok is false for both).
func (f Affine) Intersect(g Affine) (x Rat, ok bool) {
	db := f.B.Sub(g.B)
	if db.Sign() == 0 {
		return Rat{}, false
	}
	return g.A.Sub(f.A).Div(db), true
}

// Root returns the x at which f(x) == 0 and whether it is unique.
func (f Affine) Root() (Rat, bool) { return f.Intersect(Affine{}) }

func (f Affine) String() string {
	return fmt.Sprintf("%s + %s·x", f.A, f.B)
}

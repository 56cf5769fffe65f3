package lp

// revised.go implements the sparse revised simplex method behind Solve. A
// dense method would carry a full m×(n+m) matrix through every pivot, and
// System (1) constraint matrices are ~95% zeros at 20 sites. The revised
// method keeps the constraint matrix column-major sparse and untouched,
// represents the basis inverse as an eta file (product form of the
// inverse), and pays only O(nnz) per iteration:
//
//   - FTRAN (B⁻¹·column) and BTRAN (row·B⁻¹) apply the eta file to a dense
//     m-vector, skipping etas whose pivot entry is zero;
//   - pricing is partial Dantzig: a cursor scans a block of columns per
//     iteration, computing reduced costs as sparse dots against the BTRAN
//     vector, and falls back to Bland's least-index rule after a streak of
//     degenerate pivots so cycling terminates (the Bland guarantee);
//   - the eta file is periodically refactorised from the current basis,
//     which both bounds its length and, on the exact backend, resets the
//     accumulated rational entries to the clean factorisation of the
//     current basis.
//
// All arithmetic goes through Ops[T]; eta and solution updates use
// Ops.MulAdd so the exact backend's accumulate chains stay in rat's inline
// int64 form whenever the final values fit (see rat.MulAdd). A solve
// allocates its working state once; its iterations allocate nothing beyond
// the backend's own escapes.
//
// The solver is its own oracle: at the end of a solve, multipliers returns
// the final basis's duals, and Solve checks the result with them against
// the problem's rows (certify).

// maxIterFactor sets the iteration cap of each phase: maxIterFactor·(m+n+1).
const maxIterFactor = 200

// revisedRefactorEvery is the hard cap on etas appended since the last
// refactorisation. The primary trigger is nnz-based (see shouldRefactor):
// rebuild when the nonzeros appended since the last factorisation outweigh
// the factorisation itself, so the cadence adapts to instance structure —
// sparse pivots let the file run long, dense ones rebuild early. The eta
// cap backstops degenerate cases (many near-empty etas) so the file's
// length, and on the exact backend the accumulated magnitude of its
// rational entries, stay bounded regardless.
const revisedRefactorEvery = 64

// etaFile is a product-form basis inverse: B⁻¹ = E_k⁻¹ ⋯ E_1⁻¹, each
// E_j⁻¹ an identity matrix whose piv[j]-th column is the stored sparse eta
// vector (pivot entry included).
type etaFile[T any] struct {
	piv   []int // pivot row per eta
	start []int // CSR offsets into row/val; len(start) == len(piv)+1
	row   []int
	val   []T
}

func (e *etaFile[T]) reset() {
	e.piv = e.piv[:0]
	e.start = append(e.start[:0], 0)
	e.row = e.row[:0]
	e.val = e.val[:0]
}

func (e *etaFile[T]) len() int { return len(e.piv) }

// revised is the working state of one sparse revised-simplex solve.
type revised[T any] struct {
	ops  Ops[T]
	prob *Problem[T]

	m, n int // rows; structural+slack columns (artificial i is column n+i)

	// Column-major sparse constraint matrix of the structural and slack
	// columns, in standard equality form with b ≥ 0 (rows with negative
	// rhs are sign-flipped at build time).
	colStart []int
	colRow   []int
	colVal   []T
	b        []T

	basis []int // row -> basic column
	pos   []int // column -> basic row, or -1; len n+m
	xB    []T   // values of the basic variables, kept ≥ 0

	eta        etaFile[T]
	sinceRefac int  // etas appended since the last refactorisation
	baseNNZ    int  // eta-file nonzeros right after the last refactorisation
	refacs     int  // refactorisations this solve (cadence regression guard)
	failed     bool // refactorisation hit a float-singular basis; abort

	cost  []T // current phase cost per column, len n+m
	y     []T // BTRAN scratch (pricing vector)
	alpha []T // FTRAN scratch (pivot column)
	work  []T // refactorisation / rhs scratch

	pivoted  []bool // refactorisation row bitmap
	newBasis []int  // refactorisation basis reassignment

	cursor int // partial-pricing start column
	bland  bool
	streak int // consecutive degenerate pivots
	iters  int
}

// init binds a zero revised to p, allocates its arrays and builds the
// sparse column matrix.
func (rv *revised[T]) init(p *Problem[T]) {
	ops := p.ops
	rv.ops, rv.prob = ops, p
	m := len(p.cons)
	nSlack := 0
	for i := range p.cons {
		if p.cons[i].rel != EQ {
			nSlack++
		}
	}
	n := p.nvars + nSlack
	rv.m, rv.n = m, n

	// Count entries per column (structural from the sparse rows, one slack
	// entry per inequality row), then fill via prefix sums. Duplicate row
	// entries are kept; every consumer accumulates.
	nnz := nSlack
	for i := range p.cons {
		nnz += len(p.cons[i].vars)
	}
	rv.colStart = make([]int, n+1)
	cnt := rv.colStart
	for i := range p.cons {
		for _, v := range p.cons[i].vars {
			cnt[v+1]++
		}
	}
	slack := p.nvars
	for i := range p.cons {
		if p.cons[i].rel != EQ {
			cnt[slack+1]++
			slack++
		}
	}
	for j := 1; j <= n; j++ {
		cnt[j] += cnt[j-1]
	}
	rv.colRow = make([]int, nnz)
	rv.colVal = make([]T, nnz)
	rv.b = make([]T, m)
	// next[j] is the fill position of column j.
	next := make([]int, n+1)
	copy(next, cnt)
	slack = p.nvars
	for r := range p.cons {
		c := &p.cons[r]
		neg := ops.Sign(c.rhs) < 0
		rhs := c.rhs
		if neg {
			rhs = ops.Neg(rhs)
		}
		rv.b[r] = rhs
		for k, v := range c.vars {
			val := c.coefs[k]
			if neg {
				val = ops.Neg(val)
			}
			rv.colRow[next[v]] = r
			rv.colVal[next[v]] = val
			next[v]++
		}
		if c.rel != EQ {
			one := ops.One()
			if c.rel == GE {
				one = ops.Neg(one)
			}
			if neg {
				one = ops.Neg(one)
			}
			rv.colRow[next[slack]] = r
			rv.colVal[next[slack]] = one
			next[slack]++
			slack++
		}
	}

	rv.basis = make([]int, m)
	rv.pos = make([]int, n+m)
	for j := range rv.pos {
		rv.pos[j] = -1
	}
	rv.xB = make([]T, m)
	for r := 0; r < m; r++ {
		rv.basis[r] = n + r
		rv.pos[n+r] = r
		rv.xB[r] = rv.b[r]
	}
	rv.eta.reset()
	rv.cost = make([]T, n+m)
	rv.y = make([]T, m)
	rv.alpha = make([]T, m)
	rv.work = make([]T, m)
	rv.pivoted = make([]bool, m)
	rv.newBasis = make([]int, m)
}

// scatterCol writes column j (structural, slack or artificial) into the
// dense vector dst, accumulating duplicates.
//
//stretch:noalloc
func (rv *revised[T]) scatterCol(j int, dst []T) {
	ops := rv.ops
	for i := range dst {
		dst[i] = ops.Zero()
	}
	if j >= rv.n {
		dst[j-rv.n] = ops.One()
		return
	}
	for idx := rv.colStart[j]; idx < rv.colStart[j+1]; idx++ {
		r := rv.colRow[idx]
		dst[r] = ops.Add(dst[r], rv.colVal[idx])
	}
}

// ftran applies the eta file to x in place: x ← B⁻¹·x.
//
//stretch:noalloc
func (rv *revised[T]) ftran(x []T) {
	ops := rv.ops
	e := &rv.eta
	for k := 0; k < e.len(); k++ {
		r := e.piv[k]
		xr := x[r]
		if ops.Sign(xr) == 0 {
			continue
		}
		for idx := e.start[k]; idx < e.start[k+1]; idx++ {
			i := e.row[idx]
			if i == r {
				x[r] = ops.Mul(e.val[idx], xr)
			} else {
				x[i] = ops.MulAdd(x[i], e.val[idx], xr)
			}
		}
	}
}

// btran applies the transposed eta file to z in place: z ← z·B⁻¹.
//
//stretch:noalloc
func (rv *revised[T]) btran(z []T) {
	ops := rv.ops
	e := &rv.eta
	for k := e.len() - 1; k >= 0; k-- {
		s := ops.Zero()
		for idx := e.start[k]; idx < e.start[k+1]; idx++ {
			s = ops.MulAdd(s, z[e.row[idx]], e.val[idx])
		}
		z[e.piv[k]] = s
	}
}

// appendEta records the eta of a pivot on alpha at row r. A unit column
// (alpha == e_r) is the identity transformation and is skipped.
//
//stretch:noalloc
func (rv *revised[T]) appendEta(alpha []T, r int) {
	ops := rv.ops
	inv := ops.Div(ops.One(), alpha[r])
	unit := true
	for i := range alpha {
		if i != r && ops.Sign(alpha[i]) != 0 {
			unit = false
			break
		}
	}
	if unit && ops.Cmp(alpha[r], ops.One()) == 0 {
		return
	}
	e := &rv.eta
	e.piv = append(e.piv, r)
	for i := range alpha {
		switch {
		case i == r:
			e.row = append(e.row, r)
			e.val = append(e.val, inv)
		case ops.Sign(alpha[i]) != 0:
			e.row = append(e.row, i)
			e.val = append(e.val, ops.Neg(ops.Mul(alpha[i], inv)))
		}
	}
	e.start = append(e.start, len(e.row))
	rv.sinceRefac++
}

// reducedCost returns cost[j] − y·A_j for a structural or slack column.
//
//stretch:noalloc
func (rv *revised[T]) reducedCost(j int, y []T) T {
	ops := rv.ops
	d := rv.cost[j]
	for idx := rv.colStart[j]; idx < rv.colStart[j+1]; idx++ {
		d = ops.MulSub(d, y[rv.colRow[idx]], rv.colVal[idx])
	}
	return d
}

// price selects the entering column, or -1 at optimality. Partial Dantzig:
// scan blocks of columns from a moving cursor, stop at the first block that
// yields a candidate, pick its most negative reduced cost. Under Bland's
// rule the least-index negative column wins instead.
//
//stretch:noalloc
func (rv *revised[T]) price(y []T) int {
	ops := rv.ops
	n := rv.n
	if n == 0 {
		return -1
	}
	if rv.bland {
		for j := 0; j < n; j++ {
			if rv.pos[j] >= 0 {
				continue
			}
			if ops.Sign(rv.reducedCost(j, y)) < 0 {
				return j
			}
		}
		return -1
	}
	block := 64
	if nb := n / 16; nb > block {
		block = nb
	}
	enter := -1
	var best T
	j := rv.cursor % n
	for scanned := 0; scanned < n; {
		if rv.pos[j] < 0 {
			if d := rv.reducedCost(j, y); ops.Sign(d) < 0 &&
				(enter == -1 || ops.Cmp(d, best) < 0) {
				enter, best = j, d
			}
		}
		scanned++
		if j++; j == n {
			j = 0
		}
		if scanned%block == 0 && enter != -1 {
			break
		}
	}
	rv.cursor = j
	return enter
}

// ratioTest returns the leaving row for the entering column alpha, or -1
// when the column is unbounded. Ties break on the smallest basis index,
// which together with Bland's entering rule guarantees termination.
//
//stretch:noalloc
func (rv *revised[T]) ratioTest(alpha []T) int {
	ops := rv.ops
	leave := -1
	var bestRatio T
	for r := 0; r < rv.m; r++ {
		if ops.Sign(alpha[r]) <= 0 {
			continue
		}
		ratio := ops.Div(rv.xB[r], alpha[r])
		if leave == -1 || ops.Cmp(ratio, bestRatio) < 0 ||
			(ops.Cmp(ratio, bestRatio) == 0 && rv.basis[r] < rv.basis[leave]) {
			leave, bestRatio = r, ratio
		}
	}
	return leave
}

// pivot applies the basis change: column enter becomes basic in row leave,
// with alpha = B⁻¹·A_enter already computed.
//
//stretch:noalloc
func (rv *revised[T]) pivot(leave, enter int, alpha []T) {
	ops := rv.ops
	degenerate := ops.Sign(rv.xB[leave]) == 0
	theta := ops.Div(rv.xB[leave], alpha[leave])
	nTheta := ops.Neg(theta)
	for i := range rv.xB {
		if i == leave || ops.Sign(alpha[i]) == 0 {
			continue
		}
		v := ops.MulAdd(rv.xB[i], nTheta, alpha[i])
		if ops.Sign(v) < 0 {
			// Degenerate negative dust from float cancellation: the primal
			// simplex keeps xB ≥ 0 invariantly.
			v = ops.Zero()
		}
		rv.xB[i] = v
	}
	rv.xB[leave] = theta
	rv.appendEta(alpha, leave)
	rv.pos[rv.basis[leave]] = -1
	rv.basis[leave] = enter
	rv.pos[enter] = leave

	if degenerate {
		rv.streak++
		// A long degenerate streak risks cycling under Dantzig pricing;
		// Bland's rule cannot cycle. A later strict improvement proves the
		// vertex changed, so Dantzig can safely resume.
		if rv.streak > 4*(rv.m+rv.n) {
			rv.bland = true
		}
	} else {
		rv.streak = 0
		rv.bland = false
	}
}

// shouldRefactor reports whether the eta file has outgrown its usefulness.
// Every FTRAN/BTRAN pays the whole accumulated file; a rebuild replaces it
// with a fresh factorisation of the current basis (≈ baseNNZ nonzeros, as
// measured after the previous rebuild). Rebuilding therefore pays for
// itself within a few iterations once the *appended* nonzeros alone exceed
// a fresh file — the m slack term keeps small programs, whose rebuild
// overhead is proportionally larger, from thrashing. The eta-count cap
// bounds the file (and the exact backend's rational growth) when pivots
// are so sparse the nnz trigger would let it run indefinitely.
//
//stretch:noalloc
func (rv *revised[T]) shouldRefactor() bool {
	if rv.sinceRefac == 0 {
		return false
	}
	if rv.sinceRefac >= revisedRefactorEvery {
		return true
	}
	appended := len(rv.eta.row) - rv.baseNNZ
	return appended > rv.baseNNZ+rv.m
}

// refactorize rebuilds the eta file from scratch as the PFI factorisation
// of the current basis (one FTRAN + eta per row), reassigning basis rows as
// the elimination pivots dictate, and recomputes xB. On the exact backend
// this also resets the rational magnitude of the file: eta entries are
// derived from the current basis alone, not from the pivot history.
//
//stretch:noalloc
func (rv *revised[T]) refactorize() {
	m := rv.m
	rv.refacs++
	rv.eta.reset()
	for i := 0; i < m; i++ {
		rv.pivoted[i] = false
	}
	for r := 0; r < m; r++ {
		v := rv.basis[r]
		rv.scatterCol(v, rv.alpha)
		rv.ftran(rv.alpha)
		pr := rv.pickPivotRow(rv.alpha, r)
		if pr == -1 {
			// Numerically singular under the float tolerance — impossible
			// in exact arithmetic, where the basis is invertible by the
			// simplex invariant. The half-built file cannot be completed
			// consistently, so the solve aborts with IterLimit rather than
			// continue on corrupted arithmetic.
			rv.failed = true
			return
		}
		rv.appendEta(rv.alpha, pr)
		rv.pivoted[pr] = true
		rv.newBasis[pr] = v
	}
	copy(rv.basis, rv.newBasis[:m])
	for j := range rv.pos {
		rv.pos[j] = -1
	}
	for r, v := range rv.basis {
		rv.pos[v] = r
	}
	rv.recomputeXB()
	// Reset the cadence only now: appendEta counted the rebuild's own etas
	// into sinceRefac, and leaving that count in place would re-trigger a
	// refactorisation on the very next iteration once the basis holds
	// revisedRefactorEvery non-unit columns — every paper-scale basis does.
	// baseNNZ snapshots the fresh file's size for the nnz trigger the same
	// way: measured after the rebuild, so its own etas never count as
	// growth.
	rv.sinceRefac = 0
	rv.baseNNZ = len(rv.eta.row)
}

// recomputeXB solves B·xB = b through the current eta file.
//
//stretch:noalloc
func (rv *revised[T]) recomputeXB() {
	ops := rv.ops
	copy(rv.work, rv.b)
	rv.ftran(rv.work)
	for i := range rv.xB {
		v := rv.work[i]
		if ops.Sign(v) < 0 {
			v = ops.Zero()
		}
		rv.xB[i] = v
	}
}

// optimize runs revised simplex iterations under the current cost vector
// until optimality, unboundedness or the iteration cap. Refactorisation
// happens here, between iterations, never inside pivot: a refactorisation
// may permute basis rows, which callers that iterate over rows themselves
// (driveOutArtificials) must not observe mid-scan.
//
//stretch:noalloc
func (rv *revised[T]) optimize() Status {
	limit := maxIterFactor * (rv.m + rv.n + 1)
	for iter := 0; ; iter++ {
		if iter > limit {
			return IterLimit
		}
		rv.iters++
		if rv.shouldRefactor() {
			rv.refactorize()
			if rv.failed {
				return IterLimit
			}
		}
		rv.duals()
		enter := rv.price(rv.y)
		if enter == -1 {
			return Optimal
		}
		rv.scatterCol(enter, rv.alpha)
		rv.ftran(rv.alpha)
		leave := rv.ratioTest(rv.alpha)
		if leave == -1 {
			return Unbounded
		}
		rv.pivot(leave, enter, rv.alpha)
	}
}

// duals sets y = c_B·B⁻¹ under the current phase's costs (one BTRAN).
//
//stretch:noalloc
func (rv *revised[T]) duals() {
	for i, v := range rv.basis {
		rv.y[i] = rv.cost[v]
	}
	rv.btran(rv.y)
}

// multipliers returns the current basis's duals mapped back to the
// problem's rows, the y that certify checks. After a solve the cost vector
// is still the final phase's: the artificials' unit costs when phase 1
// proved the problem infeasible, the objective (negated when maximising)
// at an optimum. A row stored negated (negative rhs, see init) flips its
// multiplier. certify trusts none of this: any y that passes it is a
// proof.
//
//stretch:noalloc
func (rv *revised[T]) multipliers() []T {
	ops := rv.ops
	rv.duals()
	for r := range rv.prob.cons {
		if ops.Sign(rv.prob.cons[r].rhs) < 0 {
			rv.y[r] = ops.Neg(rv.y[r])
		}
	}
	return rv.y
}

// objective returns the current phase's objective value c_B·xB.
//
//stretch:noalloc
func (rv *revised[T]) objective() T {
	ops := rv.ops
	val := ops.Zero()
	for r, v := range rv.basis {
		val = ops.MulAdd(val, rv.cost[v], rv.xB[r])
	}
	return val
}

//stretch:noalloc
func (rv *revised[T]) solve() Solution[T] {
	ops := rv.ops

	// Phase 1: minimise the sum of the artificial variables.
	for j := 0; j < rv.n; j++ {
		rv.cost[j] = ops.Zero()
	}
	for j := rv.n; j < rv.n+rv.m; j++ {
		rv.cost[j] = ops.One()
	}
	status := rv.optimize()
	if status != Optimal {
		return Solution[T]{Status: status, Iterations: rv.iters}
	}
	if ops.Sign(rv.objective()) > 0 {
		return Solution[T]{Status: Infeasible, Iterations: rv.iters}
	}
	rv.driveOutArtificials()

	// Phase 2: the original objective (negated when maximising); artificial
	// columns never price in (price scans structural+slack only), and the
	// ones still basic sit at zero in rows proven dependent, where every
	// FTRAN entry stays zero.
	rv.setPhase2Costs()
	rv.cursor, rv.bland, rv.streak = 0, false, 0
	status = rv.optimize()
	if status != Optimal {
		return Solution[T]{Status: status, Iterations: rv.iters}
	}
	return rv.optimal()
}

// optimal assembles the Optimal solution at the current basis: the
// objective, negated back when maximising, and the structural values.
//
//stretch:noalloc
func (rv *revised[T]) optimal() Solution[T] {
	ops := rv.ops
	val := rv.objective()
	if rv.prob.maximize {
		val = ops.Neg(val)
	}
	x := make([]T, rv.prob.nvars) //stretch:alloc-ok — the returned solution
	for j := range x {
		x[j] = ops.Zero()
	}
	for r, v := range rv.basis {
		if v < rv.prob.nvars {
			x[v] = rv.xB[r]
		}
	}
	return Solution[T]{Status: Optimal, X: x, Objective: val, Iterations: rv.iters}
}

// driveOutArtificials pivots every artificial still basic after phase 1
// (necessarily at value zero) out of the basis where a structural or slack
// column can replace it; rows admitting no replacement are linearly
// dependent, and their FTRAN entry stays zero for every remaining column,
// so the parked artificial never re-enters play.
//
//stretch:noalloc
func (rv *revised[T]) driveOutArtificials() {
	ops := rv.ops
	for r := 0; r < rv.m; r++ {
		if rv.basis[r] < rv.n {
			continue
		}
		// rho = e_r · B⁻¹: row r of the inverse, for sparse dots against
		// candidate columns.
		for i := range rv.work {
			rv.work[i] = ops.Zero()
		}
		rv.work[r] = ops.One()
		rv.btran(rv.work)
		for j := 0; j < rv.n; j++ {
			if rv.pos[j] >= 0 {
				continue
			}
			d := ops.Zero()
			for idx := rv.colStart[j]; idx < rv.colStart[j+1]; idx++ {
				d = ops.MulAdd(d, rv.work[rv.colRow[idx]], rv.colVal[idx])
			}
			if ops.Sign(d) == 0 {
				continue
			}
			rv.scatterCol(j, rv.alpha)
			rv.ftran(rv.alpha)
			if ops.Sign(rv.alpha[r]) == 0 {
				continue // tolerance disagreement; try the next column
			}
			rv.pivot(r, j, rv.alpha)
			break
		}
	}
}

// pickPivotRow returns the elimination pivot row for the FTRAN'd column
// alpha: the preferred row when it is still unpivoted with a nonzero entry,
// otherwise the unpivoted row of largest magnitude (for float stability; on
// the exact backend any nonzero works), or -1 when no unpivoted row has a
// nonzero entry.
//
//stretch:noalloc
func (rv *revised[T]) pickPivotRow(alpha []T, prefer int) int {
	ops := rv.ops
	if prefer >= 0 && !rv.pivoted[prefer] && ops.Sign(alpha[prefer]) != 0 {
		return prefer
	}
	pr := -1
	var best T
	for i := 0; i < rv.m; i++ {
		if rv.pivoted[i] || ops.Sign(alpha[i]) == 0 {
			continue
		}
		av := alpha[i]
		if ops.Sign(av) < 0 {
			av = ops.Neg(av)
		}
		if pr == -1 || ops.Cmp(av, best) > 0 {
			pr, best = i, av
		}
	}
	return pr
}

// setPhase2Costs loads the problem's objective (negated when maximising)
// into the cost vector, zeroing slack and artificial costs.
//
//stretch:noalloc
func (rv *revised[T]) setPhase2Costs() {
	ops := rv.ops
	for j := 0; j < rv.n+rv.m; j++ {
		rv.cost[j] = ops.Zero()
	}
	for j := 0; j < rv.prob.nvars; j++ {
		c := rv.prob.obj[j]
		if rv.prob.maximize {
			c = ops.Neg(c)
		}
		rv.cost[j] = c
	}
}

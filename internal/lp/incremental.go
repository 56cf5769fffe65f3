package lp

// incremental.go implements the persistent warm-started solve session of
// the online path. A one-shot SolveRevisedWith builds the standard-form
// matrix, runs Phase I from the all-artificial basis and discards the
// factorisation when it returns; the online scheduler then does the whole
// dance again at the next event even though consecutive System (1)
// programs differ by one job's columns and bounds. Incremental[T] keeps
// the revised-simplex state — basis, eta file and pooled buffers — alive
// between solves and re-enters the simplex from the previous optimal
// basis. Solve rebuilds the matrix for the new program (every System (1)
// coefficient moves with the event time, so there is nothing to edit in
// place) but maps the retained basis onto it by caller-provided stable
// column/row identities, then repairs feasibility instead of running cold
// Phase I: primal-feasible bases go straight to Phase II, bases with
// negative basic values take dual-simplex repair steps (valid because the
// previous solve ended dual feasible and costs are re-derived per
// program), and bases whose surviving artificials carry value run a warm
// Phase I from the mapped basis rather than from scratch.
//
// Warm starting is an optimisation, never a semantic: every repair path
// that cannot certify the usual invariants returns ErrWarmStartFailed and
// the caller falls back to a cold solve of the same program, so warm and
// cold runs agree bit-for-bit on status and objective (the optimal *value*
// of an LP is unique under exact arithmetic; the vertex may differ). The
// fallbacks are counted in IncrementalStats, never silent.

import (
	"errors"
	"fmt"
)

// ErrWarmStartFailed reports that a warm-started solve could not repair
// primal or dual feasibility from the retained basis (singular mapped
// factorisation, dual-infeasible start, or a repair loop hitting its
// iteration cap). It is a fallback signal, not a result: the session
// resolves the same program cold and counts the event in Stats.
var ErrWarmStartFailed = errors.New("lp: warm start failed")

// IncrementalStats counts the outcomes of an incremental session's solves.
type IncrementalStats struct {
	Cold     int // cold two-phase solves (first solve, forced colds, fallback re-solves)
	Warm     int // warm-started solves that ran to a definitive status
	Fallback int // warm attempts abandoned with ErrWarmStartFailed

	ColdIters int // simplex iterations spent in cold solves
	WarmIters int // simplex iterations spent in warm solves (incl. warm Phase I)
	DualSteps int // dual-simplex repair pivots (not counted in WarmIters)

	WarmPhase1 int // warm solves that needed a warm Phase I (artificials carrying value)

	EtaLen, EtaNNZ       int // eta file length / nonzeros after the last solve
	MaxEtaLen, MaxEtaNNZ int // high-water marks across the session
}

// basisKey is the stable identity of one column across re-builds:
// structural columns by the caller's stable ID, slack and artificial
// columns by the stable ID of their row.
type basisKey struct {
	kind byte // 0 structural, 1 slack, 2 artificial
	id   int64
}

// Incremental is a persistent warm-started revised-simplex session. It owns
// a private Workspace whose solver state survives between solves; the
// Solution returned by any solve (including X) is owned by the session and
// overwritten by the next solve on it. Not safe for concurrent use.
type Incremental[T any] struct {
	ws    *Workspace[T]
	stats IncrementalStats

	haveBasis bool       // a retained optimal basis exists
	keys      []basisKey // retained basis, one stable key per row
	colKey    []basisKey // current internal column -> stable key (len n)
	rowID     []int64    // current row -> stable ID
	look      map[basisKey]int
	cand      []int // mapped candidate basis columns (scratch)

	costSave []T // phase-2 cost snapshot around a warm Phase I

	failNext int // test seam: force the next n warm attempts to fail
}

// NewIncremental returns an empty session; all solver state is allocated
// lazily on the first solve and reused afterwards.
func NewIncremental[T any]() *Incremental[T] {
	return &Incremental[T]{ws: NewWorkspace[T]()}
}

// Stats returns the session's outcome counters. The pointer is stable for
// the session's lifetime; callers wanting per-run numbers reset it.
func (inc *Incremental[T]) Stats() *IncrementalStats { return &inc.stats }

// Workspace returns the session's private solver workspace — the home of
// the exact backend's tier counters (Workspace.Tiers), which callers wire
// into their Problem's ops.
func (inc *Incremental[T]) Workspace() *Workspace[T] { return inc.ws }

// ForceWarmFailure makes the next n warm attempts return ErrWarmStartFailed
// before touching the retained basis — a test seam proving the cold
// fallback path is exercised and counted (see TestIncrementalForcedFallback
// and the offline session's counterpart).
func (inc *Incremental[T]) ForceWarmFailure(n int) { inc.failNext = n }

// Solve solves p, warm-starting from the retained basis when one exists.
// colIDs (len p nvars) and rowIDs (len constraints) are the caller's stable
// identities mapping this program's columns and rows to previous ones; nil
// means positional identity, which is only stable across programs of
// identical layout. On ErrWarmStartFailed the session falls back to a cold
// solve of the same program and counts the fallback. Statuses and typed
// errors are those of SolveRevisedWith.
func (inc *Incremental[T]) Solve(p *Problem[T], colIDs, rowIDs []int64) (*Solution[T], error) {
	if err := inc.checkIDs(p, colIDs, rowIDs); err != nil {
		return nil, err
	}
	if !inc.haveBasis {
		return inc.Cold(p, colIDs, rowIDs)
	}
	sol, err := inc.warm(p, colIDs, rowIDs)
	if errors.Is(err, ErrWarmStartFailed) {
		inc.stats.Fallback++
		return inc.Cold(p, colIDs, rowIDs)
	}
	inc.stats.Warm++
	inc.stats.WarmIters += inc.ws.rev.iters
	return sol, err
}

// Cold solves p from scratch (all-artificial Phase I), retaining the final
// basis and factorisation for the next warm start.
func (inc *Incremental[T]) Cold(p *Problem[T], colIDs, rowIDs []int64) (*Solution[T], error) {
	if err := inc.checkIDs(p, colIDs, rowIDs); err != nil {
		return nil, err
	}
	inc.stats.Cold++
	rv := &inc.ws.rev
	rv.init(p, inc.ws)
	sol := rv.solve()
	inc.stats.ColdIters += rv.iters
	inc.bind(p, colIDs, rowIDs)
	inc.finish(sol.Status)
	if sol.Status != Optimal {
		return sol, sol.Status.Err()
	}
	return sol, nil
}

func (inc *Incremental[T]) checkIDs(p *Problem[T], colIDs, rowIDs []int64) error {
	if colIDs != nil && len(colIDs) != p.nvars {
		return fmt.Errorf("lp: %d column IDs for %d variables", len(colIDs), p.nvars)
	}
	if rowIDs != nil && len(rowIDs) != len(p.cons) {
		return fmt.Errorf("lp: %d row IDs for %d constraints", len(rowIDs), len(p.cons))
	}
	return nil
}

// warm attempts a warm-started solve of p from the retained basis.
func (inc *Incremental[T]) warm(p *Problem[T], colIDs, rowIDs []int64) (*Solution[T], error) {
	if inc.failNext > 0 {
		inc.failNext--
		return nil, ErrWarmStartFailed
	}
	rv := &inc.ws.rev
	rv.init(p, inc.ws) // rebuilds the matrix; inc.keys still holds the old basis
	inc.bind(p, colIDs, rowIDs)

	// Map the retained basis onto the new program by stable identity.
	// Columns of completed jobs simply vanish from the lookup; new rows are
	// completed with their artificials by warmFactorize. Mapping quality
	// only affects repair length, never correctness: any basis is a legal
	// simplex starting point.
	if inc.look == nil {
		inc.look = map[basisKey]int{} //stretch:alloc-ok — lazy init, reused afterwards
	} else {
		clear(inc.look)
	}
	for j, k := range inc.colKey {
		inc.look[k] = j
	}
	for r := 0; r < rv.m; r++ {
		inc.look[basisKey{2, inc.rowID[r]}] = rv.n + r
	}
	inc.cand = inc.cand[:0]
	for _, k := range inc.keys {
		if j, ok := inc.look[k]; ok {
			inc.cand = append(inc.cand, j)
		}
	}
	if !rv.warmFactorize(inc.cand) {
		inc.haveBasis = false
		return nil, ErrWarmStartFailed
	}
	rv.setPhase2Costs()
	return inc.resume()
}

// resume repairs feasibility from the mapped basis and re-optimises,
// assuming a fresh factorisation and phase-2 costs in place.
func (inc *Incremental[T]) resume() (*Solution[T], error) {
	rv := &inc.ws.rev
	ops := rv.ops
	rv.clampXB = false
	rv.recomputeXB()

	neg, artBad := rv.classifyXB()
	if neg && rv.dualFeasible() {
		st, steps := rv.dualRepair()
		inc.stats.DualSteps += steps
		switch st {
		case Optimal:
			// Primal feasibility restored; dual feasibility held throughout.
			neg = false
			_, artBad = rv.classifyXB()
		case Infeasible:
			// A certified infeasibility ray: the verdict is intrinsic to the
			// program (artificial columns, which only enlarge the feasible
			// region, are excluded from entering), so it matches what a cold
			// solve would report.
			rv.clampXB = true
			inc.finish(Infeasible)
			return rv.solution(Solution[T]{Status: Infeasible, Iterations: rv.iters}), ErrInfeasible
		default:
			// Mid-repair stall (iteration limit, singular refactorisation):
			// the basis is still legal, so feasibility restoration below
			// gets a chance before we give up.
		}
	}
	if neg {
		// Not dual feasible either (the typical post-arrival state: new rows
		// covered by artificials while a bound shift pushed a retained basic
		// column negative). Restore primal feasibility structurally, then
		// let warm Phase I drive out whatever artificials remain.
		if !inc.restoreFeasible() {
			rv.clampXB = true
			inc.haveBasis = false
			return nil, ErrWarmStartFailed
		}
		_, artBad = rv.classifyXB()
	}
	rv.clampXB = true

	if artBad {
		// Surviving artificials carry value (a new row the mapped basis
		// does not cover, or a bound change on a dependent row): warm
		// Phase I from the current primal-feasible basis.
		inc.stats.WarmPhase1++
		inc.costSave = growSlice(inc.costSave, len(rv.cost))
		copy(inc.costSave, rv.cost)
		for j := 0; j < rv.n; j++ {
			rv.cost[j] = ops.Zero()
		}
		for j := rv.n; j < rv.n+rv.m; j++ {
			rv.cost[j] = ops.One()
		}
		rv.cursor, rv.bland, rv.streak = 0, false, 0
		st := rv.optimize()
		if st != Optimal || rv.failed {
			inc.haveBasis = false
			return nil, ErrWarmStartFailed
		}
		if ops.Sign(rv.objective()) > 0 {
			copy(rv.cost, inc.costSave)
			inc.finish(Infeasible)
			return rv.solution(Solution[T]{Status: Infeasible, Iterations: rv.iters}), ErrInfeasible
		}
		rv.driveOutArtificials()
		copy(rv.cost, inc.costSave)
	}

	rv.cursor, rv.bland, rv.streak = 0, false, 0
	st := rv.optimize()
	if st == IterLimit || rv.failed {
		// Path-dependent outcome a cold solve might not share; fall back.
		inc.haveBasis = false
		return nil, ErrWarmStartFailed
	}
	if st == Unbounded {
		inc.finish(Unbounded)
		return rv.solution(Solution[T]{Status: Unbounded, Iterations: rv.iters}), ErrUnbounded
	}
	sol := rv.optimal()
	inc.finish(Optimal)
	return sol, nil
}

// restoreFeasible repairs primal infeasibility of a mapped basis that is
// not dual feasible either: it evicts retained (non-artificial) basic
// columns sitting in negative rows and refactorises, repeating until no
// basic value is negative. Each round strictly shrinks the retained set, so
// the loop converges — in the worst case to the all-artificial basis, which
// is feasible because init sign-flips rows to make b ≥ 0. Returns false
// only when even the all-artificial basis is infeasible or a
// refactorisation goes singular.
//
//stretch:noalloc
func (inc *Incremental[T]) restoreFeasible() bool {
	rv := &inc.ws.rev
	ops := rv.ops
	for {
		evict := false
		inc.cand = inc.cand[:0]
		for r := 0; r < rv.m; r++ {
			v := rv.basis[r]
			if v >= rv.n {
				continue
			}
			if ops.Sign(rv.xB[r]) < 0 {
				evict = true
				continue
			}
			inc.cand = append(inc.cand, v) //stretch:alloc-ok — candidate scratch growth
		}
		if !evict {
			// Every negative row is already artificial-held; no structural
			// column to blame. Drop straight to the all-artificial basis.
			if len(inc.cand) == 0 {
				return false
			}
			inc.cand = inc.cand[:0]
		}
		if !rv.warmFactorize(inc.cand) {
			return false
		}
		rv.recomputeXB()
		if neg, _ := rv.classifyXB(); !neg {
			return true
		}
	}
}

// bind records the stable identities and layout of the freshly-built
// program: column keys for structural and slack columns, and row IDs.
func (inc *Incremental[T]) bind(p *Problem[T], colIDs, rowIDs []int64) {
	rv := &inc.ws.rev
	inc.colKey = growSlice(inc.colKey, rv.n)
	for j := 0; j < p.nvars; j++ {
		id := int64(j)
		if colIDs != nil {
			id = colIDs[j]
		}
		inc.colKey[j] = basisKey{0, id}
	}
	inc.rowID = growSlice(inc.rowID, rv.m)
	slack := p.nvars
	for r := range p.cons {
		id := int64(r)
		if rowIDs != nil {
			id = rowIDs[r]
		}
		inc.rowID[r] = id
		if p.cons[r].rel != EQ {
			inc.colKey[slack] = basisKey{1, id}
			slack++
		}
	}
}

// finish snapshots the basis by stable identity after a definitive solve.
// Only optimal bases are retained: they are primal and dual feasible, the
// invariants every warm branch starts from.
func (inc *Incremental[T]) finish(st Status) {
	rv := &inc.ws.rev
	inc.stats.EtaLen, inc.stats.EtaNNZ = rv.eta.len(), len(rv.eta.row)
	if inc.stats.EtaLen > inc.stats.MaxEtaLen {
		inc.stats.MaxEtaLen = inc.stats.EtaLen
	}
	if inc.stats.EtaNNZ > inc.stats.MaxEtaNNZ {
		inc.stats.MaxEtaNNZ = inc.stats.EtaNNZ
	}
	if st != Optimal {
		inc.haveBasis = false
		return
	}
	inc.keys = growSlice(inc.keys, rv.m)
	for r, v := range rv.basis {
		if v < rv.n {
			inc.keys[r] = inc.colKey[v]
		} else {
			inc.keys[r] = basisKey{2, inc.rowID[v-rv.n]}
		}
	}
	inc.haveBasis = true
}

// classifyXB scans the basic values: neg reports any negative entry, artBad
// any basic artificial carrying a nonzero value.
//
//stretch:noalloc
func (rv *revised[T]) classifyXB() (neg, artBad bool) {
	ops := rv.ops
	for r := 0; r < rv.m; r++ {
		s := ops.Sign(rv.xB[r])
		if s < 0 {
			neg = true
		}
		if s != 0 && rv.basis[r] >= rv.n {
			artBad = true
		}
	}
	return neg, artBad
}

// dualFeasible reports whether every nonbasic structural and slack column
// has a nonnegative reduced cost under the current (phase-2) costs — the
// precondition of dual-simplex repair.
//
//stretch:noalloc
func (rv *revised[T]) dualFeasible() bool {
	ops := rv.ops
	for i := 0; i < rv.m; i++ {
		rv.y[i] = rv.cost[rv.basis[i]]
	}
	rv.btran(rv.y)
	for j := 0; j < rv.n; j++ {
		if rv.pos[j] >= 0 {
			continue
		}
		if ops.Sign(rv.reducedCost(j, rv.y)) < 0 {
			return false
		}
	}
	return true
}

// dualRepair restores primal feasibility by dual-simplex pivots: the most
// negative basic value leaves, and the entering column minimises the dual
// ratio d_j / (-α_rj) over nonbasic columns with α_rj < 0, which keeps
// every reduced cost nonnegative. Artificial columns never enter (they are
// not part of the program), so a row with no eligible entering column is a
// certified infeasibility: some constraint combination cannot be met with
// nonnegative variables. Returns Optimal when all basic values are
// nonnegative again, Infeasible on a certificate, IterLimit when the cap or
// a numeric disagreement stops the repair (callers fall back cold).
// Requires clampXB off.
//
//stretch:noalloc
func (rv *revised[T]) dualRepair() (Status, int) {
	ops := rv.ops
	limit := maxIterFactor * (rv.m + rv.n + 1)
	steps := 0
	for {
		if steps > limit {
			return IterLimit, steps
		}
		if rv.shouldRefactor() {
			rv.refactorize()
			if rv.failed {
				return IterLimit, steps
			}
		}
		leave := -1
		var worst T
		for r := 0; r < rv.m; r++ {
			if ops.Sign(rv.xB[r]) >= 0 {
				continue
			}
			if leave == -1 || ops.Cmp(rv.xB[r], worst) < 0 {
				leave, worst = r, rv.xB[r]
			}
		}
		if leave == -1 {
			return Optimal, steps
		}
		// rho = e_leave · B⁻¹, the leaving row of the inverse, for sparse
		// dots against candidate columns; y for their reduced costs.
		for i := range rv.work {
			rv.work[i] = ops.Zero()
		}
		rv.work[leave] = ops.One()
		rv.btran(rv.work)
		for i := 0; i < rv.m; i++ {
			rv.y[i] = rv.cost[rv.basis[i]]
		}
		rv.btran(rv.y)
		enter := -1
		var bestRatio T
		for j := 0; j < rv.n; j++ {
			if rv.pos[j] >= 0 {
				continue
			}
			arj := ops.Zero()
			for idx := rv.colStart[j]; idx < rv.colStart[j+1]; idx++ {
				arj = ops.MulAdd(arj, rv.work[rv.colRow[idx]], rv.colVal[idx])
			}
			if ops.Sign(arj) >= 0 {
				continue
			}
			d := rv.reducedCost(j, rv.y)
			if ops.Sign(d) < 0 {
				// Dual feasibility holds up to the backend's tolerance;
				// treat tolerance-level negatives as zero.
				d = ops.Zero()
			}
			ratio := ops.Div(d, ops.Neg(arj))
			if enter == -1 || ops.Cmp(ratio, bestRatio) < 0 {
				enter, bestRatio = j, ratio
			}
		}
		if enter == -1 {
			return Infeasible, steps
		}
		rv.scatterCol(enter, rv.alpha)
		rv.ftran(rv.alpha)
		if ops.Sign(rv.alpha[leave]) >= 0 {
			// FTRAN disagrees with the BTRAN row under the float tolerance.
			return IterLimit, steps
		}
		rv.pivot(leave, enter, rv.alpha)
		steps++
	}
}

// warmFactorize rebuilds the eta file as a factorisation of the candidate
// basis columns (elimination order, dependent candidates dropped), then
// completes uncovered rows with artificial columns. Returns false when the
// completion is singular — the mapped basis cannot factor against the new
// matrix — which callers turn into ErrWarmStartFailed.
//
//stretch:noalloc
func (rv *revised[T]) warmFactorize(cand []int) bool {
	m := rv.m
	rv.refacs++
	rv.failed = false
	rv.eta.reset()
	for i := 0; i < m; i++ {
		rv.pivoted[i] = false
	}
	rv.newBasis = growIntSlice(rv.newBasis, m)
	placed := 0
	for _, v := range cand {
		if placed == m {
			break
		}
		rv.scatterCol(v, rv.alpha)
		rv.ftran(rv.alpha)
		pr := rv.pickPivotRow(rv.alpha, -1)
		if pr == -1 {
			continue // dependent on the columns already placed; drop it
		}
		rv.appendEta(rv.alpha, pr)
		rv.pivoted[pr] = true
		rv.newBasis[pr] = v
		placed++
	}
	for r := 0; r < m; r++ {
		if rv.pivoted[r] {
			continue
		}
		rv.scatterCol(rv.n+r, rv.alpha)
		rv.ftran(rv.alpha)
		pr := rv.pickPivotRow(rv.alpha, r)
		if pr == -1 {
			return false
		}
		rv.appendEta(rv.alpha, pr)
		rv.pivoted[pr] = true
		rv.newBasis[pr] = rv.n + r
	}
	copy(rv.basis, rv.newBasis[:m])
	for j := range rv.pos {
		rv.pos[j] = -1
	}
	for r, v := range rv.basis {
		rv.pos[v] = r
	}
	rv.sinceRefac = 0
	rv.baseNNZ = len(rv.eta.row)
	return true
}

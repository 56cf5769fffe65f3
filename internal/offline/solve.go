package offline

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"stretchsched/internal/lp"
	"stretchsched/internal/model"
	"stretchsched/internal/rat"
)

// Solver configures the optimal max-stretch computation.
type Solver struct {
	// Exact certifies the parametric-cut refinement (refineCut) with a
	// rational max-flow, so S* is returned as the rational optimum of
	// System (1); this eliminates the precision anomaly of §5.3. Without
	// it S* is the float64 Newton phase's saturation point.
	Exact bool
}

// Solution is an optimal max-stretch together with a witness allocation.
// The Solution and its Alloc are owned by the problem's workspace and
// overwritten by the next solve on it.
type Solution struct {
	Stretch      float64
	ExactStretch rat.Rat // set in Exact mode
	Alloc        *Alloc
}

// OptimalStretch computes the minimal achievable max-stretch of p and a
// deadline-respecting allocation achieving it.
//
// The search follows §4.3.1: feasibility of a target stretch F is monotone
// in F, so a binary search over the sorted milestones brackets the optimum
// inside one milestone interval, where the epochal-time ordering is fixed
// and the optimum is pinned down by Newton steps on parametric cuts
// (refineCut).
func (s *Solver) OptimalStretch(p *Problem) (*Solution, error) {
	sol, flo, fhi, err := s.bracket(p)
	if sol != nil || err != nil {
		return sol, err
	}
	return p.refineCut(flo, fhi, s.Exact)
}

// bracket runs the milestone binary search of §4.3.1 up to (but not
// including) the final refinement: it either finishes the solve outright
// (no tasks, or the lower bound is already feasible — non-nil Solution) or
// returns the bracketing interval [flo, fhi] for a refinement step to pin
// down. Shared by OptimalStretch and OracleStretch.
func (s *Solver) bracket(p *Problem) (*Solution, float64, float64, error) {
	if err := p.validate(); err != nil {
		return nil, 0, 0, err
	}
	if len(p.Tasks) == 0 {
		alloc := &p.pool().allocSolve
		alloc.prepare(p, 1, nil, 0, 0, 0)
		return p.solution(Solution{Stretch: 1, ExactStretch: rat.One, Alloc: alloc}), 0, 0, nil
	}

	lb := p.LowerBound()
	if p.Feasible(lb) {
		alloc, ok := p.solveFlow(lb)
		if !ok {
			return nil, 0, 0, fmt.Errorf("offline: allocation extraction failed at lower bound")
		}
		sol := p.solution(Solution{Stretch: lb, Alloc: alloc})
		if s.Exact {
			sol.ExactStretch = rat.FromFloat(lb)
		}
		return sol, 0, 0, nil
	}

	ub := p.UpperBound()
	for ub < math.Inf(1) && !p.Feasible(ub) {
		// UpperBound is feasible by construction; this loop is defensive
		// against float round-off at the boundary.
		ub *= 2
		if ub > 1e18 {
			return nil, 0, 0, fmt.Errorf("offline: no feasible stretch found")
		}
	}

	// Bracket the optimum between consecutive candidates. The candidate list
	// is copied out of the milestone scratch so appending the upper bound
	// cannot collide with it.
	ws := p.pool()
	candidates := append(ws.candidates[:0], p.Milestones(lb, ub)...)
	candidates = append(candidates, ub)
	ws.candidates = candidates
	slices.Sort(candidates)
	feasIdx := sort.Search(len(candidates), func(i int) bool {
		return p.Feasible(candidates[i])
	})
	if feasIdx == len(candidates) {
		return nil, 0, 0, fmt.Errorf("offline: feasibility not monotone (upper bound infeasible)")
	}
	fhi := candidates[feasIdx]
	flo := lb
	if feasIdx > 0 {
		flo = candidates[feasIdx-1]
	}
	return nil, flo, fhi, nil
}

// OracleStretch is the Exact-mode OptimalStretch with System (1) solved as
// a linear program on the rational simplex, whose every result is
// certified, in place of the parametric cut. System (1) has a unique
// optimum, so both return the same ExactStretch; this is the differential
// oracle of the cut's tests and no production path calls it.
func OracleStretch(p *Problem) (*Solution, error) {
	s := Solver{Exact: true}
	sol, flo, fhi, err := s.bracket(p)
	if sol != nil || err != nil {
		return sol, err
	}
	return p.refineExact(flo, fhi)
}

// refineExact solves System (1) on [flo, fhi] with exact rational
// arithmetic: minimise F subject to the interval-capacity and completion
// constraints, the interval bounds being affine functions of F with the
// ordering frozen inside the bracket.
func (p *Problem) refineExact(flo, fhi float64) (*Solution, error) {
	mid := flo + (fhi-flo)/2
	bounds := p.intervalAffines(mid)
	nT := len(bounds) - 1
	if nT <= 0 {
		return nil, fmt.Errorf("offline: empty interval structure")
	}
	m := p.Inst.Platform.NumMachines()
	n := len(p.Tasks)

	// Variable layout: x_{t,i,k} for admissible triples, then F last.
	vars, err := p.exactTriples(bounds, mid, flo, fhi, nil)
	if err != nil {
		return nil, err
	}
	varOf := map[exTriple]int{}
	for v, tr := range vars {
		varOf[tr] = v
	}
	fVar := len(vars)
	prob := lp.New[rat.Rat](lp.RatOps{}, fVar+1)
	prob.SetObjectiveCoef(fVar, rat.One)

	// flo ≤ F ≤ fhi.
	vs, cs := []int{fVar}, []rat.Rat{rat.One}
	prob.AddSparse(vs, cs, lp.GE, rat.FromFloat(flo))
	prob.AddSparse(vs, cs, lp.LE, rat.FromFloat(fhi))

	// Capacity: Σ_k x_{t,i,k} ≤ speed_i · len_t(F); len_t is affine in F.
	for t := 0; t < nT; t++ {
		lenA := bounds[t+1].A.Sub(bounds[t].A)
		lenB := bounds[t+1].B.Sub(bounds[t].B)
		for i := 0; i < m; i++ {
			vs, cs = vs[:0], cs[:0]
			for k := 0; k < n; k++ {
				if v, ok := varOf[exTriple{t, i, k}]; ok {
					vs = append(vs, v)
					cs = append(cs, rat.One)
				}
			}
			if len(vs) == 0 {
				continue
			}
			speed := rat.FromFloat(p.Inst.Platform.Machine(model.MachineID(i)).Speed)
			vs = append(vs, fVar)
			cs = append(cs, speed.Mul(lenB).Neg())
			prob.AddSparse(vs, cs, lp.LE, speed.Mul(lenA))
		}
	}
	// Completion: Σ_{t,i} x = Work_k.
	for k := 0; k < n; k++ {
		vs, cs = vs[:0], cs[:0]
		for vi, tr := range vars {
			if tr.k == k {
				vs = append(vs, vi)
				cs = append(cs, rat.One)
			}
		}
		prob.AddSparse(vs, cs, lp.EQ, rat.FromFloat(p.Tasks[k].Work))
	}

	sol, err := prob.Solve()
	if err != nil {
		return nil, fmt.Errorf("offline: System (1) refinement: %w", err)
	}
	fstar := sol.X[fVar]
	alloc := &p.pool().allocSolve
	alloc.prepare(p, fstar.Float(), nil, nT, m, n)
	for _, b := range bounds {
		alloc.Bounds = append(alloc.Bounds, b.Eval(fstar).Float())
	}
	for vi, tr := range vars {
		if w := sol.X[vi].Float(); w > 0 {
			alloc.Work[tr.t][tr.i][tr.k] += w
		}
	}
	return p.solution(Solution{Stretch: fstar.Float(), ExactStretch: fstar, Alloc: alloc}), nil
}

// affItem pairs an epochal-boundary affine with its value at the probe
// point, for the intervalAffines sort.
type affItem struct {
	aff rat.Affine
	val float64
}

// intervalAffines returns the epochal boundaries as affine functions of F,
// ordered by their value at the probe point fm (inside a milestone-free
// interval the order is constant). Boundaries strictly below the earliest
// release are dropped; duplicates (equal at fm, hence equal on the whole
// interval) are merged. The returned slice is workspace scratch, valid
// until the next exact refinement on the same workspace.
func (p *Problem) intervalAffines(fm float64) []rat.Affine {
	ws := p.pool()
	items, out := ws.exItems[:0], ws.exBounds[:0]
	minRel := math.Inf(1)
	for k := range p.Tasks {
		t := &p.Tasks[k]
		minRel = math.Min(minRel, t.Release)
		items = append(items,
			affItem{rat.Const(rat.FromFloat(t.Release)), t.Release},
			affItem{rat.Line(rat.FromFloat(t.DeadA), rat.FromFloat(t.DeadB)), t.Deadline(fm)})
	}
	slices.SortFunc(items, func(a, b affItem) int {
		switch {
		case a.val < b.val:
			return -1
		case a.val > b.val:
			return 1
		}
		return 0
	})
	var lastVal float64
	for _, it := range items {
		if it.val < minRel-1e-12*(1+math.Abs(minRel)) {
			continue
		}
		if len(out) > 0 && math.Abs(it.val-lastVal) <= 1e-12*(1+math.Abs(it.val)) {
			continue
		}
		out = append(out, it.aff)
		lastVal = it.val
	}
	ws.exItems, ws.exBounds = items, out
	return out
}

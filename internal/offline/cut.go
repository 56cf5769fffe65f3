package offline

import (
	"errors"
	"fmt"
	"math"

	"stretchsched/internal/flow"
	"stretchsched/internal/lp"
	"stretchsched/internal/model"
	"stretchsched/internal/rat"
)

// ErrCutSteps reports that the parametric-cut refinement took maxCutSteps
// exact max-flows without certifying S*. Every step moves to a cut with a
// strictly larger root, so reaching the cap means a defect, not a hard
// instance.
var ErrCutSteps = errors.New("offline: parametric cut refinement did not converge")

// maxCutSteps caps both phases of refineCut.
const maxCutSteps = 64

// exTriple identifies one System (1) variable x_{t,i,k}: interval t,
// machine i, task k — one task→bin edge of the refinement network.
type exTriple struct{ t, i, k int }

// cutNet is System (1)'s network inside one refinement bracket: the
// feasibility network of solveFlowBiased (source, tasks, (interval,
// machine) bins, sink) on the epochal order frozen at the bracket midpoint,
// with every bin→sink capacity an affine function of F. Edges are added in
// a fixed order — source edges by task, then one task→bin edge per triple,
// then one sink edge per used bin — so edge ids are positional and the
// float and rational graphs of one refinement share them.
type cutNet struct {
	n, m, sink int
	bounds     []rat.Affine // epochal boundaries as functions of F
	lo, hi     rat.Rat      // System (1)'s range for F (boxF)
	triples    []exTriple
	bins       []int        // used bin index t·m+i, ascending
	lines      []rat.Affine // per used bin: speed_i · len_t(F)
	linesF     [][2]float64 // lines in float64, for the float phase
	work       []rat.Rat    // per task: W_k
	total      rat.Rat      // Σ W_k
	side       []bool       // source side of the float phase's last useful cut
}

func (c *cutNet) binNode(bin int) int       { return 1 + c.n + bin }
func (c *cutNet) tripleBin(tr exTriple) int { return tr.t*c.m + tr.i }

// refineCut pins S* inside the bracket [flo, fhi] by discrete Newton
// iteration on parametric cuts (Radzik 1998; Gallo, Grigoriadis and Tarjan
// 1989). Inside the bracket the epochal order is fixed, so every cut C of
// the network has capacity a_C + b_C·F. Below the root (W − a_C)/b_C of a
// cut with b_C > 0 that cut holds the max-flow under the demand W, so each
// root is a lower bound on S*, and a root at which the max-flow ships W is
// S* itself.
//
// Both modes run the float phase: Dinic walks the roots from flo until the
// flow saturates or the root stops rising. In float mode S* is the F at
// which it saturated, and the witness is the feasibility flow at that F.
// When it never saturates at or below fhi, S* is fhi: the order is frozen
// on [flo, fhi), so no F below fhi ships W, and bracket proved fhi
// feasible.
//
// In exact mode the certificate (certify) takes the last cut's root in
// rationals, raised into System (1)'s range for F (boxF), and checks it
// with one rational max-flow; on a shortfall the exact residual cut has a
// strictly larger root and the loop repeats from there. The result is the
// rational System (1) returns on the simplex (refineExact, the tests'
// oracle).
func (p *Problem) refineCut(flo, fhi float64, exact bool) (*Solution, error) {
	c, ops, err := p.cutNetwork(flo, fhi)
	if err != nil {
		return nil, err
	}
	f, saturated := c.floatPhase(p, flo, fhi)
	if exact {
		x := c.lo
		if f > flo { // c.side holds a cut whose root is f
			if r, ok := c.root(c.side, ops); ok && r.Cmp(x) > 0 {
				x = r
			}
		}
		return p.certify(c, x, ops)
	}
	if !saturated {
		f = fhi
	}
	alloc, ok := p.solveFlow(f)
	if !ok {
		return nil, fmt.Errorf("offline: allocation extraction failed at F=%v", f)
	}
	return p.solution(Solution{Stretch: f, Alloc: alloc}), nil
}

// cutNetwork lays out System (1)'s network on the bracket [flo, fhi] and
// computes its range for F.
func (p *Problem) cutNetwork(flo, fhi float64) (*cutNet, lp.RatOps, error) {
	mid := flo + (fhi-flo)/2
	bounds := p.intervalAffines(mid)
	if len(bounds) < 2 {
		return nil, lp.RatOps{}, fmt.Errorf("offline: empty interval structure")
	}
	c, ops := p.cutScratch()
	if err := c.build(p, bounds, mid, flo, fhi, ops); err != nil {
		return nil, ops, err
	}
	var ok bool
	if c.lo, c.hi, ok = c.boxF(flo, fhi, ops); !ok {
		return nil, ops, errSystem1Infeasible
	}
	return c, ops, nil
}

// certify is the exact phase from a lower bound x ≥ c.lo on S*: it runs
// the rational max-flow at x and, on a shortfall, moves x to the root of
// the exact residual cut, until the flow ships W. The certified x is S*,
// and the certificate's edge flows are the witness allocation.
func (p *Problem) certify(c *cutNet, x rat.Rat, ops lp.RatOps) (*Solution, error) {
	var g *flow.Graph[rat.Rat]
	for step := 0; ; step++ {
		if step == maxCutSteps {
			return nil, ErrCutSteps
		}
		if x.Cmp(c.hi) > 0 {
			return nil, errSystem1Infeasible
		}
		g = p.ratGraph(c.sink + 1)
		c.fillRat(g, x, ops)
		if g.MaxFlow(0, c.sink).Cmp(c.total) >= 0 {
			break
		}
		r, ok := c.root(g.MinCutReachable(0), ops)
		if !ok {
			return nil, errSystem1Infeasible
		}
		x = r
	}

	alloc := &p.pool().allocSolve
	alloc.prepare(p, x.Float(), nil, len(c.bounds)-1, c.m, c.n)
	for _, b := range c.bounds {
		alloc.Bounds = append(alloc.Bounds, b.Eval(x).Float())
	}
	for j, tr := range c.triples {
		if w := g.EdgeFlow(2 * (c.n + j)); w.Sign() > 0 { // triple j's edge id
			alloc.Work[tr.t][tr.i][tr.k] += w.Float()
		}
	}
	return p.solution(Solution{Stretch: x.Float(), ExactStretch: x, Alloc: alloc}), nil
}

// errSystem1Infeasible is the status System (1) reports when no F in the
// bracket admits a feasible allocation.
var errSystem1Infeasible = fmt.Errorf("offline: System (1) refinement: %w", lp.ErrInfeasible)

// exactTriples lists System (1)'s variables on the bracket: for every task
// k, the (interval, machine) pairs whose interval lies inside k's window at
// the probe point mid and whose machine hosts k's databank. A task left
// without any is an error. The slice is appended to out[:0].
func (p *Problem) exactTriples(bounds []rat.Affine, mid, flo, fhi float64, out []exTriple) ([]exTriple, error) {
	out = out[:0]
	for k := range p.Tasks {
		tk := &p.Tasks[k]
		d := tk.Deadline(mid)
		first := len(out)
		for t := 0; t+1 < len(bounds); t++ {
			lo, hi := bounds[t].EvalFloat(mid), bounds[t+1].EvalFloat(mid)
			tol := 1e-12 * (1 + math.Abs(hi))
			if !(tk.Release <= lo+tol && d >= hi-tol) {
				continue
			}
			for _, mi := range p.eligible(k) {
				out = append(out, exTriple{t, int(mi), k})
			}
		}
		if len(out) == first {
			return out, fmt.Errorf("offline: task %d has no admissible slot in [%v,%v]", k, flo, fhi)
		}
	}
	return out, nil
}

// build lays out the network of p on the interval structure bounds.
func (c *cutNet) build(p *Problem, bounds []rat.Affine, mid, flo, fhi float64, ops lp.RatOps) error {
	nT := len(bounds) - 1
	c.bounds = bounds
	c.n, c.m = len(p.Tasks), p.Inst.Platform.NumMachines()
	c.sink = 1 + c.n + nT*c.m
	var err error
	if c.triples, err = p.exactTriples(bounds, mid, flo, fhi, c.triples); err != nil {
		return err
	}
	c.work = c.work[:0]
	c.total = rat.Zero
	for k := range p.Tasks {
		w := rat.FromFloat(p.Tasks[k].Work)
		c.work = append(c.work, w)
		c.total = ops.Add(c.total, w)
	}
	if cap(c.side) < c.sink+1 {
		c.side = make([]bool, c.sink+1)
	}
	c.side = c.side[:c.sink+1]
	used, _ := p.binScratch(c.sink + 1)
	for _, tr := range c.triples {
		used[c.binNode(c.tripleBin(tr))] = true
	}
	c.bins, c.lines, c.linesF = c.bins[:0], c.lines[:0], c.linesF[:0]
	for bin := 0; bin < nT*c.m; bin++ {
		if !used[c.binNode(bin)] {
			continue
		}
		t, i := bin/c.m, bin%c.m
		speed := rat.FromFloat(p.Inst.Platform.Machine(model.MachineID(i)).Speed)
		line := rat.Affine{
			A: ops.Mul(speed, ops.Sub(bounds[t+1].A, bounds[t].A)),
			B: ops.Mul(speed, ops.Sub(bounds[t+1].B, bounds[t].B)),
		}
		c.bins = append(c.bins, bin)
		c.lines = append(c.lines, line)
		c.linesF = append(c.linesF, [2]float64{line.A.Float(), line.B.Float()})
	}
	return nil
}

// boxF returns System (1)'s range for F: the bracket's rows flo ≤ F ≤ fhi,
// narrowed so that every used bin's capacity stays nonnegative, as its
// capacity row Σ_k x_{t,i,k} ≤ speed_i·len_t(F) with x ≥ 0 demands.
// Speeds are positive, so a bin's line has the sign of its interval's
// length. ok is false when the range is empty.
func (c *cutNet) boxF(flo, fhi float64, ops lp.RatOps) (lo, hi rat.Rat, ok bool) {
	lo, hi = rat.FromFloat(flo), rat.FromFloat(fhi)
	for _, l := range c.lines {
		switch l.B.Sign() {
		case 0:
			if l.A.Sign() < 0 {
				return lo, hi, false
			}
		case 1:
			if r := ops.Div(l.A, l.B).Neg(); r.Cmp(lo) > 0 {
				lo = r
			}
		default:
			if r := ops.Div(l.A, l.B).Neg(); r.Cmp(hi) < 0 {
				hi = r
			}
		}
	}
	return lo, hi, lo.Cmp(hi) <= 0
}

// floatPhase runs the Newton iteration in float64 from flo: max-flow at F,
// the residual-reachable cut, then F moves to that cut's root, until the
// flow saturates or the root stops rising or passes fhi. It returns the F
// it stopped at and whether the flow saturated there. Whenever F > flo,
// c.side holds the source side of the last cut with positive slope, whose
// root F is.
func (c *cutNet) floatPhase(p *Problem, flo, fhi float64) (f float64, saturated bool) {
	total := p.totalWork()
	f = flo
	for step := 0; step < maxCutSteps && f <= fhi; step++ {
		g := p.dinicGraph(c.sink+1, 1e-12*(1+total))
		for k := range p.Tasks {
			g.AddEdge(0, 1+k, p.Tasks[k].Work)
		}
		for _, tr := range c.triples {
			g.AddEdge(1+tr.k, c.binNode(c.tripleBin(tr)), p.Tasks[tr.k].Work)
		}
		for b, bin := range c.bins {
			l := c.linesF[b]
			g.AddEdge(c.binNode(bin), c.sink, math.Max(0, l[0]+l[1]*f))
		}
		got := g.MaxFlow(0, c.sink)
		if got >= total*(1-1e-9)-1e-12 {
			return f, true
		}
		side := g.MinCutReachable(0)
		slope := 0.0
		for b, bin := range c.bins {
			if side[c.binNode(bin)] {
				slope += c.linesF[b][1]
			}
		}
		if slope <= 0 {
			break
		}
		next := f + (total-got)/slope
		if !(next > f) {
			break
		}
		copy(c.side, side)
		f = next
	}
	return f, false
}

// fillRat adds the network's edges to g with exact capacities at F = x,
// which boxF guarantees are nonnegative.
func (c *cutNet) fillRat(g *flow.Graph[rat.Rat], x rat.Rat, ops lp.RatOps) {
	for k, w := range c.work {
		g.AddEdge(0, 1+k, w)
	}
	for _, tr := range c.triples {
		g.AddEdge(1+tr.k, c.binNode(c.tripleBin(tr)), c.work[tr.k])
	}
	for b, bin := range c.bins {
		l := c.lines[b]
		g.AddEdge(c.binNode(bin), c.sink, ops.MulAdd(l.A, l.B, x))
	}
}

// root returns the root (W − a_C)/b_C of the cut whose source side is side
// (the sink always counts as outside, so any side holding the source is a
// cut), with capacity a_C + b_C·F summed exactly over its crossing edges,
// and false when b_C ≤ 0: then no F above the current one can lift the cut
// to W.
func (c *cutNet) root(side []bool, ops lp.RatOps) (rat.Rat, bool) {
	var a, b rat.Rat
	for k, w := range c.work {
		if !side[1+k] {
			a = ops.Add(a, w)
		}
	}
	for _, tr := range c.triples {
		if side[1+tr.k] && !side[c.binNode(c.tripleBin(tr))] {
			a = ops.Add(a, c.work[tr.k])
		}
	}
	for i, bin := range c.bins {
		if side[c.binNode(bin)] {
			a, b = ops.Add(a, c.lines[i].A), ops.Add(b, c.lines[i].B)
		}
	}
	if b.Sign() <= 0 {
		return rat.Zero, false
	}
	return ops.Div(ops.Sub(c.total, a), b), true
}

// cutScratch returns the workspace's refinement network scratch and the
// rational ops its exact arithmetic runs on, which count into the
// workspace's tier counters (Workspace.TierStats).
func (p *Problem) cutScratch() (*cutNet, lp.RatOps) {
	ws := p.pool()
	if ws.rops.Tiers == nil {
		ws.rops.Tiers = &ws.tiers
	}
	return &ws.cut, ws.rops
}

// ratGraph is dinicGraph for the rational certificate, on the workspace's
// counted rational ops.
func (p *Problem) ratGraph(n int) *flow.Graph[rat.Rat] {
	ws := p.pool()
	if ws.exact == nil {
		ws.exact = flow.NewGraph[rat.Rat](&ws.rops, n)
	} else {
		ws.exact.Reset(&ws.rops, n)
	}
	return ws.exact
}

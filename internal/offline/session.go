package offline

import (
	"fmt"
	"math"
	"slices"

	"stretchsched/internal/lp"
	"stretchsched/internal/model"
	"stretchsched/internal/rat"
)

// Session is a persistent incremental System (1) solve session for a stream
// of related exact-mode problems — the per-event re-optimisations of the
// online algorithms, where consecutive problems differ by one job's rows
// and bounds.
//
// The session keeps the lp.Incremental warm-start state (basis, eta file,
// factorisation) alive across events and names every LP column and row
// with a stable identity derived from per-job slots: each job is assigned a
// slot on arrival (recycled through a free-list on completion), and slots —
// not per-event task indices — key the variable blocks, completion rows,
// and interval owners. The retained optimal basis therefore maps onto the
// next event's program even as jobs arrive and complete, and the simplex
// resumes from it instead of running cold Phase I. Warm-started solves are
// bit-identical in status and objective to cold solves of the same program
// (exact arithmetic; enforced by FuzzIncrementalDifferential); when warm
// feasibility repair fails the session falls back to a cold solve, counted
// in Stats().Fallback, never silent.
//
// A Session is single-goroutine, like the Workspace that owns it.
type Session struct {
	inc  *lp.Incremental[rat.Rat]
	prob *lp.Problem[rat.Rat]

	coldOnly bool

	// Stable slot assignment: slot → job, job → slot, recycled free slots,
	// per-event slot → task index (−1 when absent), and task index → slot.
	slots      []model.JobID
	slotOf     map[model.JobID]int
	free       []int
	taskOf     []int
	slotOfTask []int

	// Builder scratch, reused across events.
	colIDs []int64
	rowIDs []int64
	vars   []exTriple
	varOf  map[exTriple]int
	vs     []int
	cs     []rat.Rat
	items  []sessItem
	bounds []rat.Affine
	owner  []int64
}

// NewSession returns an empty session. Workspace.Session is the pooled
// accessor the online path uses.
func NewSession() *Session {
	return &Session{inc: lp.NewIncremental[rat.Rat]()}
}

// Stats exposes the underlying warm/cold/fallback counters.
func (ss *Session) Stats() *lp.IncrementalStats { return ss.inc.Stats() }

// Incremental exposes the underlying LP session (test seams such as
// ForceWarmFailure, and the tier counters on its workspace).
func (ss *Session) Incremental() *lp.Incremental[rat.Rat] { return ss.inc }

// SetColdOnly forces every solve on this session to run cold — the
// ablation baseline for the warm-start benchmarks and differential tests.
func (ss *Session) SetColdOnly(cold bool) { ss.coldOnly = cold }

// SessionState is the deterministic identity state of a session — the slot
// table that names every LP column and row across events. It deliberately
// excludes the lp.Incremental basis: warm-started solves are bit-identical
// in status and objective to cold solves of the same program (the fuzz-
// pinned invariant), so a restored session re-solving cold reproduces the
// decision-relevant outputs exactly, and the basis would be both large and
// representation-dependent to encode.
type SessionState struct {
	Slots []model.JobID // slot → job (stale entries for free slots)
	Live  []bool        // slot → currently assigned
	Free  []int         // free-list, recycled LIFO, order significant
}

// State snapshots the session's slot table for a checkpoint.
func (ss *Session) State() SessionState {
	st := SessionState{
		Slots: append([]model.JobID(nil), ss.slots...),
		Live:  make([]bool, len(ss.slots)),
		Free:  append([]int(nil), ss.free...),
	}
	for slot, id := range ss.slots {
		if cur, ok := ss.slotOf[id]; ok && cur == slot {
			st.Live[slot] = true
		}
	}
	return st
}

// Restore rebuilds the slot table from a checkpoint and resets the LP
// session, so the next solve runs cold on identically-named columns and
// rows — bit-identical in objective to the warm solve an uninterrupted
// session would have produced.
func (ss *Session) Restore(st SessionState) error {
	n := len(st.Slots)
	if len(st.Live) != n {
		return fmt.Errorf("offline: session restore: slot table lengths %d/%d disagree",
			n, len(st.Live))
	}
	for _, slot := range st.Free {
		if slot < 0 || slot >= n || st.Live[slot] {
			return fmt.Errorf("offline: session restore: bad free slot %d", slot)
		}
	}
	ss.slots = append(ss.slots[:0], st.Slots...)
	ss.free = append(ss.free[:0], st.Free...)
	ss.taskOf = append(ss.taskOf[:0], make([]int, n)...)
	for i := range ss.taskOf {
		ss.taskOf[i] = -1
	}
	ss.slotOf = make(map[model.JobID]int, n)
	for slot, id := range st.Slots {
		if st.Live[slot] {
			if _, dup := ss.slotOf[id]; dup {
				return fmt.Errorf("offline: session restore: job %d live in two slots", id)
			}
			ss.slotOf[id] = slot
		}
	}
	ss.inc = lp.NewIncremental[rat.Rat]()
	ss.prob = nil
	return nil
}

// OptimalStretch is Solver.OptimalStretch through the session: identical
// bracket search, but the exact refinement solves System (1) on the
// retained incremental LP session instead of a from-scratch program. Only
// the sparse exact path warm-starts; float-bisection and DenseLP
// configurations delegate to the one-shot solver unchanged.
func (ss *Session) OptimalStretch(s *Solver, p *Problem) (*Solution, error) {
	if !s.Exact || s.DenseLP {
		return s.OptimalStretch(p)
	}
	ss.assignSlots(p)
	sol, flo, fhi, err := s.bracket(p)
	if sol != nil || err != nil {
		return sol, err
	}
	return ss.refine(p, flo, fhi)
}

// assignSlots maps p's task set onto the session's slot table: new jobs
// take a slot (free-list first) and jobs gone since the last event release
// theirs. Task order within p is irrelevant — slots, assigned in
// first-arrival order, define the stable identities.
//
//stretch:noalloc
func (ss *Session) assignSlots(p *Problem) {
	if ss.slotOf == nil {
		ss.slotOf = make(map[model.JobID]int) //stretch:alloc-ok — lazy init
	}
	for i := range ss.taskOf {
		ss.taskOf[i] = -1
	}
	if cap(ss.slotOfTask) < len(p.Tasks) {
		ss.slotOfTask = make([]int, len(p.Tasks)) //stretch:alloc-ok — one-time growth
	}
	ss.slotOfTask = ss.slotOfTask[:len(p.Tasks)]
	for k := range p.Tasks {
		id := p.Tasks[k].Job
		slot, known := ss.slotOf[id]
		if !known {
			if n := len(ss.free); n > 0 {
				slot = ss.free[n-1]
				ss.free = ss.free[:n-1]
			} else {
				slot = len(ss.slots)
				ss.slots = append(ss.slots, 0)    //stretch:alloc-ok — slot-table growth
				ss.taskOf = append(ss.taskOf, -1) //stretch:alloc-ok — slot-table growth
			}
			ss.slots[slot] = id
			ss.slotOf[id] = slot
		}
		ss.taskOf[slot] = k
		ss.slotOfTask[k] = slot
	}
	for slot := range ss.slots {
		if ss.taskOf[slot] >= 0 {
			continue
		}
		id := ss.slots[slot]
		if cur, live := ss.slotOf[id]; live && cur == slot {
			delete(ss.slotOf, id)
			ss.free = append(ss.free, slot) //stretch:alloc-ok — free-list growth
		}
	}
}

// Stable identity encoding. Slots are bounded by the maximum number of
// concurrently active jobs (free slots are recycled), so 20 bits is far
// beyond any realistic event stream.
const (
	sessIDF    int64 = 1 // the F variable
	sessRowFLo int64 = 2 // F ≥ flo
	sessRowFHi int64 = 3 // F ≤ fhi
)

func sessColID(owner, machine, slot int64) int64 {
	return 1<<62 | owner<<40 | machine<<20 | slot
}

func sessCapRowID(owner, machine int64) int64 {
	return 1<<60 | owner<<20 | machine
}

func sessCplRowID(slot int64) int64 { return 1<<61 | slot }

// sessItem is affItem plus the boundary's owner key: kind bit (0 release,
// 1 deadline) over the owning job's slot. The key doubles as the sort
// tie-break, making the merged boundary structure — and with it every
// derived column/row identity — deterministic, which slices.SortFunc alone
// (unstable) would not give.
type sessItem struct {
	aff rat.Affine
	val float64
	key int64
}

// affines is intervalAffines with owner tracking: same probe-point
// ordering, below-release drop and duplicate merge, but each surviving
// boundary carries the owner key that names it across events.
//
//stretch:noalloc
func (ss *Session) affines(p *Problem, fm float64) ([]rat.Affine, []int64) {
	items := ss.items[:0]
	minRel := math.Inf(1)
	for k := range p.Tasks {
		t := &p.Tasks[k]
		slot := int64(ss.slotOfTask[k])
		minRel = math.Min(minRel, t.Release)
		items = append(items, //stretch:alloc-ok — scratch growth
			sessItem{rat.Const(rat.FromFloat(t.Release)), t.Release, slot},
			sessItem{rat.Line(rat.FromFloat(t.DeadA), rat.FromFloat(t.DeadB)), t.Deadline(fm), 1<<20 | slot})
	}
	slices.SortFunc(items, func(a, b sessItem) int { //stretch:alloc-ok — sort closure
		switch {
		case a.val < b.val:
			return -1
		case a.val > b.val:
			return 1
		case a.key < b.key:
			return -1
		case a.key > b.key:
			return 1
		}
		return 0
	})
	out, owner := ss.bounds[:0], ss.owner[:0]
	var lastVal float64
	for _, it := range items {
		if it.val < minRel-1e-12*(1+math.Abs(minRel)) {
			continue
		}
		if len(out) > 0 && math.Abs(it.val-lastVal) <= 1e-12*(1+math.Abs(it.val)) {
			continue
		}
		out = append(out, it.aff)     //stretch:alloc-ok — scratch growth
		owner = append(owner, it.key) //stretch:alloc-ok — scratch growth
		lastVal = it.val
	}
	ss.items, ss.bounds, ss.owner = items, out, owner
	return out, owner
}

// refine builds System (1) on [flo, fhi] exactly as Solver.refineExact
// does, but into the session's pooled LP with stable column/row IDs —
// variables in per-job slot blocks, completion rows keyed by slot, capacity
// rows and interval owners keyed by the interval's upper boundary — and
// solves it warm on the incremental session (cold when coldOnly is set).
func (ss *Session) refine(p *Problem, flo, fhi float64) (*Solution, error) {
	mid := flo + (fhi-flo)/2
	bounds, owner := ss.affines(p, mid)
	nT := len(bounds) - 1
	if nT <= 0 {
		return nil, fmt.Errorf("offline: empty interval structure")
	}
	m := p.Inst.Platform.NumMachines()
	n := len(p.Tasks)

	vars := ss.vars[:0]
	if ss.varOf == nil {
		ss.varOf = map[exTriple]int{}
	}
	varOf := ss.varOf
	clear(varOf)
	colIDs := ss.colIDs[:0]
	for slot := 0; slot < len(ss.taskOf); slot++ {
		k := ss.taskOf[slot]
		if k < 0 {
			continue
		}
		tk := &p.Tasks[k]
		d := tk.Deadline(mid)
		for t := 0; t < nT; t++ {
			lo, hi := bounds[t].EvalFloat(mid), bounds[t+1].EvalFloat(mid)
			tol := 1e-12 * (1 + math.Abs(hi))
			if !(tk.Release <= lo+tol && d >= hi-tol) {
				continue
			}
			for _, mi := range p.eligible(k) {
				varOf[exTriple{t, int(mi), k}] = len(vars)
				vars = append(vars, exTriple{t, int(mi), k})
				colIDs = append(colIDs, sessColID(owner[t+1], int64(mi), int64(slot)))
			}
		}
	}
	fVar := len(vars)
	colIDs = append(colIDs, sessIDF)
	if ss.prob == nil {
		// Tier counters live on the incremental session's LP workspace,
		// mirroring the refineExact wiring on Workspace.lpws.
		ss.prob = lp.New[rat.Rat](lp.RatOps{Tiers: ss.inc.Workspace().Tiers()}, fVar+1)
	} else {
		ss.prob.Reset(fVar + 1)
	}
	prob := ss.prob
	prob.SetObjectiveCoef(fVar, rat.One)

	rowIDs := ss.rowIDs[:0]
	vs, cs := append(ss.vs[:0], fVar), append(ss.cs[:0], rat.One)
	prob.AddSparse(vs, cs, lp.GE, rat.FromFloat(flo))
	rowIDs = append(rowIDs, sessRowFLo)
	prob.AddSparse(vs, cs, lp.LE, rat.FromFloat(fhi))
	rowIDs = append(rowIDs, sessRowFHi)

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
			rowIDs = append(rowIDs, sessCapRowID(owner[t+1], int64(i)))
		}
	}
	for slot := 0; slot < len(ss.taskOf); slot++ {
		k := ss.taskOf[slot]
		if k < 0 {
			continue
		}
		vs, cs = vs[:0], cs[:0]
		for vi := range vars {
			if vars[vi].k == k {
				vs = append(vs, vi)
				cs = append(cs, rat.One)
			}
		}
		if len(vs) == 0 {
			return nil, fmt.Errorf("offline: task %d has no admissible slot in [%v,%v]", k, flo, fhi)
		}
		prob.AddSparse(vs, cs, lp.EQ, rat.FromFloat(p.Tasks[k].Work))
		rowIDs = append(rowIDs, sessCplRowID(int64(slot)))
	}
	ss.vars, ss.colIDs, ss.rowIDs, ss.vs, ss.cs = vars, colIDs, rowIDs, vs, cs

	var sol *lp.Solution[rat.Rat]
	var err error
	if ss.coldOnly {
		sol, err = ss.inc.Cold(prob, colIDs, rowIDs)
	} else {
		sol, err = ss.inc.Solve(prob, colIDs, rowIDs)
	}
	if err != nil {
		return nil, fmt.Errorf("offline: System (1) refinement: %w", err)
	}
	fstar := sol.X[fVar]
	alloc := p.allocSlot(allocSolveSlot(p))
	alloc.prepare(p, fstar.Float(), nil, nT, m, n)
	alloc.Bounds = alloc.Bounds[:0]
	for _, b := range bounds {
		alloc.Bounds = append(alloc.Bounds, b.Eval(fstar).Float())
	}
	for vi := range vars {
		if w := sol.X[vi].Float(); w > 0 {
			tr := vars[vi]
			alloc.Work[tr.t][tr.i][tr.k] += w
		}
	}
	out := p.solution()
	*out = Solution{Stretch: fstar.Float(), ExactStretch: fstar, Alloc: alloc}
	return out, nil
}

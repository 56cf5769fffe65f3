package lp

import (
	"slices"
	"testing"

	"stretchsched/internal/rat"
)

// seqProblem builds one program of a family sharing a fixed shape (6 vars,
// 4 rows) whose right-hand sides and one cost drift with step — the shape
// of consecutive online re-solves, where positional identity is stable.
func seqProblem(step int) *Problem[rat.Rat] {
	p := New[rat.Rat](RatOps{}, 6)
	obj := []int64{1, 2, 1, 3, 1, 2}
	obj[2] += int64(step % 2)
	for j, c := range obj {
		p.SetObjectiveCoef(j, rat.FromInt(c))
	}
	row := func(coefs []int64, rel Rel, rhs int64) {
		cs := make([]rat.Rat, len(coefs))
		for i, c := range coefs {
			cs[i] = rat.FromInt(c)
		}
		p.AddDense(cs, rel, rat.FromInt(rhs))
	}
	row([]int64{1, 1, 1, 0, 0, 0}, GE, 2+int64(step))
	row([]int64{0, 0, 0, 1, 1, 0}, GE, 1+int64(step%3))
	row([]int64{1, 0, 0, 1, 0, 0}, LE, 10)
	row([]int64{0, 1, 0, 0, 1, 1}, EQ, 3)
	return p
}

func requireEqualSolve(t *testing.T, label string, got *Solution[rat.Rat], gerr error, want *Solution[rat.Rat], werr error) {
	t.Helper()
	if got.Status != want.Status {
		t.Fatalf("%s: status warm %v (err %v), cold %v (err %v)", label, got.Status, gerr, want.Status, werr)
	}
	if want.Status != Optimal {
		return
	}
	if !got.Objective.Equal(want.Objective) {
		t.Fatalf("%s: objective warm %v, cold %v", label, got.Objective, want.Objective)
	}
}

// TestIncrementalWarmEqualsColdSequence replays a drifting same-shape
// program family through one session and checks every solve against a cold
// solve: bit-equal status and objective, no fallbacks, warm solves actually
// happening.
func TestIncrementalWarmEqualsColdSequence(t *testing.T) {
	inc := NewIncremental[rat.Rat]()
	for step := 0; step < 8; step++ {
		got, gerr := inc.Solve(seqProblem(step), nil, nil)
		want, werr := seqProblem(step).SolveRevised()
		requireEqualSolve(t, "step", got, gerr, want, werr)
	}
	st := inc.Stats()
	if st.Warm != 7 || st.Cold != 1 {
		t.Fatalf("want 7 warm + 1 cold solves, got %+v", *st)
	}
	if st.Fallback != 0 {
		t.Fatalf("unexpected fallbacks: %+v", *st)
	}
}

// shapeProblem builds a program whose variable and row sets change between
// events, identified by stable IDs: variable ids carry their objective
// cost and one GE row each; arrivals add ids, completions remove them.
func shapeProblem(ids []int64) (*Problem[rat.Rat], []int64, []int64) {
	p := New[rat.Rat](RatOps{}, len(ids))
	rowIDs := make([]int64, 0, len(ids)+1)
	for j, id := range ids {
		p.SetObjectiveCoef(j, rat.FromInt(id))
	}
	// Shared capacity row (stable id 0): Σ x ≤ 50.
	vs := make([]int, len(ids))
	cs := make([]rat.Rat, len(ids))
	for j := range ids {
		vs[j], cs[j] = j, rat.One
	}
	p.AddSparse(vs, cs, LE, rat.FromInt(50))
	rowIDs = append(rowIDs, 0)
	// Per-variable completion row (stable id = variable id): x_j ≥ id.
	for j, id := range ids {
		p.AddSparse([]int{j}, []rat.Rat{rat.One}, GE, rat.FromInt(id))
		rowIDs = append(rowIDs, id)
	}
	return p, slices.Clone(ids), rowIDs
}

// TestIncrementalStableIDsAcrossShapeChange drives the session through
// arrival/completion-style shape changes mapped by stable column and row
// IDs, comparing every event against a cold solve.
func TestIncrementalStableIDsAcrossShapeChange(t *testing.T) {
	inc := NewIncremental[rat.Rat]()
	events := [][]int64{
		{2, 3, 5},
		{2, 3, 5, 7},    // arrival
		{2, 5, 7},       // completion
		{2, 5, 7, 9, 4}, // two arrivals
		{9, 4},          // two completions
	}
	for i, ids := range events {
		p, colIDs, rowIDs := shapeProblem(ids)
		got, gerr := inc.Solve(p, colIDs, rowIDs)
		pc, _, _ := shapeProblem(ids)
		want, werr := pc.SolveRevised()
		requireEqualSolve(t, "event", got, gerr, want, werr)
		if i == 0 {
			continue
		}
	}
	st := inc.Stats()
	if st.Warm == 0 {
		t.Fatalf("shape-change events never warm-started: %+v", *st)
	}
	if st.Fallback != 0 {
		t.Fatalf("unexpected fallbacks: %+v", *st)
	}
}

// TestIncrementalForcedFallback proves the ErrWarmStartFailed path is
// exercised and counted: a forced warm failure must fall back to a cold
// solve with an identical result, and the session must warm-start again
// afterwards.
func TestIncrementalForcedFallback(t *testing.T) {
	inc := NewIncremental[rat.Rat]()
	if _, err := inc.Solve(seqProblem(0), nil, nil); err != nil {
		t.Fatal(err)
	}
	inc.ForceWarmFailure(1)
	got, gerr := inc.Solve(seqProblem(1), nil, nil)
	want, werr := seqProblem(1).SolveRevised()
	requireEqualSolve(t, "fallback", got, gerr, want, werr)
	st := inc.Stats()
	if st.Fallback != 1 || st.Cold != 2 || st.Warm != 0 {
		t.Fatalf("want fallback=1 cold=2 warm=0, got %+v", *st)
	}
	if _, err := inc.Solve(seqProblem(2), nil, nil); err != nil {
		t.Fatal(err)
	}
	if st.Warm != 1 {
		t.Fatalf("session did not recover a warm basis after fallback: %+v", *st)
	}
}

// TestIncrementalSteadyStateAllocs gates the incremental path's hot loop:
// once warmed up, same-shape warm solves on the float backend allocate
// nothing.
func TestIncrementalSteadyStateAllocs(t *testing.T) {
	ops := Float64Ops{Eps: 1e-9}
	p := New[float64](ops, 6)
	coefs := make([]float64, 6)
	fill := func(step int) {
		p.Reset(6)
		obj := []float64{1, 2, 1, 3, 1, 2}
		for j, c := range obj {
			p.SetObjectiveCoef(j, c)
		}
		row := func(cs []float64, rel Rel, rhs float64) {
			copy(coefs, cs)
			p.AddDense(coefs, rel, rhs)
		}
		row([]float64{1, 1, 1, 0, 0, 0}, GE, float64(2+step%4))
		row([]float64{0, 0, 0, 1, 1, 0}, GE, float64(1+step%3))
		row([]float64{1, 0, 0, 1, 0, 0}, LE, 10)
		row([]float64{0, 1, 0, 0, 1, 1}, EQ, 3)
	}
	inc := NewIncremental[float64]()
	step := 0
	warmSolve := func() {
		fill(step)
		step++
		if _, err := inc.Solve(p, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		warmSolve()
	}
	if avg := testing.AllocsPerRun(20, warmSolve); avg != 0 {
		t.Errorf("warm Solve allocates %v allocs/op in steady state, want 0", avg)
	}
	if f := inc.Stats().Fallback; f != 0 {
		t.Fatalf("steady-state loop fell back %d times", f)
	}
}

// FuzzIncrementalWarmCold is the warm-vs-cold differential at the lp layer:
// an arbitrary decoded program is solved warm (after priming the session on
// a rhs-perturbed sibling) and cold, and the two must agree exactly on
// status and, when optimal, bit-equal objective — including the Infeasible
// and Unbounded verdicts the repair paths certify themselves.
func FuzzIncrementalWarmCold(f *testing.F) {
	f.Add([]byte{2, 2, 1, 16, 50, 5, 1, 7, 9, 200, 3})
	f.Add([]byte{3, 4, 0, 255, 128, 127, 0, 85, 170, 51, 204, 15, 2, 90, 33, 7, 211})
	f.Add([]byte{1, 1, 1, 129, 1, 3})
	f.Add([]byte{4, 3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17})
	f.Add([]byte{2, 2, 3, 16, 50, 5, 1, 7, 9, 200, 3})
	// x ≤ 4, x ≥ 5 after priming on the feasible x ≤ 5: the warm solve's
	// dual repair certifies the infeasibility.
	f.Add([]byte{0, 1, 0, 1, 1, 0, 4, 1, 1, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		inst, ok := decodeFuzzLP(data)
		if !ok {
			return
		}
		prime := inst
		prime.rhs = slices.Clone(inst.rhs)
		if len(prime.rhs) > 0 {
			prime.rhs[0]++
		}
		inc := NewIncremental[rat.Rat]()
		_, _ = inc.Solve(prime.build(), nil, nil) // non-optimal priming is fine: the next solve goes cold
		got, gerr := inc.Solve(inst.build(), nil, nil)
		want, werr := inst.build().SolveRevised()
		if got.Status != want.Status {
			t.Fatalf("status: warm %v (err %v), cold %v (err %v)", got.Status, gerr, want.Status, werr)
		}
		if want.Status != Optimal {
			return
		}
		if !got.Objective.Equal(want.Objective) {
			t.Fatalf("objective: warm %v, cold %v", got.Objective, want.Objective)
		}
	})
}

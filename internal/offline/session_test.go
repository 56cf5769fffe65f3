package offline

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"stretchsched/internal/model"
)

// sessionStream drives one arrival/completion/bound-change event stream
// over inst through both a warm and a cold-only session, asserting exact
// status/objective equality at every event. Returns the warm session for
// counter assertions.
func sessionStream(t *testing.T, inst *model.Instance, ops []byte) *Session {
	t.Helper()
	warm, cold := NewSession(), NewSession()
	cold.SetColdOnly(true)
	s := &Solver{Exact: true}

	nj := len(inst.Jobs)
	rem := make([]float64, nj)
	var active []int
	next := 0
	now := 0.0
	events := 0
	for _, op := range ops {
		if events >= 16 {
			break
		}
		now += 0.3
		switch op % 3 {
		case 0: // arrival
			if next >= nj {
				continue
			}
			rem[next] = inst.Jobs[next].Size
			active = append(active, next)
			next++
		case 1: // completion
			if len(active) == 0 {
				continue
			}
			active = slices.Delete(active, 0, 1)
		case 2: // remaining-work update
			if len(active) == 0 {
				continue
			}
			j := active[int(op)%len(active)]
			rem[j] = rem[j]/2 + 1e-3
		}
		if len(active) == 0 {
			continue
		}
		events++
		tasks := make([]Task, 0, len(active))
		for _, j := range active {
			tasks = append(tasks, Task{
				Job:     model.JobID(j),
				Release: now,
				Work:    rem[j],
				DeadA:   inst.Jobs[j].Release,
				DeadB:   inst.AloneTime(model.JobID(j)),
			})
		}
		p := &Problem{Inst: inst, Tasks: tasks}
		wsol, werr := warm.OptimalStretch(s, p)
		csol, cerr := cold.OptimalStretch(s, p)
		if (werr == nil) != (cerr == nil) {
			t.Fatalf("event %d: warm err %v, cold err %v", events, werr, cerr)
		}
		if werr != nil {
			continue
		}
		if !wsol.ExactStretch.Equal(csol.ExactStretch) {
			t.Fatalf("event %d: warm stretch %v, cold stretch %v",
				events, wsol.ExactStretch, csol.ExactStretch)
		}
		if wsol.Stretch != csol.Stretch {
			t.Fatalf("event %d: warm float stretch %v, cold %v", events, wsol.Stretch, csol.Stretch)
		}
	}
	if f := warm.Stats().Fallback; f != 0 {
		t.Fatalf("warm session fell back %d times on a plain stream", f)
	}
	return warm
}

// TestSessionEventStreamWarmEqualsCold is the deterministic core of the
// differential: a dense arrival/completion/update stream must warm-start
// and stay bit-identical to cold solves throughout.
func TestSessionEventStreamWarmEqualsCold(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	inst := randomFuzzInstance(rng)
	ops := []byte{0, 0, 5, 7, 4, 3, 9, 8, 6, 1, 0, 2}
	warm := sessionStream(t, inst, ops)
	st := warm.Stats()
	if st.Warm == 0 {
		t.Fatalf("stream never warm-started: %+v", *st)
	}
	if st.WarmPhase1 == 0 {
		t.Fatalf("arrivals never exercised warm Phase I: %+v", *st)
	}
}

// TestSessionDeltaBookkeeping pins the slot free-list reuse: surviving
// jobs keep their slots and an arrival takes a completed job's freed slot.
func TestSessionDeltaBookkeeping(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	inst := randomInstance(t, rng, 2, 2, 4)
	ss := NewSession()
	mk := func(ids []int, works []float64) *Problem {
		var tasks []Task
		for i, j := range ids {
			tasks = append(tasks, Task{
				Job: model.JobID(j), Release: 1, Work: works[i],
				DeadA: inst.Jobs[j].Release, DeadB: inst.AloneTime(model.JobID(j)),
			})
		}
		return &Problem{Inst: inst, Tasks: tasks}
	}
	ss.assignSlots(mk([]int{0, 1}, []float64{2, 3}))
	// Job 0 completes, job 1's work moves, job 2 arrives.
	ss.assignSlots(mk([]int{1, 2}, []float64{1.5, 4}))
	// Job 3 arrives and must reuse job 0's freed slot.
	ss.assignSlots(mk([]int{1, 2, 3}, []float64{1.5, 4, 2}))
	if got := ss.slotOf[model.JobID(3)]; got != 0 {
		t.Fatalf("job 3 took slot %d, want recycled slot 0", got)
	}
	if ss.slotOf[model.JobID(1)] != 1 || ss.slotOf[model.JobID(2)] != 2 {
		t.Fatalf("surviving jobs moved slots: %v", ss.slotOf)
	}
}

// TestSessionMatchesOneShotSolver checks the session against the
// pre-existing one-shot exact solver on full instances: same exact optimal
// stretch, warm on the repeat solve.
func TestSessionMatchesOneShotSolver(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := &Solver{Exact: true}
	for trial := 0; trial < 6; trial++ {
		inst := randomInstance(t, rng, 1+rng.Intn(3), 1+rng.Intn(2), 2+rng.Intn(5))
		ss := NewSession()
		want, werr := s.OptimalStretch(FromInstance(inst))
		got, gerr := ss.OptimalStretch(s, FromInstance(inst))
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("trial %d: one-shot err %v, session err %v", trial, werr, gerr)
		}
		if werr != nil {
			continue
		}
		if !got.ExactStretch.Equal(want.ExactStretch) {
			t.Fatalf("trial %d: session stretch %v, one-shot %v",
				trial, got.ExactStretch, want.ExactStretch)
		}
		// Same instance again: must resume from the retained basis.
		again, err := ss.OptimalStretch(s, FromInstance(inst))
		if err != nil {
			t.Fatalf("trial %d repeat: %v", trial, err)
		}
		if !again.ExactStretch.Equal(want.ExactStretch) {
			t.Fatalf("trial %d repeat: stretch %v, want %v", trial, again.ExactStretch, want.ExactStretch)
		}
		if st := ss.Stats(); st.Warm == 0 && st.Cold+st.Fallback > 1 {
			t.Fatalf("trial %d: repeat solve did not warm-start: %+v", trial, *st)
		}
	}
}

// TestSessionForcedFallback proves the counted cold-fallback path at the
// session level: a forced ErrWarmStartFailed must produce the same result
// through the fallback, with Stats().Fallback incremented.
func TestSessionForcedFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	inst := randomInstance(t, rng, 2, 2, 5)
	s := &Solver{Exact: true}
	ss := NewSession()
	if _, err := ss.OptimalStretch(s, FromInstance(inst)); err != nil {
		t.Fatal(err)
	}
	ss.Incremental().ForceWarmFailure(1)
	got, err := ss.OptimalStretch(s, FromInstance(inst))
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.OptimalStretch(FromInstance(inst))
	if err != nil {
		t.Fatal(err)
	}
	if !got.ExactStretch.Equal(want.ExactStretch) {
		t.Fatalf("fallback stretch %v, want %v", got.ExactStretch, want.ExactStretch)
	}
	st := ss.Stats()
	if st.Fallback != 1 {
		t.Fatalf("forced failure not counted as fallback: %+v", *st)
	}
}

// TestSessionDelegatesNonExact: the float-bisection and DenseLP
// configurations bypass the incremental machinery entirely.
func TestSessionDelegatesNonExact(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	inst := randomInstance(t, rng, 2, 1, 4)
	ss := NewSession()
	s := &Solver{}
	sol, err := ss.OptimalStretch(s, FromInstance(inst))
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.OptimalStretch(FromInstance(inst))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Stretch-want.Stretch) > 1e-12 {
		t.Fatalf("delegated stretch %v, want %v", sol.Stretch, want.Stretch)
	}
	if st := ss.Stats(); st.Cold != 0 || st.Warm != 0 {
		t.Fatalf("non-exact solve touched the incremental session: %+v", *st)
	}
}

// FuzzIncrementalDifferential replays random arrival/completion/
// bound-change event streams through a warm incremental session and a
// cold-only session and asserts exact status/objective equality at every
// event, with zero fallbacks (ISSUE 7 satellite: warm-vs-cold equivalence).
func FuzzIncrementalDifferential(f *testing.F) {
	f.Add(int64(1), []byte{0, 0, 2, 1, 0, 2, 1, 0})
	f.Add(int64(2), []byte{0, 0, 0, 0, 1, 1, 1, 1})
	f.Add(int64(3), []byte{0, 2, 2, 2, 0, 1, 2, 0, 1, 2})
	f.Add(int64(42), []byte{0, 0, 5, 7, 4, 3, 9, 8, 6, 1, 0, 2})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 24 {
			ops = ops[:24]
		}
		rng := rand.New(rand.NewSource(seed))
		inst := randomFuzzInstance(rng)
		sessionStream(t, inst, ops)
	})
}

// randomFuzzInstance is randomInstance without the testing.T plumbing (the
// fuzz target builds instances inside the fuzz function).
func randomFuzzInstance(rng *rand.Rand) *model.Instance {
	nm, nb, nj := 1+rng.Intn(2), 1+rng.Intn(2), 3+rng.Intn(6)
	ms := make([]model.Machine, nm)
	for i := range ms {
		var banks []model.DatabankID
		for b := 0; b < nb; b++ {
			if i == 0 || rng.Float64() < 0.6 {
				banks = append(banks, model.DatabankID(b))
			}
		}
		ms[i] = model.Machine{Speed: 0.5 + 2*rng.Float64(), Databanks: banks}
	}
	p, err := model.NewPlatform(ms, nb)
	if err != nil {
		panic(err)
	}
	jobs := make([]model.Job, nj)
	for j := range jobs {
		jobs[j] = model.Job{
			Release:  rng.Float64() * 4,
			Size:     0.5 + 4*rng.Float64(),
			Databank: model.DatabankID(rng.Intn(nb)),
		}
	}
	inst, err := model.NewInstance(p, jobs)
	if err != nil {
		panic(err)
	}
	return inst
}

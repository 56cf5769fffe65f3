package online

import (
	"errors"
	"math"
	"testing"

	"stretchsched/internal/model"
	"stretchsched/internal/offline"
	"stretchsched/internal/sim"
)

// TestEGDFSurfacesSolveFailures is the EGDF counterpart of
// offline.TestPlannerSurfacesRefineError: a forced step-2 failure must be
// counted and retrievable — not silently absorbed by the keep-previous-
// order fallback — while the run still completes every job.
func TestEGDFSurfacesSolveFailures(t *testing.T) {
	inst := randomInstance(t, 611, 2, 2, 8)
	boom := errors.New("forced optimal-stretch failure")

	e := NewEGDF()
	e.solve = func(*offline.Solver, *offline.Problem) (*offline.Solution, error) {
		return nil, boom
	}
	sched, err := sim.RunList(inst, e)
	if err != nil {
		t.Fatal(err)
	}
	for j, c := range sched.Completion {
		if c <= 0 {
			t.Fatalf("job %d never completed despite the fallback order", j)
		}
	}
	se, re := e.SolveFailures()
	if se == 0 {
		t.Fatal("forced step-2 failures were not counted")
	}
	if re != 0 {
		t.Fatalf("refineErrs = %d without a refine failure", re)
	}
	if !errors.Is(e.LastStretchErr(), boom) {
		t.Fatalf("LastStretchErr = %v, want the forced failure", e.LastStretchErr())
	}

	// Counters are per-run: Init must clear them.
	e.Init(inst)
	if se, re := e.SolveFailures(); se != 0 || re != 0 || e.LastStretchErr() != nil {
		t.Fatalf("Init left counters (%d, %d, %v)", se, re, e.LastStretchErr())
	}
}

// TestEGDFSurfacesRefineFailures: a forced step-3 failure falls back to
// ranking the unrefined allocation — recorded, with the run completing and
// the schedule matching what a never-refining EGDF computes.
func TestEGDFSurfacesRefineFailures(t *testing.T) {
	inst := randomInstance(t, 613, 2, 2, 8)
	boom := errors.New("forced refine failure")

	e := NewEGDF()
	e.refine = func(*offline.Problem, float64) (*offline.Alloc, error) {
		return nil, boom
	}
	sched, err := sim.RunList(inst, e)
	if err != nil {
		t.Fatal(err)
	}
	for j, c := range sched.Completion {
		if c <= 0 {
			t.Fatalf("job %d never completed", j)
		}
	}
	se, re := e.SolveFailures()
	if re == 0 {
		t.Fatal("forced refine failures were not counted")
	}
	if se != 0 {
		t.Fatalf("stretchErrs = %d without a stretch failure", se)
	}
	if !errors.Is(e.LastRefineErr(), boom) {
		t.Fatalf("LastRefineErr = %v, want the forced failure", e.LastRefineErr())
	}
}

// TestEGDFRankingSteadyStateAllocs gates the pooled ranking path: with a
// workspace attached, replaying Online-EGDF through one engine must not
// allocate at all in steady state — the rank map, the GlobalOrder output
// and its sort scratch are all reused across arrival events and runs
// (companion of core.TestUnwiredSchedulersSteadyStateAllocs).
func TestEGDFRankingSteadyStateAllocs(t *testing.T) {
	inst := randomInstance(t, 97, 2, 2, 10)
	eng := sim.NewEngine()
	e := NewEGDF()
	e.SetWorkspace(offline.NewWorkspace())
	if _, err := eng.RunList(inst, e); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := eng.RunList(inst, e); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state EGDF run allocates %.1f objects/op, want 0", allocs)
	}
}

// TestBender98SurfacesSolveFailures is the Bender98 counterpart of
// TestEGDFSurfacesSolveFailures: a failed per-arrival offline solve keeps
// the previous deadlines, but it is counted — so experiment diagnostics and
// stretchd's /metrics see it — while the run still completes every job.
func TestBender98SurfacesSolveFailures(t *testing.T) {
	inst := randomInstance(t, 617, 2, 2, 8)
	boom := errors.New("forced offline-solve failure")

	b := NewBender98()
	b.solve = func(*offline.Solver, *offline.Problem) (*offline.Solution, error) { return nil, boom }
	sched, err := sim.RunList(inst, b)
	if err != nil {
		t.Fatal(err)
	}
	for j, c := range sched.Completion {
		if c <= 0 {
			t.Fatalf("job %d never completed despite the kept deadlines", j)
		}
	}
	if se, re := b.SolveFailures(); se == 0 || re != 0 {
		t.Fatalf("SolveFailures = (%d, %d), want forced step-2 failures counted and no refine failures", se, re)
	}

	// Counters are per-run: Init clears them, and a healthy run counts none.
	b.Init(inst)
	if se, re := b.SolveFailures(); se != 0 || re != 0 {
		t.Fatalf("Init left counters (%d, %d)", se, re)
	}
	b.solve = nil
	if _, err := sim.RunList(inst, b); err != nil {
		t.Fatal(err)
	}
	if se, _ := b.SolveFailures(); se != 0 {
		t.Fatalf("healthy run counted %d step-2 failures", se)
	}
}

// TestMissedArrivalIntoRecycledSlotResolves: on a stream, a policy can
// miss events while the serving backlog guard runs its fallback. Here a
// completion and an arrival into the freed slot happen between two
// OnEvents, so the live count is the one the policy last saw. Online-EGDF
// and Bender98 must still re-solve, counted through the solve seam: their
// ranks and deadlines describe the slot's previous job. A completion with
// no arrival must not re-solve: §4.3.2 re-solves at arrivals only.
func TestMissedArrivalIntoRecycledSlotResolves(t *testing.T) {
	p, err := model.Uniform([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		mk   func(seam func(*offline.Solver, *offline.Problem) (*offline.Solution, error)) sim.Policy
	}{
		{"Online-EGDF", func(seam func(*offline.Solver, *offline.Problem) (*offline.Solution, error)) sim.Policy {
			e := NewEGDF()
			e.solve = seam
			return e
		}},
		{"Bender98", func(seam func(*offline.Solver, *offline.Problem) (*offline.Solution, error)) sim.Policy {
			b := NewBender98()
			b.solve = seam
			return b
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			solves := 0
			pol := tc.mk(func(s *offline.Solver, prob *offline.Problem) (*offline.Solution, error) {
				solves++
				return s.OptimalStretch(prob)
			})
			st := model.NewStream(p)
			pol.Init(st.Instance())
			d := sim.NewDriver(st.Instance())
			arrive := func(size float64) model.JobID {
				id, err := st.Add(model.Job{Release: d.Now(), Size: size, Databank: 0})
				if err != nil {
					t.Fatal(err)
				}
				d.Arrive(id, size)
				return id
			}
			arrive(4)
			arrive(8)
			d.Replan(pol)
			if solves != 1 {
				t.Fatalf("%d solves after the first two arrivals, want 1", solves)
			}
			// Another policy serves the gap: one job completes and a new
			// job takes its slot, all without an OnEvent of pol.
			id, _, ok := d.AdvanceToNext(math.Inf(1))
			if !ok {
				t.Fatal("nothing running after the first replan")
			}
			d.Complete(id)
			if err := st.Remove(id); err != nil {
				t.Fatal(err)
			}
			if got := arrive(1); got != id {
				t.Fatalf("new job in slot %d, want recycled slot %d", got, id)
			}
			d.Replan(pol)
			if solves != 2 {
				t.Fatalf("%d solves after a missed arrival into a recycled slot, want 2", solves)
			}
			// No event since: nothing to re-solve.
			d.Replan(pol)
			if solves != 2 {
				t.Fatalf("%d solves after an event-free replan, want 2", solves)
			}
			// A completion without an arrival keeps the ranks and deadlines.
			id, _, ok = d.AdvanceToNext(math.Inf(1))
			if !ok {
				t.Fatal("nothing running after the second replan")
			}
			d.Complete(id)
			if err := st.Remove(id); err != nil {
				t.Fatal(err)
			}
			d.Replan(pol)
			if solves != 2 {
				t.Fatalf("%d solves after a completion without an arrival, want 2", solves)
			}
		})
	}
}

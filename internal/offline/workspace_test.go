package offline

import (
	"testing"

	"stretchsched/internal/sim"
)

// TestWorkspaceMatchesFresh interleaves instances of different sizes through
// one shared workspace and checks every solver product — optimal stretch,
// witness allocation, System (2) refinement, realised plan — is identical
// to that of a problem built without one, which solves on a fresh private
// workspace. This is the semantic contract of the pooling: reusing the
// workspace's grown and shrunk buffers only changes where they live.
func TestWorkspaceMatchesFresh(t *testing.T) {
	ws := NewWorkspace()
	var solver Solver
	for i, nJobs := range []int{10, 3, 14, 1, 8} {
		inst := plannerTestInstance(t, 100+int64(i), nJobs)

		fresh := FromInstance(inst)
		pooled := ws.FromInstance(inst)
		fsol, err := solver.OptimalStretch(fresh)
		if err != nil {
			t.Fatal(err)
		}
		psol, err := solver.OptimalStretch(pooled)
		if err != nil {
			t.Fatal(err)
		}
		if fsol.Stretch != psol.Stretch {
			t.Fatalf("jobs=%d: pooled stretch %v, fresh %v", nJobs, psol.Stretch, fsol.Stretch)
		}
		if len(fsol.Alloc.Bounds) != len(psol.Alloc.Bounds) {
			t.Fatalf("jobs=%d: bounds length %d vs %d",
				nJobs, len(psol.Alloc.Bounds), len(fsol.Alloc.Bounds))
		}
		for b := range fsol.Alloc.Bounds {
			if fsol.Alloc.Bounds[b] != psol.Alloc.Bounds[b] {
				t.Fatalf("jobs=%d: bound %d differs", nJobs, b)
			}
		}
		for ti := range fsol.Alloc.Work {
			for mi := range fsol.Alloc.Work[ti] {
				for k := range fsol.Alloc.Work[ti][mi] {
					if fsol.Alloc.Work[ti][mi][k] != psol.Alloc.Work[ti][mi][k] {
						t.Fatalf("jobs=%d: work[%d][%d][%d] differs", nJobs, ti, mi, k)
					}
				}
			}
		}

		frefined, ferr := fresh.Refine(fsol.Stretch)
		prefined, perr := pooled.Refine(psol.Stretch)
		if (ferr == nil) != (perr == nil) {
			t.Fatalf("jobs=%d: refine error mismatch: %v vs %v", nJobs, perr, ferr)
		}
		if ferr == nil {
			fplan, err := frefined.Realize(TerminalSWRPT)
			if err != nil {
				t.Fatal(err)
			}
			pplan, err := prefined.Realize(TerminalSWRPT)
			if err != nil {
				t.Fatal(err)
			}
			if len(fplan.PerMachine) != len(pplan.PerMachine) {
				t.Fatalf("jobs=%d: plan machine counts differ", nJobs)
			}
			for mi := range fplan.PerMachine {
				if len(fplan.PerMachine[mi]) != len(pplan.PerMachine[mi]) {
					t.Fatalf("jobs=%d machine %d: %d slices pooled, %d fresh", nJobs, mi,
						len(pplan.PerMachine[mi]), len(fplan.PerMachine[mi]))
				}
				for s := range fplan.PerMachine[mi] {
					if fplan.PerMachine[mi][s] != pplan.PerMachine[mi][s] {
						t.Fatalf("jobs=%d machine %d slice %d differs", nJobs, mi, s)
					}
				}
			}
		}
	}
}

// TestWorkspacePlannerMatchesFresh runs the full planned pipeline — engine,
// planner, shared workspace — against a fresh engine and a planner on its
// own private workspace, on interleaved instance sizes, for both the plain
// and refined planners.
func TestWorkspacePlannerMatchesFresh(t *testing.T) {
	eng := sim.NewEngine()
	ws := NewWorkspace()
	for i, nJobs := range []int{12, 4, 9} {
		inst := plannerTestInstance(t, 400+int64(i), nJobs)
		for _, refined := range []bool{false, true} {
			fresh, err := sim.RunPlanned(inst, &Planner{Refined: refined})
			if err != nil {
				t.Fatal(err)
			}
			pl := &Planner{Refined: refined}
			pl.SetWorkspace(ws)
			pooled, err := eng.RunPlanned(inst, pl)
			if err != nil {
				t.Fatal(err)
			}
			for j := range fresh.Completion {
				if fresh.Completion[j] != pooled.Completion[j] {
					t.Fatalf("jobs=%d refined=%v: job %d completes at %v pooled, %v fresh",
						nJobs, refined, j, pooled.Completion[j], fresh.Completion[j])
				}
			}
		}
	}
}

// TestRunPlannedOfflineSteadyStateAllocs is the acceptance test of the
// planner-workspace overhaul (the planned-path companion of
// sim.TestRunListSteadyStateAllocs): once an engine+workspace pair has
// warmed up on an instance, replaying the offline planner — the whole
// FromInstance → OptimalStretch → Realize → execute pipeline — must not
// allocate at all.
func TestRunPlannedOfflineSteadyStateAllocs(t *testing.T) {
	inst := plannerTestInstance(t, 9, 20)
	eng := sim.NewEngine()
	ws := NewWorkspace()
	pl := NewPlanner()
	pl.SetWorkspace(ws)
	if _, err := eng.RunPlanned(inst, pl); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(30, func() {
		if _, err := eng.RunPlanned(inst, pl); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state planned RunPlanned allocates %.1f objects/op, want 0", allocs)
	}
}

// TestRunPlannedRefinedSteadyStateAllocs extends the budget to the refined
// planner, which additionally runs System (2) (min-cost flow) per plan.
func TestRunPlannedRefinedSteadyStateAllocs(t *testing.T) {
	inst := plannerTestInstance(t, 9, 20)
	eng := sim.NewEngine()
	ws := NewWorkspace()
	pl := &Planner{Refined: true}
	pl.SetWorkspace(ws)
	if _, err := eng.RunPlanned(inst, pl); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(30, func() {
		if _, err := eng.RunPlanned(inst, pl); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state refined RunPlanned allocates %.1f objects/op, want 0", allocs)
	}
}

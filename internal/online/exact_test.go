package online

import (
	"testing"

	"stretchsched/internal/offline"
	"stretchsched/internal/rat"
	"stretchsched/internal/sim"
	"stretchsched/internal/workload"
)

// TestEGDFExactMatchesOracle runs exact Online-EGDF with System (1) on the
// rational simplex behind the step-2 seam: at every event the oracle
// solves the step-2 problem first, then the production parametric cut
// solves it again and must return the identical rational S*. The run
// continues on the cut's solution, so the streams are the ones production
// serves: the paper's 3-site shape and stretchd's default 6-site shape.
func TestEGDFExactMatchesOracle(t *testing.T) {
	shapes := []workload.Config{
		{Sites: 3, Databanks: 3, Availability: 0.6, Density: 1.5, SizeRange: [2]float64{10, 200}},
		{Sites: 6, Databanks: 12, Availability: 0.5, Density: 0.8},
	}
	for si, shape := range shapes {
		for seed := int64(1); seed <= 3; seed++ {
			shape.Seed, shape.TargetJobs = seed, 20
			inst, err := shape.Generate()
			if err != nil {
				t.Fatal(err)
			}
			e := NewEGDF()
			e.Solver.Exact = true
			e.SetWorkspace(offline.NewWorkspace())
			calls, refined := 0, 0
			e.solve = func(s *offline.Solver, p *offline.Problem) (*offline.Solution, error) {
				// The oracle runs first: both solutions live in the
				// workspace's one solution slot.
				want, werr := offline.OracleStretch(p, false)
				var wantX rat.Rat
				if werr == nil {
					wantX = want.ExactStretch
				}
				got, gerr := s.OptimalStretch(p)
				if (werr == nil) != (gerr == nil) {
					t.Fatalf("shape %d seed %d event %d: oracle err %v, cut err %v", si, seed, calls, werr, gerr)
				}
				if gerr == nil && got.ExactStretch.Cmp(wantX) != 0 {
					t.Fatalf("shape %d seed %d event %d: cut S* %v, oracle %v", si, seed, calls, got.ExactStretch, wantX)
				}
				calls++
				if gerr == nil && got.ExactStretch.Cmp(rat.FromFloat(p.LowerBound())) != 0 {
					refined++ // past the lower-bound shortcut, into the refinement
				}
				return got, gerr
			}
			if _, err := sim.NewEngine().RunList(inst, e); err != nil {
				t.Fatal(err)
			}
			if se, _ := e.SolveFailures(); se != 0 {
				t.Fatalf("shape %d seed %d: %d step-2 failures: %v", si, seed, se, e.LastStretchErr())
			}
			if refined == 0 {
				t.Fatalf("shape %d seed %d: none of %d step-2 solves reached the refinement", si, seed, calls)
			}
			t.Logf("shape %d seed %d: %d jobs, %d step-2 solves, %d refined", si, seed, inst.NumJobs(), calls, refined)
		}
	}
}

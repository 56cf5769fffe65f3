package offline

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"stretchsched/internal/model"
	"stretchsched/internal/sim"
)

// plannerTestInstance is a small mixed-availability instance on which the
// refined offline planner does real System (2) work.
func plannerTestInstance(t testing.TB, seed int64, nJobs int) *model.Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ms := make([]model.Machine, 3)
	for i := range ms {
		banks := []model.DatabankID{0}
		if i != 1 {
			banks = append(banks, 1)
		}
		ms[i] = model.Machine{Speed: 1 + rng.Float64(), Databanks: banks}
	}
	p, err := model.NewPlatform(ms, 2)
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]model.Job, nJobs)
	for j := range jobs {
		jobs[j] = model.Job{
			Release:  rng.Float64() * 10,
			Size:     1 + rng.Float64()*6,
			Databank: model.DatabankID(rng.Intn(2)),
		}
	}
	inst, err := model.NewInstance(p, jobs)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestPlannerSurfacesRefineError is the regression test for the silently-
// swallowed System (2) failure: a Refined planner whose refinement fails
// must abort the run with that error, not quietly report unrefined results
// as "Offline-Refined".
func TestPlannerSurfacesRefineError(t *testing.T) {
	inst := plannerTestInstance(t, 3, 8)
	boom := errors.New("refine exploded")
	pl := &Planner{Refined: true}
	pl.refine = func(*Problem, float64) (*Alloc, error) { return nil, fmt.Errorf("forced: %w", boom) }
	_, err := sim.RunPlanned(inst, pl)
	if err == nil {
		t.Fatal("Refine failure was silently masked: run reported success")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("run failed with %v, want the forced refine error surfaced", err)
	}
	if !strings.Contains(err.Error(), "System (2)") {
		t.Fatalf("error %q does not identify the refinement stage", err)
	}
}

// TestPlannerRefineSuccessUnchanged: on a healthy instance the refined
// planner still refines (sanity that the seam defaults to Problem.Refine).
func TestPlannerRefineSuccessUnchanged(t *testing.T) {
	inst := plannerTestInstance(t, 7, 10)
	pl := &Planner{Refined: true}
	if _, err := sim.RunPlanned(inst, pl); err != nil {
		t.Fatalf("refined run failed: %v", err)
	}
	if pl.Stretch() <= 0 {
		t.Fatalf("stretch = %v, want positive", pl.Stretch())
	}
}

package core

import (
	"testing"

	"stretchsched/internal/offline"
	"stretchsched/internal/online"
)

// TestNewOptionConstructor exercises the Option-based constructor: the
// workspace threads through to the built scheduler, list policies expose
// themselves via PolicyBacked, and the unified Stats snapshot sees the
// workspace's tier counters after an exact run.
func TestNewOptionConstructor(t *testing.T) {
	if _, err := New("no-such-scheduler"); err == nil {
		t.Fatal("unknown scheduler accepted")
	}

	ws := offline.NewWorkspace()
	sched, err := New("Online-EGDF", WithWorkspace(ws))
	if err != nil {
		t.Fatal(err)
	}
	if sched.Name() != "Online-EGDF" {
		t.Fatalf("name = %s", sched.Name())
	}
	pb, ok := sched.(PolicyBacked)
	if !ok {
		t.Fatal("Online-EGDF scheduler is not PolicyBacked")
	}
	egdf, ok := pb.Policy().(*online.EGDF)
	if !ok {
		t.Fatalf("policy = %T, want *online.EGDF", pb.Policy())
	}
	egdf.Solver.Exact = true

	inst := testInstance(t, 3, 1.0)
	sched2, err := sched.Run(inst)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched2.Validate(inst, 1e-5); err != nil {
		t.Fatal(err)
	}

	// The exact run's rational certificates counted into ws's tier
	// counters; Collect over the same workspace must report them, with the
	// scheduler's solve counters keyed by name.
	st := Collect(ws, map[string]Scheduler{sched.Name(): sched})
	if !st.HasTiers || st.Tiers.Total() == 0 {
		t.Fatalf("exact EGDF run left no tier counts on the workspace: %+v", st.Tiers)
	}
	if _, ok := st.Solve["Online-EGDF"]; !ok {
		t.Fatalf("Stats.Solve missing the scheduler: %+v", st.Solve)
	}

	// Two schedulers built from the same registry entry are independent.
	other, err := New("Online-EGDF")
	if err != nil {
		t.Fatal(err)
	}
	if other.(PolicyBacked).Policy() == pb.Policy() {
		t.Fatal("New returned a shared policy instance")
	}
}

// TestRunnerStatsUnified: Runner.Stats reports the exact backend's tier
// counters after an exact run, and ResetStats zeroes the
// workspace-cumulative counters.
func TestRunnerStatsUnified(t *testing.T) {
	inst := testInstance(t, 5, 1.5)
	r := NewRunner()
	if _, err := r.Run(MustGet("Offline-Exact"), inst); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if !st.HasTiers || st.Tiers.Total() == 0 {
		t.Fatalf("no tier stats after exact run: %+v", st)
	}
	r.ResetStats()
	if after := r.Stats(); after.Tiers.Total() != 0 {
		t.Fatalf("ResetStats left tier ops: %d", after.Tiers.Total())
	}
}

package core

import (
	"reflect"
	"testing"

	"stretchsched/internal/cluster"
	"stretchsched/internal/fault"
	"stretchsched/internal/model"
	"stretchsched/internal/workload"
)

// clusterTestInstance replicates one generated single-processor stream
// over identical nodes, at per-node density 1.5.
func clusterTestInstance(t *testing.T, machines int) *model.ClusterInstance {
	t.Helper()
	inst, err := workload.Config{
		Sites: 1, ProcsPerSite: 1, Databanks: 12, Availability: 1,
		Density: 1.5 * float64(machines), TargetJobs: 10 * machines,
		SizeRange: [2]float64{10, 200}, Seed: 7,
	}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	ci, err := model.Replicate(inst.Platform, machines, inst.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	return ci
}

func testBalancer(t *testing.T, name string) cluster.LB {
	t.Helper()
	lb, ok := cluster.Balancers(name)
	if !ok {
		t.Fatalf("unknown balancer %q", name)
	}
	return lb
}

// TestClusterRunRefusesProxiedUnderFaults: under a plan with failures the
// accounting drivers are the schedule, so Run refuses a scheduler that
// accounts through the SWRPT proxy and runs a list policy, whose fault
// counters reach Stats.
func TestClusterRunRefusesProxiedUnderFaults(t *testing.T) {
	ci := clusterTestInstance(t, 2)
	horizon := ci.Jobs[len(ci.Jobs)-1].Release
	plan, err := fault.New(fault.Config{Nodes: 2, Horizon: horizon, Rate: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.HasFailures() {
		t.Fatal("test plan has no failures")
	}
	cr := NewClusterRunner()
	lb := testBalancer(t, "stretch")
	if _, err := cr.Run("Online-EGDF", ci, lb, 1, plan); err == nil {
		t.Fatal("Online-EGDF accepted under a failing plan")
	}
	if _, err := cr.Run("SWRPT", ci, lb, 1, plan); err != nil {
		t.Fatal(err)
	}
	if fs := cr.Stats().Faults; fs.MachineFailures == 0 {
		t.Fatalf("failing plan left no fault counters: %+v", fs)
	}
	cr.ResetStats()
	if fs := cr.Stats().Faults; fs != (cluster.FaultStats{}) {
		t.Fatalf("ResetStats left fault counters: %+v", fs)
	}
}

// TestClusterRunZeroFailurePlan: a plan without failures is inert — the
// schedule is the one a nil plan gives, for list policies and proxied
// schedulers alike, and no fault counters move.
func TestClusterRunZeroFailurePlan(t *testing.T) {
	ci := clusterTestInstance(t, 3)
	zero, err := fault.New(fault.Config{Nodes: 3, Rate: 0, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	cr := NewClusterRunner()
	for _, lbName := range []string{"kchoices", "ideal"} {
		for _, name := range []string{"SWRPT", "Online-EGDF"} {
			lb := testBalancer(t, lbName)
			want, err := cr.Run(name, ci, lb, 5, nil)
			if err != nil {
				t.Fatalf("%s/%s without plan: %v", name, lbName, err)
			}
			got, err := cr.Run(name, ci, lb, 5, zero)
			if err != nil {
				t.Fatalf("%s/%s with zero-failure plan: %v", name, lbName, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%s: zero-failure plan changed the schedule", name, lbName)
			}
		}
	}
	if fs := cr.Stats().Faults; fs != (cluster.FaultStats{}) {
		t.Fatalf("zero-failure plans recorded fault counters: %+v", fs)
	}
}

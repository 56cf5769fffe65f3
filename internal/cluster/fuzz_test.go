package cluster_test

import (
	"reflect"
	"testing"

	"stretchsched/internal/cluster"
	"stretchsched/internal/fault"
	"stretchsched/internal/model"
	"stretchsched/internal/policy"
	"stretchsched/internal/sim"
	"stretchsched/internal/workload"
)

// FuzzClusterWorld runs generated worlds — 1–4 machines, the four
// balancers, failure rates 0–8 — through the one event loop and checks
// each against the oracles of its mode. Without failures the schedule
// validates, a zero-failure plan equals a nil plan bit for bit, and a
// 1-machine world equals the single-platform engine. With failures every
// job completes exactly once, on the node it was last placed on, with no
// outage of that node inside its completing execution (so no completion
// inside an outage), and every killed execution was re-placed once. Every
// stretch is at least 1.
func FuzzClusterWorld(f *testing.F) {
	// seed, machines, balancer, rate, jobs. The corpus covers both modes
	// in tier-1; the 1-machine rate-8 world has every node down at some
	// arrivals, so the loop defers them to the recovery.
	f.Add(int64(1), uint8(0), uint8(3), uint8(0), uint8(10))
	f.Add(int64(2), uint8(2), uint8(0), uint8(0), uint8(12))
	f.Add(int64(3), uint8(3), uint8(1), uint8(0), uint8(13))
	f.Add(int64(4), uint8(1), uint8(2), uint8(3), uint8(12))
	f.Add(int64(5), uint8(3), uint8(0), uint8(8), uint8(13))
	f.Add(int64(6), uint8(0), uint8(3), uint8(8), uint8(12))
	f.Add(int64(7), uint8(2), uint8(1), uint8(5), uint8(9))
	f.Add(int64(8), uint8(1), uint8(3), uint8(2), uint8(11))
	names := []string{"ideal", "random", "kchoices", "stretch"}
	f.Fuzz(func(t *testing.T, seed int64, machines, balancer, rate, jobs uint8) {
		m := 1 + int(machines%4)
		inst, err := workload.Config{
			Sites: 1, ProcsPerSite: 1, Databanks: 4, Availability: 1,
			Density: float64(m), TargetJobs: 2 + int(jobs%14),
			SizeRange: [2]float64{10, 200}, Seed: seed,
		}.Generate()
		if err != nil || inst.NumJobs() == 0 {
			return
		}
		ci, err := model.Replicate(inst.Platform, m, inst.Jobs)
		if err != nil {
			t.Fatal(err)
		}
		plan := planFor(t, ci, float64(rate%9), seed)
		name := names[balancer%4]
		run := func(p *fault.Plan) (*model.ClusterSchedule, cluster.FaultStats) {
			lb, _ := cluster.Balancers(name)
			w, err := cluster.New(ci, lb, swrptLocal(), seed)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.SetFaults(p, fault.DefaultBackoff()); err != nil {
				t.Fatal(err)
			}
			cs, err := w.Run()
			if err != nil {
				t.Fatalf("%s on %d machines: %v", name, m, err)
			}
			return cs, w.FaultStats()
		}
		cs, fs := run(plan)
		for j := range ci.Jobs {
			if s := cs.Stretch(ci, model.JobID(j)); !(s >= 1-1e-9) {
				t.Fatalf("%s: job %d stretch %v < 1", name, j, s)
			}
		}

		if !plan.HasFailures() {
			if err := cs.Validate(ci, 1e-9); err != nil {
				t.Fatalf("%s: Validate: %v", name, err)
			}
			if fs != (cluster.FaultStats{}) {
				t.Fatalf("%s: zero-failure plan recorded fault stats %+v", name, fs)
			}
			ref, _ := run(nil)
			if !reflect.DeepEqual(cs, ref) {
				t.Fatalf("%s: zero-failure plan diverged from the nil plan", name)
			}
			if m == 1 {
				want, err := sim.NewEngine().RunList(inst, policy.SWRPT{})
				if err != nil {
					t.Fatal(err)
				}
				got := cs.NodeSched[0]
				if !reflect.DeepEqual(got.Completion, want.Completion) || !reflect.DeepEqual(got.Slices, want.Slices) {
					t.Fatalf("%s: 1-machine world diverged from Engine.RunList", name)
				}
			}
			return
		}

		seen := make([]int, ci.NumJobs())
		for ni, ids := range cs.NodeJobs {
			for _, g := range ids {
				seen[g]++
				if cs.Placement[g] != ni {
					t.Fatalf("%s: job %d completed on node %d, placed on %d", name, g, ni, cs.Placement[g])
				}
			}
		}
		for g, n := range seen {
			if n != 1 {
				t.Fatalf("%s: job %d completed %d times", name, g, n)
			}
			// The completing execution ran for at least the job's alone time
			// before c, and an outage anywhere in that window would have
			// killed it; a completion inside an outage is the extreme case.
			ni, c := cs.Placement[g], cs.Completion[g]
			lo := c - ci.AloneOn(ni, model.JobID(g)) + 1e-9*(1+c)
			for _, iv := range plan.Intervals(ni) {
				if iv.Down < c && iv.Up > lo {
					t.Fatalf("%s: job %d ran on node %d until %v across its outage [%v, %v)",
						name, g, ni, c, iv.Down, iv.Up)
				}
			}
		}
		if fs.Replacements != fs.JobFailures {
			t.Fatalf("%s: %d replacements for %d killed executions", name, fs.Replacements, fs.JobFailures)
		}
	})
}

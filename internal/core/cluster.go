package core

import (
	"fmt"

	"stretchsched/internal/cluster"
	"stretchsched/internal/fault"
	"stretchsched/internal/model"
	"stretchsched/internal/sim"
)

// accountingFor maps a registry scheduler to the policy driving each
// cluster node's online accounting (the driver state the balancers read).
// Cheap list policies account as themselves, so placement signals see the
// exact order the node will serve in; LP-backed policies and planners are
// proxied by SWRPT — replaying an LP solve at every arrival on every node
// (and inside every Ideal lookahead) is not a price the accounting path
// can pay, and SWRPT is the paper's best-practice list proxy.
func accountingFor(name string) string {
	switch name {
	case "FCFS", "SPT", "SWPT", "SRPT", "SWRPT", "Bender02", "ST14":
		return name
	default:
		return "SWRPT"
	}
}

// ClusterRunner executes cluster worlds over registry schedulers: one
// Runner (engine + pooled workspace) per node backs the final per-node
// batch runs, and Stats aggregates the per-machine snapshots into one
// cluster-wide view. Like Runner it is single-goroutine; harnesses hold
// one per worker.
type ClusterRunner struct {
	nodes []*Runner

	// faults sums the FaultStats of every Run since the last ResetStats
	// (max for MaxAttempts), merged into Stats snapshots.
	faults cluster.FaultStats
}

// NewClusterRunner returns an empty cluster runner; per-node Runners are
// created lazily as worlds need them and reused across runs.
func NewClusterRunner() *ClusterRunner { return &ClusterRunner{} }

// node returns the Runner backing node ni, growing the pool on demand.
func (c *ClusterRunner) node(ni int) *Runner {
	for len(c.nodes) <= ni {
		c.nodes = append(c.nodes, NewRunner())
	}
	return c.nodes[ni]
}

// Local adapts the named registry scheduler to a cluster.Local: accounting
// through accountingFor's policy, final node schedules through the per-node
// Runner (so planner-backed schedulers run their full pipeline locally).
func (c *ClusterRunner) Local(name string) (cluster.Local, error) {
	h, err := Get(name)
	if err != nil {
		return cluster.Local{}, err
	}
	acct := accountingFor(name)
	return cluster.Local{
		Name: name,
		NewPolicy: func() sim.Policy {
			b, err := New(acct)
			if err != nil {
				panic(err) // unreachable: acct is a registry policy name
			}
			return b.(PolicyBacked).Policy()
		},
		Run: func(ni int, inst *model.Instance) (*model.Schedule, error) {
			return c.node(ni).Run(h, inst)
		},
	}, nil
}

// Run executes one cluster world: the named registry scheduler locally on
// every node of ci, placements by lb seeded with seed, and machine down/up
// events from plan (nil for a perfect world) with the default retry
// backoff. Under a plan with failures the world's accounting drivers ARE
// the schedule, with no final batch re-run for a planner to own, so fault
// mode needs a scheduler that accounts as itself (a cheap list policy): a
// proxied scheduler would silently report SWRPT's completions under its
// own name. The run's FaultStats accumulate into the runner for
// Stats/MergeStats. The returned schedule is caller-owned.
func (c *ClusterRunner) Run(name string, ci *model.ClusterInstance, lb cluster.LB, seed int64, plan *fault.Plan) (*model.ClusterSchedule, error) {
	if plan != nil && plan.HasFailures() && accountingFor(name) != name {
		return nil, fmt.Errorf("core: cluster fault mode needs a list-policy scheduler, not %s (accounts as %s)", name, accountingFor(name))
	}
	loc, err := c.Local(name)
	if err != nil {
		return nil, err
	}
	w, err := cluster.New(ci, lb, loc, seed)
	if err != nil {
		return nil, err
	}
	if err := w.SetFaults(plan, fault.DefaultBackoff()); err != nil {
		return nil, err
	}
	cs, err := w.Run()
	if err != nil {
		return nil, fmt.Errorf("core: cluster %s/%s: %w", name, lb.Name(), err)
	}
	c.faults = addFaults(c.faults, w.FaultStats())
	return cs, nil
}

// Stats aggregates the per-node Runner snapshots into one cluster-wide
// Stats via MergeStats, plus the runner's accumulated fault counters.
func (c *ClusterRunner) Stats() Stats {
	agg := Stats{Solve: map[string]SolveStats{}}
	for _, r := range c.nodes {
		agg = MergeStats(agg, r.Stats())
	}
	agg.Faults = c.faults
	return agg
}

// ResetStats zeroes every node Runner's cumulative workspace counters and
// the accumulated fault counters.
func (c *ClusterRunner) ResetStats() {
	for _, r := range c.nodes {
		r.ResetStats()
	}
	c.faults = cluster.FaultStats{}
}

// MergeStats combines two Stats snapshots — per-machine views of a cluster
// run — into one aggregate: solver-failure and tier counters sum.
func MergeStats(a, b Stats) Stats {
	out := Stats{Solve: map[string]SolveStats{}}
	for name, ss := range a.Solve {
		out.Solve[name] = ss
	}
	for name, ss := range b.Solve {
		prev := out.Solve[name]
		out.Solve[name] = SolveStats{
			StretchErrs: prev.StretchErrs + ss.StretchErrs,
			RefineErrs:  prev.RefineErrs + ss.RefineErrs,
		}
	}
	out.HasTiers = a.HasTiers || b.HasTiers
	out.Tiers = a.Tiers
	for i := range out.Tiers.Ops {
		out.Tiers.Ops[i] += b.Tiers.Ops[i]
		out.Tiers.Promotions[i] += b.Tiers.Promotions[i]
		out.Tiers.Demotions[i] += b.Tiers.Demotions[i]
	}
	out.Faults = addFaults(a.Faults, b.Faults)
	return out
}

// addFaults combines two runs' fault counters: counts and lost work sum,
// MaxAttempts takes the worse.
func addFaults(a, b cluster.FaultStats) cluster.FaultStats {
	a.MachineFailures += b.MachineFailures
	a.JobFailures += b.JobFailures
	a.Replacements += b.Replacements
	a.Deferred += b.Deferred
	a.LostWork += b.LostWork
	a.MaxAttempts = max(a.MaxAttempts, b.MaxAttempts)
	return a
}

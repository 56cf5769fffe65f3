package model

import (
	"fmt"
	"math"
	"sort"
)

// ClusterInstance couples one job stream with a cluster of scheduling
// nodes. Each node is a complete Platform — in the cluster world a "machine"
// is a whole paper-platform replica running its own local scheduler — and a
// job is *placed* onto exactly one node by a load balancer before being
// scheduled there locally. With one node the model degenerates to the
// single-platform Instance, which is the equivalence the cluster engine's
// tests pin bitwise.
//
// Jobs follow the Instance conventions: sorted by release date and
// renumbered 0..n-1, so arrival order is ID order.
type ClusterInstance struct {
	Nodes []*Platform
	Jobs  []Job
}

// NewClusterInstance validates the node set and the job stream. Every job
// must reference a databank known to every node, so any placement is
// feasible; per-node hosting is guaranteed by each node's own Platform
// validation.
func NewClusterInstance(nodes []*Platform, jobs []Job) (*ClusterInstance, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("model: cluster needs at least one node")
	}
	// Databank IDs run from 0 on every node, so the node with the fewest
	// databanks decides which ones every node knows.
	narrowest := nodes[0]
	for _, p := range nodes[1:] {
		if p.NumDatabanks() < narrowest.NumDatabanks() {
			narrowest = p
		}
	}
	js := append([]Job(nil), jobs...)
	sort.SliceStable(js, func(a, b int) bool { return js[a].Release < js[b].Release })
	ci := &ClusterInstance{Nodes: nodes, Jobs: js}
	for i := range ci.Jobs {
		j := &ci.Jobs[i]
		j.ID = JobID(i)
		if j.Name == "" {
			j.Name = fmt.Sprintf("J%d", i+1)
		}
		if err := ValidateJob(narrowest, *j); err != nil {
			return nil, fmt.Errorf("model: cluster job %d: %w", i, err)
		}
	}
	return ci, nil
}

// Replicate builds a cluster of n identical replicas of platform p over the
// given jobs — the identical-parallel-machines setting of the
// Srivastav–Trystram comparison, and (n = 1) the single-platform base case.
func Replicate(p *Platform, n int, jobs []Job) (*ClusterInstance, error) {
	if n <= 0 {
		return nil, fmt.Errorf("model: cluster needs at least one replica, got %d", n)
	}
	nodes := make([]*Platform, n)
	for i := range nodes {
		nodes[i] = p
	}
	return NewClusterInstance(nodes, jobs)
}

// NumNodes returns the number of cluster nodes.
func (ci *ClusterInstance) NumNodes() int { return len(ci.Nodes) }

// NumJobs returns n.
func (ci *ClusterInstance) NumJobs() int { return len(ci.Jobs) }

// AloneOn returns p*_j as realised on node ni: the duration of job j alone
// on the node's machines hosting its databank. It is the stretch
// denominator of a job placed on ni; on identical replicas it coincides
// with the single-platform AloneTime.
func (ci *ClusterInstance) AloneOn(ni int, j JobID) float64 {
	return ci.Jobs[j].Size / ci.Nodes[ni].AggregateSpeed(ci.Jobs[j].Databank)
}

// Sub builds the single-platform sub-instance of node ni over the given
// global job IDs, which must be sorted by release (placement happens in
// arrival order, so per-node job lists are). The i-th entry of ids is the
// job holding local JobID i in the returned instance — NewInstance's stable
// sort preserves the already-sorted order.
func (ci *ClusterInstance) Sub(ni int, ids []JobID) (*Instance, error) {
	jobs := make([]Job, len(ids))
	for i, gj := range ids {
		jobs[i] = ci.Jobs[gj]
		if i > 0 && ci.Jobs[gj].Release < ci.Jobs[ids[i-1]].Release {
			return nil, fmt.Errorf("model: node %d job list not in release order at %d", ni, i)
		}
	}
	return NewInstance(ci.Nodes[ni], jobs)
}

// ClusterSchedule is a full cluster execution trace: the balancer's
// placement, the global per-job completions, and each node's local schedule
// over its sub-instance (local job IDs; NodeJobs maps them back).
type ClusterSchedule struct {
	Placement  []int     // job -> node index
	Completion []float64 // job -> completion time (NaN if unscheduled)
	NodeJobs   [][]JobID // node -> global job IDs in local-ID order
	NodeSched  []*Schedule
}

// NewClusterSchedule returns an empty cluster schedule for ci.
func NewClusterSchedule(ci *ClusterInstance) *ClusterSchedule {
	cs := &ClusterSchedule{
		Placement:  make([]int, ci.NumJobs()),
		Completion: make([]float64, ci.NumJobs()),
		NodeJobs:   make([][]JobID, ci.NumNodes()),
		NodeSched:  make([]*Schedule, ci.NumNodes()),
	}
	for j := range cs.Placement {
		cs.Placement[j] = -1
		cs.Completion[j] = math.NaN()
	}
	return cs
}

// Flow returns F_j = C_j − r_j.
func (cs *ClusterSchedule) Flow(ci *ClusterInstance, j JobID) float64 {
	return cs.Completion[j] - ci.Jobs[j].Release
}

// Stretch returns S_j = F_j / p*_j with the alone time taken on the node
// job j was placed on.
func (cs *ClusterSchedule) Stretch(ci *ClusterInstance, j JobID) float64 {
	return cs.Flow(ci, j) / ci.AloneOn(cs.Placement[j], j)
}

// MaxStretch returns max_j S_j.
func (cs *ClusterSchedule) MaxStretch(ci *ClusterInstance) float64 {
	v := 0.0
	for j := range ci.Jobs {
		v = math.Max(v, cs.Stretch(ci, JobID(j)))
	}
	return v
}

// SumStretch returns Σ_j S_j — the total stretch, the Srivastav–Trystram
// objective.
func (cs *ClusterSchedule) SumStretch(ci *ClusterInstance) float64 {
	v := 0.0
	for j := range ci.Jobs {
		v += cs.Stretch(ci, JobID(j))
	}
	return v
}

// Makespan returns max_j C_j.
func (cs *ClusterSchedule) Makespan(ci *ClusterInstance) float64 {
	v := 0.0
	for _, c := range cs.Completion {
		v = math.Max(v, c)
	}
	return v
}

// Validate checks the cluster execution rules: every job placed on exactly
// one node, every node schedule valid for its sub-instance, and the global
// completions consistent with the local ones.
func (cs *ClusterSchedule) Validate(ci *ClusterInstance, reltol float64) error {
	if len(cs.Placement) != ci.NumJobs() || len(cs.Completion) != ci.NumJobs() {
		return fmt.Errorf("model: cluster schedule sized for %d/%d jobs, instance has %d",
			len(cs.Placement), len(cs.Completion), ci.NumJobs())
	}
	seen := make([]bool, ci.NumJobs())
	for ni, ids := range cs.NodeJobs {
		for li, gj := range ids {
			if int(gj) >= ci.NumJobs() || seen[gj] {
				return fmt.Errorf("model: node %d lists job %d twice or out of range", ni, gj)
			}
			seen[gj] = true
			if cs.Placement[gj] != ni {
				return fmt.Errorf("model: job %d listed on node %d but placed on %d", gj, ni, cs.Placement[gj])
			}
			if c := cs.NodeSched[ni].Completion[li]; c != cs.Completion[gj] {
				return fmt.Errorf("model: job %d completion %v disagrees with node %d local %v",
					gj, cs.Completion[gj], ni, c)
			}
		}
		sub, err := ci.Sub(ni, ids)
		if err != nil {
			return err
		}
		if err := cs.NodeSched[ni].Validate(sub, reltol); err != nil {
			return fmt.Errorf("model: node %d: %w", ni, err)
		}
	}
	for j, ok := range seen {
		if !ok {
			return fmt.Errorf("model: job %d placed on no node", j)
		}
	}
	return nil
}

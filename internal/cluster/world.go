// Package cluster is the multi-machine world on top of the single-platform
// engine stack: M nodes (each a full model.Platform replica running its own
// local scheduler) behind a pluggable load-balancer seam. A job is *placed*
// onto exactly one node at its arrival instant — the balancer sees only
// each node's online accounting, never the future — and is then *scheduled*
// there by the node's local policy.
//
// One virtual-time event loop runs every world, mirroring the serving
// daemon (internal/serve): each node carries a model.Stream + sim.Driver
// pair advanced to every arrival and machine event, committing completions
// at their predicted instants, so balancer decisions are a deterministic
// function of (instance, balancer, seed, plan) — independent of worker
// count or wall clock. Without machine failures the loop only places jobs,
// and the final per-node schedules come from re-running each node's
// sub-instance through the ordinary batch engine paths, which is what makes
// a 1-node cluster bitwise identical to the single-platform pipeline and
// lets planner-backed schedulers (Offline, Online-EGDF) act as local
// schedulers unchanged. Under failures the accounting drivers' completions
// are the schedule (see faulty.go).
package cluster

import (
	"fmt"

	"stretchsched/internal/fault"
	"stretchsched/internal/model"
	"stretchsched/internal/sim"
)

// Local supplies a node's scheduling machinery. NewPolicy returns a fresh
// accounting policy instance — drivers and lookaheads each own one, so
// stateful policies never share state across nodes. Run produces the node's
// final schedule over its sub-instance; the result only needs to stay valid
// until the next Run call (the world copies it), so engine-owned schedules
// are fine.
type Local struct {
	Name      string
	NewPolicy func() sim.Policy
	Run       func(node int, inst *model.Instance) (*model.Schedule, error)
}

// PolicyLocal wraps a list policy as a Local: accounting and final
// scheduling both use fresh instances of the policy, the latter through one
// shared engine.
func PolicyLocal(mk func() sim.Policy) Local {
	eng := sim.NewEngine()
	return Local{
		Name:      mk().Name(),
		NewPolicy: mk,
		Run: func(_ int, inst *model.Instance) (*model.Schedule, error) {
			return eng.RunList(inst, mk())
		},
	}
}

// LB decides, at each arrival instant, which node a job is placed on.
// Init runs at the start of every World.Run — balancers reseed their RNG
// there so placements are a pure function of (instance, seed).
type LB interface {
	Name() string
	Init(w *World)
	Place(w *World, j model.JobID) (int, error)
}

// Load is the read-only accounting view of one node a balancer sees at a
// placement instant.
type Load struct {
	Active        int     // released, unfinished jobs
	Backlog       float64 // total remaining work
	TotalSpeed    float64 // node's summed machine speed
	EstMaxStretch float64 // driver estimate over the active set
}

// World drives one cluster execution: the arrival loop, the per-node
// accounting, and the final per-node schedules.
type World struct {
	ci    *model.ClusterInstance
	lb    LB
	local Local
	seed  int64

	nodes   []*node
	scratch *sim.Engine // Ideal lookahead simulations
	tmpJobs []model.Job
	tmpOrig []lookJob
	// clock is the instant the run last advanced to; advanceAll refuses
	// to move it backwards.
	clock float64

	// Fault injection (nil plan = the perfect world of PR 9). All per-run
	// fault state (down flags, attempt counts, stats, the pending queue)
	// is reset at every Run, so reused worlds stay bitwise reproducible.
	plan     *fault.Plan
	backoff  fault.Backoff
	nodeDown []bool
	attempts []int
	pending  []pendingArrival
	fstats   FaultStats
	upList   []int
}

// lookJob maps a lookahead job back to its original stretch denominator.
type lookJob struct {
	release float64
	alone   float64
}

// node is one machine of the world: a live stream + driver running the
// accounting policy.
type node struct {
	stream   *model.Stream
	drv      *sim.Driver
	pol      sim.Policy
	globalOf []model.JobID // slot -> global ID (-1 when tombstoned)
}

// New returns a world over ci using balancer lb and local scheduling
// machinery local. seed feeds the balancer's RNG (Init) at each Run.
func New(ci *model.ClusterInstance, lb LB, local Local, seed int64) (*World, error) {
	if lb == nil || local.NewPolicy == nil || local.Run == nil {
		return nil, fmt.Errorf("cluster: balancer and local scheduler are required")
	}
	return &World{ci: ci, lb: lb, local: local, seed: seed, scratch: sim.NewEngine()}, nil
}

// Instance returns the cluster instance the world runs.
func (w *World) Instance() *model.ClusterInstance { return w.ci }

// NumNodes returns M.
func (w *World) NumNodes() int { return w.ci.NumNodes() }

// Seed returns the balancer seed for this world.
func (w *World) Seed() int64 { return w.seed }

// SetFaults installs a failure plan and retry backoff. A nil plan, or a
// plan without failures, adds no machine events to Run's loop, so Run
// output is bitwise identical to a world without faults. The plan must
// cover exactly this world's machines.
func (w *World) SetFaults(p *fault.Plan, b fault.Backoff) error {
	if p != nil && p.NumNodes() != w.ci.NumNodes() {
		return fmt.Errorf("cluster: fault plan covers %d nodes, world has %d",
			p.NumNodes(), w.ci.NumNodes())
	}
	w.plan = p
	w.backoff = b
	return nil
}

// FaultStats returns the fault counters of the most recent Run (zero when
// no plan is installed or the plan has no failures).
func (w *World) FaultStats() FaultStats { return w.fstats }

// NodeUp reports whether node ni is up at the current instant of a Run.
func (w *World) NodeUp(ni int) bool { return !w.nodeDown[ni] }

// UpNodes returns the indices of the currently up nodes, ascending. The
// slice is scratch owned by the world — valid until the next call. With no
// failures it is always [0..M), which is what keeps the failure-aware
// balancers bitwise identical to their PR 9 selves on a perfect world.
func (w *World) UpNodes() []int {
	w.upList = w.upList[:0]
	for ni := 0; ni < w.ci.NumNodes(); ni++ {
		if w.NodeUp(ni) {
			w.upList = append(w.upList, ni)
		}
	}
	return w.upList
}

// Load returns node ni's accounting view at the current instant.
func (w *World) Load(ni int) Load {
	n := w.nodes[ni]
	return Load{
		Active:        n.drv.NumActive(),
		Backlog:       n.drv.Backlog(),
		TotalSpeed:    w.ci.Nodes[ni].TotalSpeed(),
		EstMaxStretch: n.drv.EstMaxStretch(),
	}
}

// PredictStretch is the stretch-aware placement estimate for putting job j
// on node ni right now: the worse of the node's current estimated max
// stretch and the new job's own estimate under the node draining its whole
// backlog plus the job at full speed.
func (w *World) PredictStretch(ni int, j model.JobID) float64 {
	ld := w.Load(ni)
	est := (ld.Backlog + w.ci.Jobs[j].Size) / ld.TotalSpeed / w.ci.AloneOn(ni, j)
	if ld.EstMaxStretch > est {
		return ld.EstMaxStretch
	}
	return est
}

// Lookahead simulates node ni's local policy over its residual active set
// plus job j and returns the realised max stretch (against the jobs'
// original releases) — the omniscient signal the Ideal balancer ranks
// nodes by — plus the candidate job's own predicted completion instant,
// which the fault-aware Ideal checks against the failure plan. It costs a
// full local simulation per candidate node.
func (w *World) Lookahead(ni int, j model.JobID) (worst, jobDone float64, err error) {
	n := w.nodes[ni]
	now := n.drv.Now()
	w.tmpJobs = w.tmpJobs[:0]
	w.tmpOrig = w.tmpOrig[:0]
	for _, id := range n.drv.Ctx().Active() {
		g := n.globalOf[id]
		release, alone := w.ci.Jobs[g].Release, w.ci.AloneOn(ni, g)
		rem := n.drv.Remaining(id)
		if rem <= 0 {
			// Completes at this very instant; its stretch is already fixed.
			if s := (now - release) / alone; s > worst {
				worst = s
			}
			continue
		}
		w.tmpJobs = append(w.tmpJobs, model.Job{Size: rem, Databank: w.ci.Jobs[g].Databank})
		w.tmpOrig = append(w.tmpOrig, lookJob{release: release, alone: alone})
	}
	w.tmpJobs = append(w.tmpJobs, model.Job{Size: w.ci.Jobs[j].Size, Databank: w.ci.Jobs[j].Databank})
	w.tmpOrig = append(w.tmpOrig, lookJob{release: w.ci.Jobs[j].Release, alone: w.ci.AloneOn(ni, j)})

	// All releases are zero, so NewInstance's stable sort keeps the append
	// order and local ID i maps to tmpOrig[i] (the candidate job is the
	// last entry); completions are relative to the placement instant.
	tmp, err := model.NewInstance(w.ci.Nodes[ni], w.tmpJobs)
	if err != nil {
		return 0, 0, err
	}
	sched, err := w.scratch.RunList(tmp, w.local.NewPolicy())
	if err != nil {
		return 0, 0, err
	}
	for i := range tmp.Jobs {
		s := (now + sched.Completion[i] - w.tmpOrig[i].release) / w.tmpOrig[i].alone
		if s > worst {
			worst = s
		}
	}
	jobDone = now + sched.Completion[len(tmp.Jobs)-1]
	return worst, jobDone, nil
}

// Run executes the full cluster trace through one event loop: arrivals
// (and retries) are placed in (release, job ID) order, machine down/up
// events come from the failure plan (SetFaults), and per-node accounting
// advances between events. Worlds are reusable; every Run starts from
// fresh node state and a reseeded balancer. Without failures the loop
// ends with one batch run per node over its sub-instance. With failures,
// jobs caught on a failing machine lose their work and re-enter the
// balancer after a backoff, and completions come from the accounting
// drivers themselves.
func (w *World) Run() (*model.ClusterSchedule, error) {
	w.resetNodes()
	w.fstats = FaultStats{}
	w.lb.Init(w)
	return w.run()
}

// runNodes fills cs with one batch run of the local scheduler per node
// over the sub-instance of the jobs placed there, in placement order.
func (w *World) runNodes(cs *model.ClusterSchedule) (*model.ClusterSchedule, error) {
	for g, ni := range cs.Placement {
		cs.NodeJobs[ni] = append(cs.NodeJobs[ni], model.JobID(g))
	}
	for ni, ids := range cs.NodeJobs {
		sub, err := w.ci.Sub(ni, ids)
		if err != nil {
			return nil, err
		}
		sched, err := w.local.Run(ni, sub)
		if err != nil {
			return nil, fmt.Errorf("cluster: node %d %s: %w", ni, w.local.Name, err)
		}
		cp := &model.Schedule{
			Result: model.Result{Completion: append([]float64(nil), sched.Completion...)},
			Slices: append([]model.Slice(nil), sched.Slices...),
		}
		cs.NodeSched[ni] = cp
		for li, g := range ids {
			cs.Completion[g] = cp.Completion[li]
		}
	}
	return cs, nil
}

// resetNodes rebuilds every node's stream/driver/policy state and rewinds
// the event clock for a fresh Run.
func (w *World) resetNodes() {
	w.clock = -inf()
	w.nodes = w.nodes[:0]
	for range w.ci.Nodes {
		w.nodes = append(w.nodes, nil)
	}
	for ni := range w.nodes {
		st := model.NewStream(w.ci.Nodes[ni])
		drv := sim.NewDriver(st.Instance())
		pol := w.local.NewPolicy()
		pol.Init(st.Instance())
		w.nodes[ni] = &node{stream: st, drv: drv, pol: pol}
	}
}

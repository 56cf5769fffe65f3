package cluster

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"stretchsched/internal/model"
)

// The event loop of every Run: one virtual-time loop over job arrivals (and
// retries) and the failure plan's machine down/up events. Jobs running on a
// machine at its failure instant lose their completed-so-far work and
// re-enter the balancer after a capped exponential backoff. Under failures
// completions are the accounting drivers' own predicted instants (the
// local policy IS the schedule — fault mode therefore requires a
// list-policy local), and the final ClusterSchedule carries placements (the
// completing node), completions and per-node job lists, but no per-node
// slice schedules: a schedule that was interrupted and re-run is not a
// single batch timetable. Without failures nothing is ever re-placed, so
// the loop only places jobs and the per-node batch runs produce the
// schedule.

// FaultStats counts what a failure plan did to one Run.
type FaultStats struct {
	MachineFailures int     // down events that hit the run's time range
	JobFailures     int     // job executions killed by a machine failure
	Replacements    int     // placements beyond a job's first
	Deferred        int     // arrivals deferred because every node was down
	MaxAttempts     int     // worst per-job placement count
	LostWork        float64 // completed-so-far work discarded by failures
}

// pendingArrival is one job waiting to be placed: its (re)arrival instant
// and global ID. Ordered by (t, g): first arrivals pop in release-then-ID
// order, which is the cluster instance's job order.
type pendingArrival struct {
	t float64
	g model.JobID
}

// pendingPush inserts p into w.pending, which is kept sorted by descending
// (t, g) so that the next arrival is the last element. A job is pending at
// most once, so (t, g) is a total order over the slice.
func (w *World) pendingPush(p pendingArrival) {
	i := sort.Search(len(w.pending), func(k int) bool { return pendingLess(w.pending[k], p) })
	w.pending = append(w.pending, pendingArrival{})
	copy(w.pending[i+1:], w.pending[i:])
	w.pending[i] = p
}

// pendingPop removes and returns the next arrival.
func (w *World) pendingPop() pendingArrival {
	last := len(w.pending) - 1
	p := w.pending[last]
	w.pending = w.pending[:last]
	return p
}

func pendingLess(a, b pendingArrival) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.g < b.g
}

// machineEvent is one plan transition: node ni goes down (down=true) or
// comes back up at t.
type machineEvent struct {
	t    float64
	ni   int
	down bool
}

// run executes the event loop. Preconditions: resetNodes and lb.Init have
// run.
func (w *World) run() (*model.ClusterSchedule, error) {
	faulty := w.plan != nil && w.plan.HasFailures()
	// Per-run fault state.
	w.nodeDown = w.nodeDown[:0]
	for range w.ci.Nodes {
		w.nodeDown = append(w.nodeDown, false)
	}
	w.attempts = w.attempts[:0]
	for range w.ci.Jobs {
		w.attempts = append(w.attempts, 0)
	}
	// Instance order is (release, ID) order, so pushing in reverse lands
	// every first arrival at the end of the queue.
	w.pending = w.pending[:0]
	for gj := len(w.ci.Jobs) - 1; gj >= 0; gj-- {
		w.pendingPush(pendingArrival{t: w.ci.Jobs[gj].Release, g: model.JobID(gj)})
	}

	// Flatten the plan into one sorted event list: by time, ups before
	// downs (a machine recovering at t can accept an arrival at t), then
	// by node.
	var events []machineEvent
	for ni := 0; faulty && ni < w.ci.NumNodes(); ni++ {
		for _, iv := range w.plan.Intervals(ni) {
			events = append(events,
				machineEvent{t: iv.Down, ni: ni, down: true},
				machineEvent{t: iv.Up, ni: ni, down: false})
		}
	}
	sort.Slice(events, func(a, b int) bool {
		ea, eb := events[a], events[b]
		if ea.t != eb.t {
			return ea.t < eb.t
		}
		if ea.down != eb.down {
			return !ea.down
		}
		return ea.ni < eb.ni
	})

	cs := model.NewClusterSchedule(w.ci)
	// Completions are recorded only under failures; without, runNodes
	// produces them and recording here too would count each one twice.
	rec := cs
	if !faulty {
		rec = nil
	}
	mi := 0
	for len(w.pending) > 0 || mi < len(events) {
		tEvt, tArr := inf(), inf()
		if mi < len(events) {
			tEvt = events[mi].t
		}
		if n := len(w.pending); n > 0 {
			tArr = w.pending[n-1].t
		}
		t := tEvt
		if tArr < t {
			t = tArr
		}
		// Completions due by t commit first: a job finishing exactly at a
		// failure instant counts as completed, not failed.
		if err := w.advanceAll(t, rec); err != nil {
			return nil, err
		}
		if tEvt <= tArr {
			ev := events[mi]
			mi++
			if ev.down {
				w.fstats.MachineFailures++
				w.failNode(ev.ni, ev.t)
			} else {
				w.nodeDown[ev.ni] = false
			}
			continue
		}
		p := w.pendingPop()
		up := w.UpNodes()
		if len(up) == 0 {
			// Every machine is down: defer to the earliest recovery.
			minUp := inf()
			for ni := 0; ni < w.ci.NumNodes(); ni++ {
				if at := w.plan.UpAt(ni, p.t); at < minUp {
					minUp = at
				}
			}
			if !(minUp > p.t) {
				return nil, fmt.Errorf("cluster: all nodes down at %v with no recovery after", p.t)
			}
			w.fstats.Deferred++
			w.pendingPush(pendingArrival{t: minUp, g: p.g})
			continue
		}
		ni, err := w.lb.Place(w, p.g)
		if err != nil {
			return nil, fmt.Errorf("cluster: %s placing job %d: %w", w.lb.Name(), p.g, err)
		}
		if ni < 0 || ni >= len(w.nodes) || !w.NodeUp(ni) {
			return nil, fmt.Errorf("cluster: %s placed job %d on unavailable node %d", w.lb.Name(), p.g, ni)
		}
		if err := w.nodes[ni].placeAt(w.ci, p.g, p.t); err != nil {
			return nil, fmt.Errorf("cluster: node %d admitting job %d: %w", ni, p.g, err)
		}
		cs.Placement[p.g] = ni
		w.attempts[p.g]++
		if w.attempts[p.g] > 1 {
			w.fstats.Replacements++
		}
		// Every job is placed once even without failures; only a re-placed
		// one makes the count a fault statistic.
		if faulty && w.attempts[p.g] > w.fstats.MaxAttempts {
			w.fstats.MaxAttempts = w.attempts[p.g]
		}
	}
	if !faulty {
		return w.runNodes(cs)
	}
	// No further arrivals or failures: drain every node to completion.
	if err := w.advanceAll(inf(), cs); err != nil {
		return nil, err
	}
	for g, c := range cs.Completion {
		if math.IsNaN(c) {
			return nil, fmt.Errorf("cluster: job %d never completed under the fault plan", g)
		}
	}
	return cs, nil
}

// ErrClockBackwards reports an event instant earlier than the one the
// world last advanced to: some event source fed the loop out of time order.
var ErrClockBackwards = errors.New("cluster: event instant precedes the previous one")

// advanceAll moves every node's clock to t, committing completions at
// their predicted instants through the serving loop's completion step
// (sim.Driver.AdvanceToNext), and records them into cs (nil when the final
// schedules come from the per-node batch runs). The recorded instant is
// the predicted one, not the driver's Now(), which can land one ulp past
// it. t = +Inf drains completions without advancing the clocks past the
// last one. A t before the previous event instant is ErrClockBackwards.
// The check reads the world's own event clock, not a driver's Now(), for
// the same reason: a same-instant event would trip a driver-clock check.
func (w *World) advanceAll(t float64, cs *model.ClusterSchedule) error {
	if t < w.clock {
		return ErrClockBackwards
	}
	w.clock = t
	for ni, n := range w.nodes {
		for {
			id, at, ok := n.drv.AdvanceToNext(t)
			if !ok {
				break
			}
			g := n.globalOf[id]
			n.drv.Complete(id)
			if err := n.stream.Remove(id); err != nil {
				return fmt.Errorf("cluster: node %d completing job %d: %w", ni, g, err)
			}
			n.globalOf[id] = -1
			if cs != nil {
				cs.Completion[g] = at
				cs.NodeJobs[ni] = append(cs.NodeJobs[ni], g)
			}
			if n.drv.NumActive() > 0 {
				n.drv.Replan(n.pol)
			}
		}
	}
	return nil
}

// failNode marks node ni down at instant t and fails every job still
// active on it: completed-so-far work is lost and each job re-enters the
// pending queue after its backoff, to be re-placed from scratch.
func (w *World) failNode(ni int, t float64) {
	w.nodeDown[ni] = true
	n := w.nodes[ni]
	// Snapshot the active set: removal mutates it.
	ids := append([]model.JobID(nil), n.drv.Ctx().Active()...)
	for _, id := range ids {
		g := n.globalOf[id]
		lost := w.ci.Jobs[g].Size - n.drv.Remaining(id)
		if lost > 0 {
			w.fstats.LostWork += lost
		}
		w.fstats.JobFailures++
		n.drv.Complete(id)
		if err := n.stream.Remove(id); err != nil {
			// Unreachable: the slot was live by construction. Surface loudly
			// rather than silently dropping the job.
			panic(fmt.Sprintf("cluster: failing node %d job %d: %v", ni, g, err))
		}
		n.globalOf[id] = -1
		w.pendingPush(pendingArrival{t: t + w.backoff.Delay(w.attempts[g]), g: g})
	}
}

// placeAt admits global job gj into the node's stream and accounting at
// instant t — the job's effective (re)release. The full size is restored:
// work done before a failure is lost.
func (n *node) placeAt(ci *model.ClusterInstance, gj model.JobID, t float64) error {
	j := ci.Jobs[gj]
	id, err := n.stream.Add(model.Job{Name: j.Name, Release: t, Size: j.Size, Databank: j.Databank})
	if err != nil {
		return err
	}
	for int(id) >= len(n.globalOf) {
		n.globalOf = append(n.globalOf, -1)
	}
	n.globalOf[id] = gj
	n.drv.Arrive(id, j.Size)
	n.drv.Replan(n.pol)
	return nil
}

func inf() float64 { return math.Inf(1) }

package main

import (
	"stretchsched/internal/cluster"
	"stretchsched/internal/core"
	"stretchsched/internal/model"
	"stretchsched/internal/serve"
	"stretchsched/internal/sim"
)

// The probes below observe the program through interfaces it already
// accepts, without changing what flows through them: every call is
// forwarded with the same arguments and its results returned unchanged.

// serveProbe holds the counters and the open replan interval shared by the
// policy and decision-log wrappers of one serving loop.
type serveProbe struct {
	tr *tracer

	onEvents  uint64
	lessCalls uint64
	activeSum uint64
	activeMax int

	// replanFrom is the instant OnEvent last returned; the interval up to
	// the next decision-log write (the plan line) is ordering plus greedy
	// allocation. -1 when no such interval is open.
	replanFrom int64

	records, bytes uint64
}

func newServeProbe(tr *tracer) *serveProbe { return &serveProbe{tr: tr, replanFrom: -1} }

// closeReplan records the open replan interval, if any, as ending now.
func (p *serveProbe) closeReplan() {
	if p.replanFrom >= 0 {
		p.tr.add("sim.replan", p.replanFrom, p.tr.now())
		p.replanFrom = -1
	}
}

// probedPolicy times OnEvent, counts Less calls and samples the size of the
// active set at every decision instant.
type probedPolicy struct {
	inner sim.Policy
	p     *serveProbe
}

func (w *probedPolicy) Name() string              { return w.inner.Name() }
func (w *probedPolicy) Init(inst *model.Instance) { w.inner.Init(inst) }

func (w *probedPolicy) OnEvent(ctx *sim.Ctx) {
	n := len(ctx.Active())
	w.p.onEvents++
	w.p.activeSum += uint64(n)
	w.p.activeMax = max(w.p.activeMax, n)
	i := w.p.tr.begin("policy.on_event")
	w.inner.OnEvent(ctx)
	w.p.replanFrom = w.p.tr.end(i)
}

func (w *probedPolicy) Less(ctx *sim.Ctx, a, b model.JobID) bool {
	w.p.lessCalls++
	return w.inner.Less(ctx, a, b)
}

// solveDiagnostics is the optional counter interface core.Collect reads
// from the serving policy (the LP-based online policies implement it).
type solveDiagnostics interface {
	SolveFailures() (stretchErrs, refineErrs int)
}

// probedDiagPolicy is a probedPolicy that also forwards the solver-failure
// counters, so Loop.Snapshot reports them as without the probe.
type probedDiagPolicy struct {
	*probedPolicy
	diag solveDiagnostics
}

func (w probedDiagPolicy) SolveFailures() (int, int) { return w.diag.SolveFailures() }

// probedScheduler presents the probed policy behind the scheduler the loop
// was configured with.
type probedScheduler struct {
	core.Scheduler
	pol sim.Policy
}

func (s probedScheduler) Policy() sim.Policy { return s.pol }

// probeScheduler wraps a policy-backed scheduler's policy with p.
func probeScheduler(s core.Scheduler, p *serveProbe) core.Scheduler {
	inner := s.(core.PolicyBacked).Policy()
	pp := &probedPolicy{inner: inner, p: p}
	if d, ok := inner.(solveDiagnostics); ok {
		return probedScheduler{Scheduler: s, pol: probedDiagPolicy{probedPolicy: pp, diag: d}}
	}
	return probedScheduler{Scheduler: s, pol: pp}
}

// probedLog times each decision-log write and forwards the Sync barrier a
// checkpoint takes, so the loop sees the same durable sink.
type probedLog struct {
	inner *serve.LogFile
	p     *serveProbe
}

func (w *probedLog) Write(b []byte) (int, error) {
	w.p.closeReplan()
	i := w.p.tr.begin("serve.declog_write")
	n, err := w.inner.Write(b)
	w.p.tr.end(i)
	w.p.records++
	w.p.bytes += uint64(len(b))
	return n, err
}

func (w *probedLog) Sync() error {
	i := w.p.tr.begin("serve.declog_sync")
	err := w.inner.Sync()
	w.p.tr.end(i)
	return err
}

// clusterProbe holds the counters of the cluster wrappers.
type clusterProbe struct {
	tr         *tracer
	placeCalls uint64
	localRuns  uint64
	lessCalls  uint64
}

// probedLB times every placement under "cluster.place.<balancer>"; the
// ideal balancer's time includes its lookahead simulations.
type probedLB struct {
	inner cluster.LB
	name  string
	p     *clusterProbe
}

func probeLB(lb cluster.LB, p *clusterProbe) *probedLB {
	return &probedLB{inner: lb, name: "cluster.place." + lb.Name(), p: p}
}

func (b *probedLB) Name() string          { return b.inner.Name() }
func (b *probedLB) Init(w *cluster.World) { b.inner.Init(w) }
func (b *probedLB) Place(w *cluster.World, j model.JobID) (int, error) {
	i := b.p.tr.begin(b.name)
	ni, err := b.inner.Place(w, j)
	b.p.tr.end(i)
	b.p.placeCalls++
	return ni, err
}

// countingPolicy counts Less calls of the policies a cluster.Local hands
// out: node accounting and the ideal balancer's lookahead simulations.
type countingPolicy struct {
	inner sim.Policy
	less  *uint64
}

func (c *countingPolicy) Name() string              { return c.inner.Name() }
func (c *countingPolicy) Init(inst *model.Instance) { c.inner.Init(inst) }
func (c *countingPolicy) OnEvent(ctx *sim.Ctx)      { c.inner.OnEvent(ctx) }
func (c *countingPolicy) Less(ctx *sim.Ctx, a, b model.JobID) bool {
	*c.less++
	return c.inner.Less(ctx, a, b)
}

// probeLocal wraps a node's scheduling machinery: fresh policies count Less
// calls, and each per-node batch run is timed as "cluster.local_run".
func probeLocal(loc cluster.Local, p *clusterProbe) cluster.Local {
	newPolicy, run := loc.NewPolicy, loc.Run
	return cluster.Local{
		Name:      loc.Name,
		NewPolicy: func() sim.Policy { return &countingPolicy{inner: newPolicy(), less: &p.lessCalls} },
		Run: func(ni int, inst *model.Instance) (*model.Schedule, error) {
			i := p.tr.begin("cluster.local_run")
			s, err := run(ni, inst)
			p.tr.end(i)
			p.localRuns++
			return s, err
		},
	}
}

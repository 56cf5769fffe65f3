// Package core is the public entry point of the library: a registry of all
// eleven schedulers evaluated in the paper (Table 1) plus the refined
// offline variant, each usable through one call, and a convenience
// evaluator returning the stretch metrics of any subset of them on an
// instance.
//
// Schedulers are constructed through New, which applies functional options
// (WithWorkspace) at build time so instances are born fully wired — there
// is no post-hoc SetWorkspace step and no duck-typed capability probing.
// Get returns a lightweight registry handle whose Run constructs a fresh
// unwired instance per call; harnesses that replay many instances hold a
// Runner, which caches one wired instance per scheduler name on top of one
// engine and one workspace.
package core

import (
	"fmt"
	"sort"

	"stretchsched/internal/greedy"
	"stretchsched/internal/model"
	"stretchsched/internal/offline"
	"stretchsched/internal/online"
	"stretchsched/internal/policy"
	"stretchsched/internal/sim"
)

// Scheduler runs a complete scheduling strategy on an instance.
type Scheduler interface {
	Name() string
	Run(inst *model.Instance) (*model.Schedule, error)
}

// PlannerBacked is implemented by constructed schedulers that drive a
// sim.Planner (re-invoked by the engine at every job arrival). Planner
// exposes the underlying instance for harnesses that drive it directly.
type PlannerBacked interface {
	Scheduler
	Planner() sim.Planner
}

// PolicyBacked is implemented by constructed schedulers that drive a
// sim.Policy priority list through the greedy spatial rule of §3. Policy
// exposes the underlying instance so external event loops (the serving
// daemon in internal/serve) can drive the exact same policy outside a
// batch simulation.
type PolicyBacked interface {
	Scheduler
	Policy() sim.Policy
}

// solveDiagnostics is implemented by schedulers that record per-event
// solver failures they fell back from instead of aborting (the online
// heuristics' Refine fallback, Online-EGDF's optimal-stretch retry).
type solveDiagnostics interface {
	SolveFailures() (stretchErrs, refineErrs int)
}

// Option configures scheduler construction in New.
type Option func(*buildCfg)

type buildCfg struct {
	ws *offline.Workspace
}

// WithWorkspace attaches a shared solver workspace at construction time:
// planners and policies that draw their problem/flow/plan buffers from an
// offline.Workspace are returned already wired to ws. A nil workspace is
// valid and, exactly like omitting the option, gives each such scheduler a
// private workspace at its first run.
func WithWorkspace(ws *offline.Workspace) Option {
	return func(c *buildCfg) { c.ws = ws }
}

// New constructs the named scheduler with the given options applied. The
// returned instance is stateful and not safe for concurrent use; its
// planner or policy resets itself through the Init contract on every run,
// so one instance may be reused across many instances (a Runner does this
// caching per worker).
func New(name string, opts ...Option) (Scheduler, error) {
	e, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown scheduler %q (known: %v)", name, Names())
	}
	var cfg buildCfg
	for _, o := range opts {
		o(&cfg)
	}
	return e.build(cfg), nil
}

// entry is one registry row: exactly one of the three factories is set,
// and the factory itself performs any workspace wiring on the concrete
// type — registration is the single place that knows how each scheduler
// is assembled, which is what lets Runner.Run stay free of type probing.
type entry struct {
	name    string
	planner func(ws *offline.Workspace) sim.Planner
	policy  func(ws *offline.Workspace) sim.Policy
	direct  func(*model.Instance) (*model.Schedule, error)
}

func (e *entry) build(cfg buildCfg) Scheduler {
	switch {
	case e.planner != nil:
		return &builtPlanner{name: e.name, pl: e.planner(cfg.ws)}
	case e.policy != nil:
		return &builtPolicy{name: e.name, pol: e.policy(cfg.ws)}
	default:
		return builtDirect{name: e.name, run: e.direct}
	}
}

type builtPlanner struct {
	name string
	pl   sim.Planner
}

func (s *builtPlanner) Name() string         { return s.name }
func (s *builtPlanner) Planner() sim.Planner { return s.pl }

func (s *builtPlanner) Run(inst *model.Instance) (*model.Schedule, error) {
	return sim.RunPlanned(inst, s.pl)
}

type builtPolicy struct {
	name string
	pol  sim.Policy
}

func (s *builtPolicy) Name() string       { return s.name }
func (s *builtPolicy) Policy() sim.Policy { return s.pol }

func (s *builtPolicy) Run(inst *model.Instance) (*model.Schedule, error) {
	return sim.RunList(inst, s.pol)
}

type builtDirect struct {
	name string
	run  func(*model.Instance) (*model.Schedule, error)
}

func (s builtDirect) Name() string { return s.name }

func (s builtDirect) Run(inst *model.Instance) (*model.Schedule, error) { return s.run(inst) }

// regHandle is the stateless value Get returns: Run constructs a fresh
// unwired instance per call, preserving the historical Get
// semantics (no shared state between calls). Runner.Run recognises it and
// substitutes its own cached wired instance.
type regHandle struct {
	e *entry
}

func (h regHandle) Name() string { return h.e.name }

func (h regHandle) Run(inst *model.Instance) (*model.Schedule, error) {
	return h.e.build(buildCfg{}).Run(inst)
}

// Runner executes schedulers on one reusable simulation engine and one
// pooled planner workspace, so harnesses that replay many instances (the
// experiment grid, benchmarks) avoid per-run allocation: registry-backed
// schedulers are constructed once per Runner via New(name,
// WithWorkspace(ws)) and reset through their Init contract on every run. A
// Runner is not safe for concurrent use; hold one per worker goroutine. The
// schedule returned by Run is overwritten by the next Run call on the same
// Runner.
type Runner struct {
	eng   *sim.Engine
	ws    *offline.Workspace
	built map[string]Scheduler
}

// NewRunner returns a Runner with a fresh engine and workspace.
func NewRunner() *Runner {
	return &Runner{
		eng:   sim.NewEngine(),
		ws:    offline.NewWorkspace(),
		built: map[string]Scheduler{},
	}
}

// cached returns the runner's wired instance for a registry name,
// constructing it on first use.
func (r *Runner) cached(name string) (Scheduler, error) {
	if b, ok := r.built[name]; ok {
		return b, nil
	}
	b, err := New(name, WithWorkspace(r.ws))
	if err != nil {
		return nil, err
	}
	r.built[name] = b
	return b, nil
}

// Run executes s on inst, reusing the runner's engine, workspace and cached
// scheduler instance when the scheduler supports them. Any scheduler value
// originating from this package's registry (Get, MustGet, New) is
// substituted by the runner's own cached instance of the same name, so the
// runner's workspace — not whatever the value was constructed with — backs
// the run; custom Scheduler implementations run as themselves.
func (r *Runner) Run(s Scheduler, inst *model.Instance) (*model.Schedule, error) {
	switch s.(type) {
	case regHandle, *builtPlanner, *builtPolicy, builtDirect:
		b, err := r.cached(s.Name())
		if err != nil {
			return nil, err
		}
		switch c := b.(type) {
		case PlannerBacked:
			return r.eng.RunPlanned(inst, c.Planner())
		case PolicyBacked:
			return r.eng.RunList(inst, c.Policy())
		default:
			return b.Run(inst)
		}
	}
	return s.Run(inst)
}

var registry = map[string]*entry{}

func registerPlanner(name string, mk func(ws *offline.Workspace) sim.Planner) {
	registry[name] = &entry{name: name, planner: mk}
}

func registerPolicy(name string, mk func(ws *offline.Workspace) sim.Policy) {
	registry[name] = &entry{name: name, policy: mk}
}

func registerDirect(name string, run func(*model.Instance) (*model.Schedule, error)) {
	registry[name] = &entry{name: name, direct: run}
}

func init() {
	// Workspace wiring happens here, in the factories, on the concrete
	// types: each registration states how its scheduler is assembled, and
	// SetWorkspace(nil) gives every planner and policy that takes one a
	// private workspace.
	registerPlanner("Offline", func(ws *offline.Workspace) sim.Planner {
		pl := offline.NewPlanner()
		pl.SetWorkspace(ws)
		return pl
	})
	registerPlanner("Offline-Refined", func(ws *offline.Workspace) sim.Planner {
		pl := &offline.Planner{Refined: true}
		pl.SetWorkspace(ws)
		return pl
	})
	// Offline-Exact pins the optimum with System (1) on exact rationals —
	// immune to the §5.3 float anomaly, at a large constant-factor cost;
	// intended for small instances and verification runs.
	registerPlanner("Offline-Exact", func(ws *offline.Workspace) sim.Planner {
		pl := &offline.Planner{Solver: offline.Solver{Exact: true}}
		pl.SetWorkspace(ws)
		return pl
	})
	registerPlanner("Online", func(ws *offline.Workspace) sim.Planner {
		h := online.New(online.Plain)
		h.SetWorkspace(ws)
		return h
	})
	registerPlanner("Online-EDF", func(ws *offline.Workspace) sim.Planner {
		h := online.New(online.EDF)
		h.SetWorkspace(ws)
		return h
	})
	registerPlanner("Online-NonOpt", func(ws *offline.Workspace) sim.Planner {
		h := online.NewNonOptimized()
		h.SetWorkspace(ws)
		return h
	})
	registerPolicy("Online-EGDF", func(ws *offline.Workspace) sim.Policy {
		e := online.NewEGDF()
		e.SetWorkspace(ws)
		return e
	})
	registerPolicy("Bender98", func(ws *offline.Workspace) sim.Policy {
		b := online.NewBender98()
		b.SetWorkspace(ws)
		return b
	})
	registerPolicy("Bender02", func(*offline.Workspace) sim.Policy { return policy.NewBender02() })
	registerPolicy("FCFS", func(*offline.Workspace) sim.Policy { return policy.FCFS{} })
	registerPolicy("SPT", func(*offline.Workspace) sim.Policy { return policy.SPT{} })
	registerPolicy("SWPT", func(*offline.Workspace) sim.Policy { return policy.SWPT{} })
	registerPolicy("SRPT", func(*offline.Workspace) sim.Policy { return policy.SRPT{} })
	registerPolicy("SWRPT", func(*offline.Workspace) sim.Policy { return policy.SWRPT{} })
	// ST14 is the Srivastav–Trystram total-stretch heuristic (PAPERS.md),
	// the competing local policy of the cluster experiment family.
	registerPolicy("ST14", func(*offline.Workspace) sim.Policy { return policy.NewST14() })
	registerDirect("MCT", greedy.MCT)
	registerDirect("MCT-Div", greedy.MCTDiv)
}

// Get returns the named scheduler as a lightweight registry handle: a
// stateless value whose Run constructs a fresh unwired instance per call.
// Use New to construct a wired, reusable instance.
func Get(name string) (Scheduler, error) {
	e, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown scheduler %q (known: %v)", name, Names())
	}
	return regHandle{e}, nil
}

// MustGet returns the named scheduler and panics if it is unknown. It is
// meant for registry names fixed at compile time.
func MustGet(name string) Scheduler {
	s, err := Get(name)
	if err != nil {
		panic(err)
	}
	return s
}

// Names returns all registered scheduler names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Table1Names returns the eleven heuristics of the paper's Table 1, in the
// paper's row order.
func Table1Names() []string {
	return []string{
		"Offline", "Online", "Online-EDF", "Online-EGDF", "Bender98",
		"SWRPT", "SRPT", "SPT", "Bender02", "MCT-Div", "MCT",
	}
}

// Metrics summarises one scheduler run on one instance.
type Metrics struct {
	Scheduler  string
	MaxStretch float64
	SumStretch float64
	MaxFlow    float64
	SumFlow    float64
	Makespan   float64
}

// Evaluate runs the named schedulers on inst and returns their metrics.
func Evaluate(inst *model.Instance, names []string) ([]Metrics, error) {
	out := make([]Metrics, 0, len(names))
	for _, name := range names {
		s, err := Get(name)
		if err != nil {
			return nil, err
		}
		sched, err := s.Run(inst)
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", name, err)
		}
		out = append(out, Metrics{
			Scheduler:  name,
			MaxStretch: sched.MaxStretch(inst),
			SumStretch: sched.SumStretch(inst),
			MaxFlow:    sched.MaxFlow(inst),
			SumFlow:    sched.SumFlow(inst),
			Makespan:   sched.Makespan(inst),
		})
	}
	return out, nil
}

// OptimalMaxStretch returns the offline optimal max-stretch of inst.
func OptimalMaxStretch(inst *model.Instance) (float64, error) {
	return offline.Optimal(inst)
}

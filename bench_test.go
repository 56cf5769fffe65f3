package stretchsched

// One benchmark per table and figure of the paper's evaluation (§5), plus
// the §5.3 scheduler-overhead comparison, micro-benchmarks of the solver
// substrates, and ablations of the design choices called out in DESIGN.md.
//
// Table/figure benches run a scaled-down slice of the real experiment (the
// full reproduction is `go run ./cmd/experiments`); their purpose here is a
// stable, regression-detecting measurement of each experiment's pipeline.

import (
	"fmt"
	"runtime"
	"testing"

	"stretchsched/internal/cluster"
	"stretchsched/internal/core"
	"stretchsched/internal/exp"
	"stretchsched/internal/fault"
	"stretchsched/internal/flow"
	"stretchsched/internal/lp"
	"stretchsched/internal/model"
	"stretchsched/internal/offline"
	"stretchsched/internal/online"
	"stretchsched/internal/policy"
	"stretchsched/internal/rat"
	"stretchsched/internal/serve"
	"stretchsched/internal/sim"
	"stretchsched/internal/uniproc"
	"stretchsched/internal/workload"
)

// benchGrid runs the grid slice selected by the table's filter, subsampled
// to at most six points so a bench iteration stays in the seconds range.
func benchGrid(b *testing.B, tableNum int) {
	b.Helper()
	spec, err := exp.TableByNumber(tableNum)
	if err != nil {
		b.Fatal(err)
	}
	var points []exp.GridPoint
	for _, p := range exp.DefaultGrid() {
		if spec.Filter == nil || spec.Filter(p) {
			points = append(points, p)
		}
	}
	step := (len(points) + 5) / 6
	var sample []exp.GridPoint
	for i := 0; i < len(points); i += step {
		sample = append(sample, points[i])
	}
	opts := exp.Options{Runs: 1, Seed: 42, TargetJobs: 10}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results := exp.Grid.Run(sample, opts)
		rows := exp.Aggregate(results, nil, core.Table1Names())
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkTable01Aggregate(b *testing.B)      { benchGrid(b, 1) }
func BenchmarkTable02Sites3(b *testing.B)         { benchGrid(b, 2) }
func BenchmarkTable03Sites10(b *testing.B)        { benchGrid(b, 3) }
func BenchmarkTable04Sites20(b *testing.B)        { benchGrid(b, 4) }
func BenchmarkTable05Density075(b *testing.B)     { benchGrid(b, 5) }
func BenchmarkTable06Density100(b *testing.B)     { benchGrid(b, 6) }
func BenchmarkTable07Density125(b *testing.B)     { benchGrid(b, 7) }
func BenchmarkTable08Density150(b *testing.B)     { benchGrid(b, 8) }
func BenchmarkTable09Density200(b *testing.B)     { benchGrid(b, 9) }
func BenchmarkTable10Density300(b *testing.B)     { benchGrid(b, 10) }
func BenchmarkTable11Databanks3(b *testing.B)     { benchGrid(b, 11) }
func BenchmarkTable12Databanks10(b *testing.B)    { benchGrid(b, 12) }
func BenchmarkTable13Databanks20(b *testing.B)    { benchGrid(b, 13) }
func BenchmarkTable14Availability30(b *testing.B) { benchGrid(b, 14) }
func BenchmarkTable15Availability60(b *testing.B) { benchGrid(b, 15) }
func BenchmarkTable16Availability90(b *testing.B) { benchGrid(b, 16) }

// BenchmarkFigure3a measures the max-stretch-degradation sweep pipeline
// (optimised and non-optimised online vs the offline optimum).
func BenchmarkFigure3a(b *testing.B) {
	opts := exp.Fig3Options{
		Densities: []float64{0.25, 2.0}, JobLengths: []float64{10},
		Runs: 1, TargetJobs: 10, Seed: 7,
	}
	for i := 0; i < b.N; i++ {
		points, errs := exp.RunFigure3(opts)
		if len(points) != 2 || len(errs) != 0 {
			b.Fatal("bad sweep", errs)
		}
	}
}

// BenchmarkFigure3b measures the sum-stretch-gain sweep (same pipeline,
// reported metric differs; kept separate to mirror the paper's two panels).
func BenchmarkFigure3b(b *testing.B) {
	opts := exp.Fig3Options{
		Densities: []float64{0.0125, 4.0}, JobLengths: []float64{10},
		Runs: 1, TargetJobs: 10, Seed: 11,
	}
	for i := 0; i < b.N; i++ {
		points, errs := exp.RunFigure3(opts)
		if len(points) != 2 || len(errs) != 0 {
			b.Fatal("bad sweep", errs)
		}
	}
}

func benchInstance(b *testing.B, target int) *model.Instance {
	b.Helper()
	inst, err := workload.Config{
		Sites: 3, Databanks: 3, Availability: 0.6, Density: 1.5,
		TargetJobs: target, SizeRange: [2]float64{10, 200}, Seed: 20_06,
	}.Generate()
	if err != nil {
		b.Fatal(err)
	}
	return inst
}

// BenchmarkSchedulerOverhead reproduces the §5.3 overhead comparison: the
// paper reports ~0.28 s for its online heuristics, 0.54 s for the offline
// optimal and 19.76 s for Bender98 on 3-site/15-minute workloads. The
// ordering (cheap list policies ≪ online LP ≪ Bender98) is the claim.
func BenchmarkSchedulerOverhead(b *testing.B) {
	inst := benchInstance(b, 25)
	for _, name := range []string{"SWRPT", "MCT", "Online", "Online-EGDF", "Offline", "Bender98", "Bender02"} {
		s := core.MustGet(name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.Run(inst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- substrate micro-benchmarks ---

func BenchmarkOfflineSolver(b *testing.B) {
	for _, target := range []int{10, 25, 50} {
		inst := benchInstance(b, target)
		prob := offline.FromInstance(inst)
		b.Run(fmt.Sprintf("jobs=%d", inst.NumJobs()), func(b *testing.B) {
			var s offline.Solver
			for i := 0; i < b.N; i++ {
				if _, err := s.OptimalStretch(prob); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFeasibilityFlow(b *testing.B) {
	inst := benchInstance(b, 40)
	prob := offline.FromInstance(inst)
	f := prob.UpperBound()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !prob.Feasible(f) {
			b.Fatal("upper bound infeasible")
		}
	}
}

func BenchmarkSystem2Refine(b *testing.B) {
	inst := benchInstance(b, 40)
	prob := offline.FromInstance(inst)
	var s offline.Solver
	sol, err := s.OptimalStretch(prob)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prob.Refine(sol.Stretch); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFluidEngineSWRPT(b *testing.B) {
	inst := benchInstance(b, 60)
	s := core.MustGet("SWRPT")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(inst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFluidEngineSteadyState is the allocation budget of the engine
// overhaul: a reused sim.Engine replaying the list driver must report
// 0 allocs/op (enforced as a hard test in internal/sim; tracked here as a
// number alongside the other engine benchmarks).
func BenchmarkFluidEngineSteadyState(b *testing.B) {
	inst := benchInstance(b, 60)
	eng := sim.NewEngine()
	pol := policy.SWRPT{}
	if _, err := eng.RunList(inst, pol); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.RunList(inst, pol); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlannedEngine is the planned-path companion of
// BenchmarkFluidEngineSteadyState: one engine + one planner workspace
// replaying each planned (or planner-workspace-backed) scheduler through
// core.Runner, which caches the instances and wires the workspace. The
// allocs/op column is the headline: 0 for the offline planners, the
// online/Bender98 reduction the workspace overhaul bought, and for
// Offline-Exact the residual math/big escapes of the small-rational
// backend (its ns/op is the acceptance number of that fast path).
func BenchmarkPlannedEngine(b *testing.B) {
	inst := benchInstance(b, 25)
	runner := core.NewRunner()
	for _, name := range []string{"Offline", "Offline-Refined", "Offline-Exact", "Online", "Online-EDF", "Bender98"} {
		s := core.MustGet(name)
		if _, err := runner.Run(s, inst); err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := runner.Run(s, inst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOfflineExactScale is the acceptance benchmark of the sparse
// revised simplex: Offline-Exact through core.Runner on paper-scale
// platforms (10 and 20 sites, the §5.3 grid's heavy tail), the instances
// that were impractical on the dense tableau — 16m20s at 10 sites on the
// measurement host, versus ~2s through the revised method, and 20 sites
// did not finish at all (~18s revised). CI records one iteration of each
// in BENCH_<sha>.json via the bench-smoke job.
func BenchmarkOfflineExactScale(b *testing.B) {
	for _, sites := range []int{10, 20} {
		inst, err := workload.Config{
			Sites: sites, Databanks: sites, Availability: 0.9, Density: 3.0,
			TargetJobs: 20, SizeRange: [2]float64{10, 200}, Seed: 9_000_009,
		}.Generate()
		if err != nil {
			b.Fatal(err)
		}
		runner := core.NewRunner()
		s := core.MustGet("Offline-Exact")
		b.Run(fmt.Sprintf("sites=%d", sites), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := runner.Run(s, inst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOfflineExactFloatHeavy is the acceptance benchmark of the
// 128-bit medium rational tier: Offline-Exact on generator workloads whose
// processing times carry full float64 mantissas over heterogeneous-speed
// platforms — the §5.3-style instances whose exact pivot products exceed 63
// bits at nearly every step. Before the medium tier those products escaped
// to allocating big.Rat values (13.8M allocs/run at 10 sites on the PR 4
// tree); with it they stay in inline fixed-width arithmetic, and the
// allocs/op column — recorded per commit in BENCH_<sha>.json by the
// bench-smoke job, with TestExactFloatHeavySteadyStateAllocs gating the
// steady state — is the number this tier is judged by.
func BenchmarkOfflineExactFloatHeavy(b *testing.B) {
	for _, sites := range []int{3, 10} {
		inst, err := workload.Config{
			Sites: sites, Databanks: sites, Availability: 0.9, Density: 3.0,
			TargetJobs: 25, SizeRange: [2]float64{10, 200}, Seed: 77_000_077,
		}.Generate()
		if err != nil {
			b.Fatal(err)
		}
		runner := core.NewRunner()
		s := core.MustGet("Offline-Exact")
		b.Run(fmt.Sprintf("sites=%d", sites), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := runner.Run(s, inst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOnlineEventSolve replays Online-EGDF in Exact mode — one exact
// step-2 solve per arrival event, refined on parametric cuts and certified
// by a rational max-flow — through one engine + workspace, and reports
// the cost per arrival (ns/arrival) next to ns/op for the whole replay.
func BenchmarkOnlineEventSolve(b *testing.B) {
	inst := benchInstance(b, 25)
	eng := sim.NewEngine()
	e := online.NewEGDF()
	e.Solver.Exact = true
	e.SetWorkspace(offline.NewWorkspace())
	if _, err := eng.RunList(inst, e); err != nil {
		b.Fatal(err)
	}
	arrivals := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.RunList(inst, e); err != nil {
			b.Fatal(err)
		}
		arrivals += inst.NumJobs()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(arrivals), "ns/arrival")
}

// benchServeLoop replays a generated workload through a serve.Loop — one
// arrival event per job, one completion event per job, a replan at every
// event — and reports the sustained event rate.
func benchServeLoop(b *testing.B, policy string, exact bool, cfg workload.Config) {
	b.Helper()
	inst, err := cfg.Generate()
	if err != nil {
		b.Fatal(err)
	}
	reqs := make([]serve.SubmitRequest, inst.NumJobs())
	for i, j := range inst.Jobs {
		reqs[i] = serve.SubmitRequest{Name: j.Name, Size: j.Size, Databank: j.Databank, Release: j.Release}
	}
	var events uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws := offline.NewWorkspace()
		sched, err := core.New(policy, core.WithWorkspace(ws))
		if err != nil {
			b.Fatal(err)
		}
		if exact {
			sched.(core.PolicyBacked).Policy().(*online.EGDF).Solver.Exact = true
		}
		loop, err := serve.New(serve.Config{Platform: inst.Platform, Scheduler: sched, Workspace: ws})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range reqs {
			if _, err := loop.Submit(r); err != nil {
				b.Fatal(err)
			}
		}
		if err := loop.Drain(); err != nil {
			b.Fatal(err)
		}
		snap, err := loop.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		events += snap.Counters.Events
	}
	b.StopTimer()
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkServeEventLoop is the serving daemon's acceptance benchmark
// (ROADMAP item 1): sustained events/sec through the full admission path —
// stream slot management, event-clock advance, per-event replan, decision
// accounting. The sustained sub-bench replays ≥10⁴ events under a cheap
// list policy, measuring the loop machinery itself; the egdf sub-benches
// replay a paper-scale GriPPS day under the LP-based online policy (float
// and exact step-2 solves), where the per-event re-optimisation dominates.
func BenchmarkServeEventLoop(b *testing.B) {
	gripps := workload.Config{Sites: 6, Databanks: 12, Availability: 0.5, Density: 0.8}
	sustained := gripps
	sustained.Seed, sustained.TargetJobs = 1, 5000
	egdf := gripps
	egdf.Seed, egdf.TargetJobs = 7, 40
	b.Run("policy=SWRPT/sustained", func(b *testing.B) { benchServeLoop(b, "SWRPT", false, sustained) })
	b.Run("policy=Online-EGDF/float", func(b *testing.B) { benchServeLoop(b, "Online-EGDF", false, egdf) })
	b.Run("policy=Online-EGDF/exact", func(b *testing.B) { benchServeLoop(b, "Online-EGDF", true, egdf) })
}

// BenchmarkClusterWorld measures one cluster world end to end — per-node
// online accounting advanced at every arrival, a placement decision per
// job, then the per-node batch runs — across machine counts and balancers
// under the SWRPT local scheduler. The ideal balancer's scratch-engine
// lookahead (M candidate schedules per arrival) is the expensive outlier
// the cheaper signals are judged against; recorded per commit in
// BENCH_<sha>.json by the bench-smoke job.
func BenchmarkClusterWorld(b *testing.B) {
	for _, machines := range []int{2, 4} {
		inst, err := workload.Config{
			Sites: 1, ProcsPerSite: 1, Databanks: 12, Availability: 1,
			Density: 1.5 * float64(machines), TargetJobs: 30 * machines,
			SizeRange: [2]float64{10, 200}, Seed: 20_06,
		}.Generate()
		if err != nil {
			b.Fatal(err)
		}
		ci, err := model.Replicate(inst.Platform, machines, inst.Jobs)
		if err != nil {
			b.Fatal(err)
		}
		runner := core.NewClusterRunner()
		for _, name := range []string{"random", "kchoices", "stretch", "ideal"} {
			lb, ok := cluster.Balancers(name)
			if !ok {
				b.Fatalf("unknown balancer %s", name)
			}
			b.Run(fmt.Sprintf("machines=%d/balancer=%s", machines, name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					cs, err := runner.Run("SWRPT", ci, lb, 20_06, nil)
					if err != nil {
						b.Fatal(err)
					}
					if cs.MaxStretch(ci) < 1 {
						b.Fatal("degenerate schedule")
					}
				}
			})
		}
	}
}

// BenchmarkFaultyWorld measures the fault-injected cluster world — the
// event loop interleaving machine down/up intervals with arrivals, work
// lost on failure, and backoff-delayed re-placement — against the
// zero-failure world BenchmarkClusterWorld measures. The delta is
// the price of fault accounting under the stretch balancer.
func BenchmarkFaultyWorld(b *testing.B) {
	for _, machines := range []int{2, 4} {
		inst, err := workload.Config{
			Sites: 1, ProcsPerSite: 1, Databanks: 12, Availability: 1,
			Density: 1.5 * float64(machines), TargetJobs: 30 * machines,
			SizeRange: [2]float64{10, 200}, Seed: 20_06,
		}.Generate()
		if err != nil {
			b.Fatal(err)
		}
		ci, err := model.Replicate(inst.Platform, machines, inst.Jobs)
		if err != nil {
			b.Fatal(err)
		}
		horizon := 0.0
		for _, j := range ci.Jobs {
			if j.Release > horizon {
				horizon = j.Release
			}
		}
		plan, err := fault.New(fault.Config{
			Nodes: machines, Horizon: horizon, Rate: 2, Seed: 20_06,
		})
		if err != nil {
			b.Fatal(err)
		}
		lb, _ := cluster.Balancers("stretch")
		runner := core.NewClusterRunner()
		b.Run(fmt.Sprintf("machines=%d", machines), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runner.ResetStats()
				cs, err := runner.Run("SWRPT", ci, lb, 20_06, plan)
				if err != nil {
					b.Fatal(err)
				}
				if cs.MaxStretch(ci) < 1 {
					b.Fatal("degenerate schedule")
				}
			}
		})
	}
}

// BenchmarkGridWorkers measures the sharded runner's scaling on a fixed
// grid slice: the same work at 1 worker and at GOMAXPROCS workers, with
// bitwise-identical results (see exp.TestGridWorkerInvariance).
func BenchmarkGridWorkers(b *testing.B) {
	grid := exp.DefaultGrid()
	sample := []exp.GridPoint{grid[0], grid[30], grid[60], grid[90], grid[120], grid[150]}
	workers := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		workers = append(workers, n)
	}
	for _, w := range workers {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			opts := exp.Options{Runs: 2, Seed: 42, TargetJobs: 12, Workers: w,
				Schedulers: []string{"Online", "SWRPT", "SRPT", "MCT"}}
			for i := 0; i < b.N; i++ {
				if results := exp.Grid.Run(sample, opts); len(results) == 0 {
					b.Fatal("no results")
				}
			}
		})
	}
}

func BenchmarkSimplexFloat(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := lp.New[float64](lp.NewFloat64Ops(), 6)
		p.SetMaximize(true)
		for v := 0; v < 6; v++ {
			p.SetObjectiveCoef(v, float64(v+1))
			row := make([]float64, 6)
			row[v] = 1
			p.AddDense(row, lp.LE, 10)
		}
		p.AddDense([]float64{1, 1, 1, 1, 1, 1}, lp.LE, 20)
		if _, err := p.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimplexRational(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := lp.New[rat.Rat](lp.RatOps{}, 6)
		p.SetMaximize(true)
		one := rat.One
		for v := 0; v < 6; v++ {
			p.SetObjectiveCoef(v, rat.FromInt(int64(v+1)))
			row := make([]rat.Rat, 6)
			row[v] = one
			p.AddDense(row, lp.LE, rat.FromInt(10))
		}
		p.AddDense([]rat.Rat{one, one, one, one, one, one}, lp.LE, rat.FromInt(20))
		if _, err := p.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimplexRevised is BenchmarkSimplexRational through the revised
// solver: the same tiny dense box LP, tracking the revised method's
// per-solve constant factors (eta file, column build, BTRAN pricing). On
// programs this small and dense the tableau is competitive — which is why
// it stays the float-path solver; the revised method's case is the sparse
// System (1) scale of BenchmarkOfflineExactScale and the ablation below.
func BenchmarkSimplexRevised(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := lp.New[rat.Rat](lp.RatOps{}, 6)
		p.SetMaximize(true)
		one := rat.One
		for v := 0; v < 6; v++ {
			p.SetObjectiveCoef(v, rat.FromInt(int64(v+1)))
			row := make([]rat.Rat, 6)
			row[v] = one
			p.AddDense(row, lp.LE, rat.FromInt(10))
		}
		p.AddDense([]rat.Rat{one, one, one, one, one, one}, lp.LE, rat.FromInt(20))
		if _, err := p.SolveRevised(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMinCostFlow(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := flow.NewMinCost(22, 0)
		for u := 0; u < 10; u++ {
			g.AddEdge(20, u, 5, 0)
			for v := 10; v < 20; v++ {
				g.AddEdge(u, v, 3, float64((u*v)%7))
			}
		}
		for v := 10; v < 20; v++ {
			g.AddEdge(v, 21, 5, 0)
		}
		g.Run(20, 21)
	}
}

// --- ablation benchmarks (design choices from DESIGN.md) ---

// BenchmarkAblationExactRefinement compares the float bisection refinement
// against the exact parametric-cut refinement on the same instance — the
// price of eliminating the §5.3 precision anomaly. The System (1) linear
// programs the cut replaced are timed by offline's BenchmarkExactOracle.
func BenchmarkAblationExactRefinement(b *testing.B) {
	inst := benchInstance(b, 8)
	prob := offline.FromInstance(inst)
	for _, exact := range []bool{false, true} {
		name := "bisection"
		if exact {
			name = "exact-cut"
		}
		b.Run(name, func(b *testing.B) {
			s := offline.Solver{Exact: exact}
			for i := 0; i < b.N; i++ {
				if _, err := s.OptimalStretch(prob); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationFeasibilityOracle compares the single-machine EDF
// feasibility oracle against the general flow oracle on the same
// uni-processor deadline problems.
func BenchmarkAblationFeasibilityOracle(b *testing.B) {
	jobs := make([]uniproc.UJob, 30)
	for i := range jobs {
		jobs[i] = uniproc.UJob{Release: float64(i) * 0.7, Size: 1 + float64(i%5)}
	}
	inst, err := uniproc.Instance(jobs)
	if err != nil {
		b.Fatal(err)
	}
	prob := offline.FromInstance(inst)
	const f = 3.0
	tasks := make([]uniproc.Task, len(jobs))
	for i := range inst.Jobs {
		tasks[i] = uniproc.Task{
			Release:  inst.Jobs[i].Release,
			Work:     inst.Jobs[i].Size,
			Deadline: inst.Jobs[i].Release + f*inst.AloneTime(model.JobID(i)),
		}
	}
	b.Run("edf", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			uniproc.FeasibleEDF(tasks, 1)
		}
	})
	b.Run("flow", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			prob.Feasible(f)
		}
	})
}

// BenchmarkAblationRealizeOrderings compares the two Step-4 realisation
// orders of the online heuristic on identical allocations.
func BenchmarkAblationRealizeOrderings(b *testing.B) {
	inst := benchInstance(b, 30)
	prob := offline.FromInstance(inst)
	var s offline.Solver
	sol, err := s.OptimalStretch(prob)
	if err != nil {
		b.Fatal(err)
	}
	for _, ord := range []struct {
		name string
		o    offline.Ordering
	}{{"terminal-swrpt", offline.TerminalSWRPT}, {"global-edf", offline.GlobalCompletionEDF}} {
		b.Run(ord.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sol.Alloc.Realize(ord.o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationMaxFlowAlgorithm races the two max-flow implementations
// on the transportation shape of the feasibility oracle (three layers,
// many parallel bottlenecks).
func BenchmarkAblationMaxFlowAlgorithm(b *testing.B) {
	const tasks, bins = 40, 200
	build := func() ([][3]float64, float64) {
		var edges [][3]float64
		total := 0.0
		for k := 0; k < tasks; k++ {
			w := 1 + float64(k%7)
			total += w
			edges = append(edges, [3]float64{float64(tasks + bins), float64(k), w})
			for t := 0; t < bins; t++ {
				if (k+t)%3 == 0 {
					edges = append(edges, [3]float64{float64(k), float64(tasks + t), w})
				}
			}
		}
		for t := 0; t < bins; t++ {
			edges = append(edges, [3]float64{float64(tasks + t), float64(tasks + bins + 1), 2.5})
		}
		return edges, total
	}
	edges, _ := build()
	src, sink := tasks+bins, tasks+bins+1
	b.Run("dinic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := flow.NewGraph[float64](lp.NewFloat64Ops(), tasks+bins+2)
			for _, e := range edges {
				g.AddEdge(int(e[0]), int(e[1]), e[2])
			}
			g.MaxFlow(src, sink)
		}
	})
	b.Run("push-relabel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := flow.NewPushRelabel(tasks+bins+2, 0)
			for _, e := range edges {
				g.AddEdge(int(e[0]), int(e[1]), e[2])
			}
			g.MaxFlow(src, sink)
		}
	})
}

// BenchmarkAblationEngineReuse contrasts a fresh engine per run (every
// buffer reallocated, as the seed engine behaved) against one reused
// sim.Engine (allocation-free steady state) on the same policy — the cost
// of the former is the motivation for the Engine API in DESIGN.md.
func BenchmarkAblationEngineReuse(b *testing.B) {
	inst := benchInstance(b, 60)
	pol := policy.SWRPT{}
	b.Run("fresh-engine", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sim.RunList(inst, pol); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reused-engine", func(b *testing.B) {
		eng := sim.NewEngine()
		if _, err := eng.RunList(inst, pol); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.RunList(inst, pol); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationPlannerWorkspace contrasts a fresh planner + engine per
// run (every LP/flow/plan buffer reallocated, as PR 1 left the planned path)
// against a reused engine + offline.Workspace pair — the planned-path
// analogue of BenchmarkAblationEngineReuse and the cost justification for
// the workspace layer in DESIGN.md.
func BenchmarkAblationPlannerWorkspace(b *testing.B) {
	inst := benchInstance(b, 25)
	for _, variant := range []struct {
		name string
		mk   func() sim.Planner
	}{
		{"offline", func() sim.Planner { return offline.NewPlanner() }},
		{"online", func() sim.Planner { return online.New(online.Plain) }},
	} {
		b.Run(variant.name+"/fresh", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sim.RunPlanned(inst, variant.mk()); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(variant.name+"/workspace", func(b *testing.B) {
			eng := sim.NewEngine()
			ws := offline.NewWorkspace()
			pl := variant.mk()
			pl.(interface{ SetWorkspace(*offline.Workspace) }).SetWorkspace(ws)
			if _, err := eng.RunPlanned(inst, pl); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.RunPlanned(inst, pl); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationListVsPlanned contrasts the two engine drivers on the
// same priority concept: SWRPT as a dynamic list policy vs the offline
// optimal followed as a fixed timetable.
func BenchmarkAblationListVsPlanned(b *testing.B) {
	inst := benchInstance(b, 30)
	b.Run("list-swrpt", func(b *testing.B) {
		s := core.MustGet("SWRPT")
		for i := 0; i < b.N; i++ {
			if _, err := s.Run(inst); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("planned-offline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sim.RunPlanned(inst, offline.NewPlanner()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

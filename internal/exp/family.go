package exp

import (
	"fmt"
	"math"
	"runtime"
	"strings"

	"stretchsched/internal/model"
	"stretchsched/internal/workload"
)

// Family is one experiment family over its point type P: the paper grid
// (Grid, over GridPoint) and the cluster family (Cluster, over
// ClusterPoint). A family holds what differs between them — the point's
// CSV columns and codec, the workload of one (point, run), a dispatch-cost
// estimate and a per-worker instance runner — and its methods are the one
// implementation of everything they share: the sharded run, the CSV
// writer, streamer and reader, the per-point digests and the timing
// sidecar.
type Family[P comparable] struct {
	name      string   // names the family in errors
	pointCols []string // the point's CSV columns, leading every row
	// faultCols appends the failure accounting (retries, lost_work) to
	// every row.
	faultCols bool
	// targetJobs and schedulers are the Options defaults.
	targetJobs int
	schedulers func() []string
	format     func(P) []string // the point's CSV fields
	parse      func(c *fields) P
	// config is the workload of one (point, run); pointIdx is the global
	// grid index that seeds it.
	config func(o Options, p P, run, pointIdx int) workload.Config
	// weight estimates the relative cost of one instance at p, for shard
	// dispatch order only.
	weight func(o Options, p P) float64
	// worker returns one worker's instance runner, which owns the worker's
	// reusable simulation state and records every scheduler's metrics on
	// a generated, non-empty instance.
	worker func() instanceRunner[P]
}

// instanceRunner runs every scheduler of o on inst, one generated
// instance of res.Point, recording into res.
type instanceRunner[P comparable] func(o Options, res *Result[P], inst *model.Instance, pointIdx int)

// Options controls a family run.
type Options struct {
	Runs       int      // instances per configuration (paper: 200)
	Seed       int64    // base seed; instance seeds derive deterministically
	Schedulers []string // defaults to the family's list
	// TargetJobs sizes each instance by expected job count (grid default
	// 40; the cluster family's is per machine, default 30).
	TargetJobs int
	// Horizon, when positive, fixes the grid's arrival window in seconds
	// instead of TargetJobs (paper scale: 900).
	Horizon float64
	// Workers bounds parallelism (0 = GOMAXPROCS). The worker count never
	// affects results: instance seeds depend only on grid coordinates.
	Workers int
	// PointIndices, when non-nil, holds the global grid index of each
	// entry of the points slice (len(PointIndices) == len(points)). It is
	// how a sharded run — one slice of the grid per CI matrix job, see
	// ShardPoints — derives exactly the per-(point, run) instance seeds of
	// the unsharded grid: seeds depend on the global index, never on the
	// position within the shard. Nil means points[i] is global index i.
	PointIndices []int
	// DryRun generates every instance but runs no scheduler, recording
	// NaN for every metric. The result and CSV row structure is identical
	// to a real run's at a tiny fraction of the cost, so a dry pass
	// predicts the exact row count a sharded matrix must merge back
	// together (the nightly workflow asserts this).
	DryRun bool
	// Progress, when non-nil, is called after every completed instance
	// with the number of finished instances and the total. Calls are
	// serialised across workers.
	Progress func(done, total int)
	// Clock, when non-nil, is a monotonic nanosecond clock used to measure
	// each instance's scheduler wall time into Result.Seconds. Injected
	// (rather than time.Now) so the harness itself stays free of
	// wall-clock reads — results and CSV bytes never depend on it; the
	// measurements feed the timing sidecar, not the results stream.
	Clock func() int64
	// MeasuredSeconds, when non-nil, overrides the family's static cost
	// estimate with measured per-point times from a prior pass
	// (ReadPointTimes), keyed by the point's CSV fields joined by commas,
	// so shard dispatch orders by observed cost. It only influences
	// dispatch order, never results.
	MeasuredSeconds map[string]float64
}

func (f *Family[P]) withDefaults(o Options) Options {
	if o.Runs <= 0 {
		o.Runs = 5
	}
	if o.TargetJobs <= 0 {
		o.TargetJobs = f.targetJobs
	}
	if len(o.Schedulers) == 0 {
		o.Schedulers = f.schedulers()
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// seed derives one of an instance's seeds from its global coordinates;
// offset separates an instance's random streams.
func (o Options) seed(run, pointIdx int, offset int64) int64 {
	return o.Seed + int64(pointIdx)*1_000_003 + int64(run)*7919 + offset
}

// Result holds the raw metrics of every scheduler on one instance of a
// family's point. Absent schedulers (not run, or failed) are recorded as
// NaN.
type Result[P comparable] struct {
	Point      P
	Run        int
	Jobs       int
	MaxStretch map[string]float64
	SumStretch map[string]float64
	// Retries and LostWork are the cluster family's failure accounting:
	// placements beyond each job's first, and the completed-so-far work
	// failures discarded.
	Retries  map[string]int
	LostWork map[string]float64
	Errs     []error
	// StretchErrs and RefineErrs count the per-event solver failures the
	// online schedulers recorded and fell back from (step-2 optimal
	// stretch, step-3 System (2) refinement) on this instance — recorded
	// diagnostics, not run errors; cmd/experiments sums them per pass.
	StretchErrs int
	RefineErrs  int
	// Seconds is the measured scheduler wall time of this instance
	// (Options.Clock; zero without one). It never enters the results CSV —
	// worker-count invariance byte-compares that stream — only the timing
	// sidecar that feeds the next pass's dispatch order.
	Seconds float64
}

// InstanceResult is one paper-grid instance's result.
type InstanceResult = Result[GridPoint]

// ClusterResult is one cluster-family instance's result.
type ClusterResult = Result[ClusterPoint]

func newResult[P comparable](p P, run, jobs int) Result[P] {
	return Result[P]{
		Point:      p,
		Run:        run,
		Jobs:       jobs,
		MaxStretch: map[string]float64{},
		SumStretch: map[string]float64{},
		Retries:    map[string]int{},
		LostWork:   map[string]float64{},
	}
}

// record stores one scheduler's metrics.
func (r *Result[P]) record(name string, maxS, sumS float64, retries int, lost float64) {
	r.MaxStretch[name], r.SumStretch[name] = maxS, sumS
	r.Retries[name], r.LostWork[name] = retries, lost
}

// skip records a scheduler that did not run (dry run, skipped or failed).
func (r *Result[P]) skip(name string) {
	nan := math.NaN()
	r.record(name, nan, nan, 0, nan)
}

// key is a point's digest and timing key: its CSV fields.
func (f *Family[P]) key(p P) string { return strings.Join(f.format(p), ",") }

// pointWeight is the dispatch-cost estimate of one instance at p: the
// measured time of a prior pass when there is one, else the family's
// static estimate. It never influences results.
func (f *Family[P]) pointWeight(o Options, p P) float64 {
	if s := o.MeasuredSeconds[f.key(p)]; s > 0 {
		return s
	}
	return f.weight(o, p)
}

// shardOrder returns the dispatch order of the shard indices: largest
// estimated cost first, so the heavy points (20-site high-density
// platforms, Bender98 cells, ideal-balancer clusters) start while every
// worker still has queue ahead of it, instead of straggling alone at the
// end of the run. Dispatch order cannot affect results: instance seeds
// derive from (point, run) coordinates alone and RunCSV reorders shards by
// index when merging.
func (f *Family[P]) shardOrder(points []P, o Options) []int {
	pw := make([]float64, len(points))
	for pi := range points {
		pw[pi] = f.pointWeight(o, points[pi])
	}
	return orderByWeight(shardWeights(len(points)*o.Runs, func(ti int) float64 {
		return pw[ti/o.Runs]
	}))
}

// Run evaluates the configured schedulers over points × runs on the
// sharded worker pool and returns one Result per instance, indexed by
// pointIdx·Runs + run regardless of worker count.
func (f *Family[P]) Run(points []P, o Options) []Result[P] {
	return f.run(points, f.withDefaults(o), nil)
}

// run is the sharded run shared by Run and RunCSV; o has its defaults
// applied. Tasks ti ∈ [0, points·runs) map to (point ti/runs, run
// ti%runs). onShard, when non-nil, is invoked by the finishing worker with
// each completed shard's index and results; shards finish in arbitrary
// order and calls may be concurrent.
func (f *Family[P]) run(points []P, o Options, onShard func(si int, shard []Result[P])) []Result[P] {
	total := len(points) * o.Runs
	results := make([]Result[P], total)
	var shardDone func(si, lo, hi int)
	if onShard != nil {
		shardDone = func(si, lo, hi int) { onShard(si, results[lo:hi]) }
	}
	runSharded(total, o.Workers, f.worker, f.shardOrder(points, o),
		func(run instanceRunner[P], ti int) {
			pi := ti / o.Runs
			gi := pi
			if o.PointIndices != nil {
				gi = o.PointIndices[pi]
			}
			results[ti] = f.instance(run, o, points[pi], ti%o.Runs, gi)
		}, shardDone, o.Progress)
	return results
}

// instance generates one (point, run) and runs every scheduler on it. An
// instance with jobs gets one entry per scheduler — NaN on a dry run — so
// a dry run predicts a live run's rows exactly.
func (f *Family[P]) instance(run instanceRunner[P], o Options, p P, r, pointIdx int) Result[P] {
	res := newResult(p, r, 0)
	inst, err := f.config(o, p, r, pointIdx).Generate()
	if err != nil {
		res.Errs = append(res.Errs, err)
		return res
	}
	res.Jobs = inst.NumJobs()
	if res.Jobs == 0 {
		return res
	}
	if o.DryRun {
		for _, name := range o.Schedulers {
			res.skip(name)
		}
		return res
	}
	var t0 int64
	if o.Clock != nil {
		t0 = o.Clock()
	}
	run(o, &res, inst, pointIdx)
	if o.Clock != nil {
		res.Seconds = float64(o.Clock()-t0) / 1e9
	}
	return res
}

// safely calls run, turning a panic into an error so one scheduler's
// crash is recorded against its instance instead of killing the pass.
func safely[T any](run func() (T, error)) (v T, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("panic: %v", rec)
		}
	}()
	return run()
}

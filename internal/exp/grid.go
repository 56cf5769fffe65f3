// Package exp is the experiment harness reproducing the paper's evaluation
// (§5): the 162-configuration grid behind Tables 1–16 and the density sweep
// behind Figure 3, plus the cluster family built on the same harness.
//
// Scale note: the paper simulates 15-minute arrival windows and 200
// instances per configuration, which (with the per-databank density
// definition) yields thousands of jobs per instance. The harness defaults
// to a target number of jobs per instance instead, derived per
// configuration from the expected arrival rate, so the full grid runs in
// minutes on a laptop; Options.Horizon restores a fixed window (paper
// scale). Ratios-to-best — the quantity every table reports — are shape
// metrics and survive this rescaling.
//
// Both families run on one sharded worker pool: the (point, run) task
// space is cut into fixed-size contiguous shards which workers pull from a
// channel, dispatched largest-estimated-cost first so heavy points cannot
// straggle at the end of the run. Each worker owns one runner (hence one
// reusable simulation engine and one planner workspace), and every
// instance's RNG seed derives from its (point, run) coordinates alone, so
// results — and the merged per-shard CSV stream — are bitwise independent
// of both the worker count and the dispatch order. See DESIGN.md.
package exp

import (
	"fmt"
	"slices"
	"strconv"

	"stretchsched/internal/core"
	"stretchsched/internal/model"
	"stretchsched/internal/workload"
)

// GridPoint is one of the paper's 162 platform/application configurations.
type GridPoint struct {
	Sites        int
	Databanks    int
	Availability float64
	Density      float64
}

func (g GridPoint) String() string {
	return fmt.Sprintf("sites=%d dbs=%d avail=%.0f%% density=%.2f",
		g.Sites, g.Databanks, 100*g.Availability, g.Density)
}

// DefaultGrid returns the full grid of §5.3: platforms of 3/10/20 sites,
// 3/10/20 databanks, availabilities 30/60/90%, densities 0.75–3.0.
func DefaultGrid() []GridPoint {
	var out []GridPoint
	for _, sites := range []int{3, 10, 20} {
		for _, dbs := range []int{3, 10, 20} {
			for _, avail := range []float64{0.3, 0.6, 0.9} {
				for _, dens := range []float64{0.75, 1.0, 1.25, 1.5, 2.0, 3.0} {
					out = append(out, GridPoint{sites, dbs, avail, dens})
				}
			}
		}
	}
	return out
}

// sizeRange is the databank size range (MB) of every grid and cluster
// instance, scaled down so that TargetJobs-sized instances still overlap
// in time the way 15-minute GriPPS runs do.
var sizeRange = [2]float64{10, 200}

// bender98SiteLimit restricts Bender98 to platforms with at most this many
// sites (the paper's limit, for cost reasons).
const bender98SiteLimit = 3

// Grid is the paper's family: Tables 1–16 over the GridPoint grid, every
// Table 1 scheduler by default.
var Grid = Family[GridPoint]{
	name:       "grid",
	pointCols:  []string{"sites", "databanks", "availability", "density"},
	targetJobs: 40,
	schedulers: core.Table1Names,
	format: func(p GridPoint) []string {
		return []string{strconv.Itoa(p.Sites), strconv.Itoa(p.Databanks),
			formatFloat(p.Availability), formatFloat(p.Density)}
	},
	parse: func(c *fields) GridPoint {
		return GridPoint{c.integer(0), c.integer(1), c.num(2), c.num(3)}
	},
	config: gridConfig,
	weight: gridWeight,
	worker: gridWorker,
}

// gridConfig builds the workload configuration for one grid point and run.
func gridConfig(o Options, p GridPoint, run, pointIdx int) workload.Config {
	target := o.TargetJobs
	if o.Horizon > 0 {
		target = 0 // fixed horizon overrides target sizing
	}
	return workload.Config{
		Sites:        p.Sites,
		Databanks:    p.Databanks,
		Availability: p.Availability,
		Density:      p.Density,
		Horizon:      o.Horizon,
		TargetJobs:   target,
		SizeRange:    sizeRange,
		Seed:         o.seed(run, pointIdx, 0),
	}
}

// gridWeight is the static cost heuristic: planned schedulers dominate,
// each of the ~jobs re-plans runs a milestone search with O(log jobs)
// feasibility flows over networks that grow with jobs·sites, so the bulk
// scales like jobs²·sites. Bender98 performs a full offline solve per
// arrival on the points where it runs, worth roughly another factor of
// jobs — which is exactly why those points straggle when dispatched last.
func gridWeight(o Options, p GridPoint) float64 {
	jobs := float64(o.TargetJobs)
	if o.Horizon > 0 {
		if ej, err := gridConfig(o, p, 0, 0).ExpectedJobs(); err == nil && ej > 0 {
			jobs = ej
		}
	}
	w := jobs * jobs * float64(p.Sites)
	if p.Sites <= bender98SiteLimit && slices.Contains(o.Schedulers, "Bender98") {
		w *= jobs
	}
	return w
}

// gridWorker returns one worker's grid runner around its own core.Runner.
func gridWorker() instanceRunner[GridPoint] {
	runner := core.NewRunner()
	return func(o Options, res *InstanceResult, inst *model.Instance, _ int) {
		ran := make([]string, 0, len(o.Schedulers))
		for _, name := range o.Schedulers {
			if name == "Bender98" && res.Point.Sites > bender98SiteLimit {
				res.skip(name)
				continue
			}
			s, err := core.Get(name)
			if err != nil {
				res.Errs = append(res.Errs, err)
				continue
			}
			sched, err := safely(func() (*model.Schedule, error) { return runner.Run(s, inst) })
			if err != nil {
				res.Errs = append(res.Errs, fmt.Errorf("%s on %v run %d: %w", name, res.Point, res.Run, err))
				res.skip(name)
				continue
			}
			res.record(name, sched.MaxStretch(inst), sched.SumStretch(inst), 0, 0)
			ran = append(ran, name)
		}
		// One unified snapshot for the whole instance. Solve counters are
		// per-most-recent-run, so only the schedulers that actually ran on
		// this instance are folded in — a cached counter left over from a
		// previous instance (e.g. a skipped Bender98) must not
		// double-count.
		solve := runner.Stats().Solve
		for _, name := range ran {
			if ss, ok := solve[name]; ok {
				res.StretchErrs += ss.StretchErrs
				res.RefineErrs += ss.RefineErrs
			}
		}
	}
}

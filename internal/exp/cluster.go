package exp

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"stretchsched/internal/cluster"
	"stretchsched/internal/core"
	"stretchsched/internal/fault"
	"stretchsched/internal/model"
	"stretchsched/internal/stats"
	"stretchsched/internal/workload"
)

// The cluster experiment family runs one generated job stream over M
// identical single-processor nodes: a competing balancer places each job,
// competing local policies schedule it, and a seeded failure plan knocks
// nodes down at the point's rate — jobs on a failed node lose their work
// and re-enter the balancer after backoff, with stretch still charged from
// the original release. Two grids share the one point type:
// DefaultClusterGrid (rate 0) reproduces the Srivastav–Trystram
// single-vs-parallel-machines comparison (PAPERS.md: total stretch on
// single and identical parallel machines), with machines = 1 as the
// single-machine baseline; DefaultFaultGrid (density 1) charts
// retry-inflated stretch against failure rate per balancer, its rate-0
// column the fault-free anchor. RenderClusterTables and RenderFaultTables
// are two views of the same results. Cluster is a Family like Grid, so it
// runs on the same sharded pool, CSV codec and per-point digests — the
// task space just carries cluster axes instead of platform shape.

// ClusterPoint is one cluster configuration: M identical nodes, a
// balancer, a per-node workload density and a failure rate (expected
// failures per node over the arrival window; 0 for a perfect world).
type ClusterPoint struct {
	Machines int
	Balancer string
	Density  float64
	Rate     float64
}

func (p ClusterPoint) String() string {
	return fmt.Sprintf("machines=%d balancer=%s density=%.2f rate=%.2f",
		p.Machines, p.Balancer, p.Density, p.Rate)
}

// clusterBalancers are the placement policies both default grids compare.
var clusterBalancers = []string{"ideal", "random", "kchoices", "stretch"}

// DefaultClusterGrid returns the single-vs-parallel comparison grid:
// machines = 1 (the degenerate "single" placement) against clusters of 2
// and 4 nodes under every balancer, across four densities, without
// failures.
func DefaultClusterGrid() []ClusterPoint {
	var out []ClusterPoint
	for _, m := range []int{1, 2, 4} {
		balancers := clusterBalancers
		if m == 1 {
			// Every balancer degenerates to node 0; one entry suffices.
			balancers = []string{"single"}
		}
		for _, b := range balancers {
			for _, d := range []float64{0.75, 1.0, 1.5, 2.0} {
				out = append(out, ClusterPoint{Machines: m, Balancer: b, Density: d})
			}
		}
	}
	return out
}

// DefaultFaultGrid returns the stretch-vs-failure-rate grid: clusters of 2
// and 4 nodes under every balancer at density 1, across four failure rates
// including the fault-free anchor.
func DefaultFaultGrid() []ClusterPoint {
	var out []ClusterPoint
	for _, m := range []int{2, 4} {
		for _, b := range clusterBalancers {
			for _, r := range []float64{0, 0.5, 1, 2} {
				out = append(out, ClusterPoint{Machines: m, Balancer: b, Density: 1.0, Rate: r})
			}
		}
	}
	return out
}

// DefaultClusterSchedulers returns the local policies of the comparison:
// the paper's best-practice list rules against the Srivastav–Trystram
// heuristic.
func DefaultClusterSchedulers() []string { return []string{"SRPT", "SWRPT", "ST14"} }

// Seed offsets of one instance's balancer and failure-plan random
// streams, so they never alias the workload's.
const (
	lbSeedOffset    = 500_009
	faultSeedOffset = 900_007
)

// Cluster is the cluster family: one generated job stream per (point, run)
// over M identical nodes, every local policy of DefaultClusterSchedulers
// by default. At a point with failures each policy must account as
// itself: a list policy. Its rows carry each policy's retries and lost
// work.
var Cluster = Family[ClusterPoint]{
	name:       "cluster",
	pointCols:  []string{"machines", "balancer", "density", "rate"},
	faultCols:  true,
	targetJobs: 30,
	schedulers: DefaultClusterSchedulers,
	format: func(p ClusterPoint) []string {
		return []string{strconv.Itoa(p.Machines), p.Balancer,
			formatFloat(p.Density), formatFloat(p.Rate)}
	},
	parse: func(c *fields) ClusterPoint {
		return ClusterPoint{c.integer(0), c.row[1], c.num(2), c.num(3)}
	},
	config: clusterConfig,
	weight: clusterWeight,
	worker: clusterWorker,
}

// clusterConfig builds the workload for one cluster point and run: one
// single-processor site holding every databank — the identical-machines
// setting — with the arrival rate and job count scaled by M so per-machine
// load stays at the point's density (TargetJobs counts jobs per machine).
func clusterConfig(o Options, p ClusterPoint, run, pointIdx int) workload.Config {
	return workload.Config{
		Sites:        1,
		ProcsPerSite: 1,
		Databanks:    12,
		Availability: 1,
		Density:      p.Density * float64(p.Machines),
		TargetJobs:   o.TargetJobs * p.Machines,
		SizeRange:    sizeRange,
		Seed:         o.seed(run, pointIdx, 0),
	}
}

// clusterWeight estimates the relative cost of one instance at p: local
// list scheduling is ~jobs² in the worst case, the ideal balancer runs one
// full local simulation per node per arrival, and every retry is another
// placement and another local replan.
func clusterWeight(o Options, p ClusterPoint) float64 {
	jobs := float64(o.TargetJobs * p.Machines)
	w := jobs * jobs * (1 + p.Rate)
	if p.Balancer == "ideal" {
		w *= float64(p.Machines)
	}
	return w
}

// planHorizon is the failure window for one instance: the arrival span,
// falling back to the total alone time when every job releases at 0.
func planHorizon(inst *model.Instance) float64 {
	h := 0.0
	for _, j := range inst.Jobs {
		if j.Release > h {
			h = j.Release
		}
	}
	if h > 0 {
		return h
	}
	for _, j := range inst.Jobs {
		h += j.Size
	}
	if h == 0 {
		h = 1
	}
	return h
}

// clusterWorker returns one worker's cluster runner around its own
// core.ClusterRunner. A world that cannot be built, or a policy that
// fails, records NaN for the policies it denies.
func clusterWorker() instanceRunner[ClusterPoint] {
	cr := core.NewClusterRunner()
	return func(o Options, res *ClusterResult, inst *model.Instance, pointIdx int) {
		p := res.Point
		ci, lb, plan, err := world(o, inst, p, res.Run, pointIdx)
		if err != nil {
			res.Errs = append(res.Errs, fmt.Errorf("exp: cluster world for %v run %d: %w", p, res.Run, err))
			for _, name := range o.Schedulers {
				res.skip(name)
			}
			return
		}
		for _, name := range o.Schedulers {
			cr.ResetStats()
			cs, err := safely(func() (*model.ClusterSchedule, error) {
				return cr.Run(name, ci, lb, o.seed(res.Run, pointIdx, lbSeedOffset), plan)
			})
			if err != nil {
				res.Errs = append(res.Errs, fmt.Errorf("%s on %v run %d: %w", name, p, res.Run, err))
				res.skip(name)
				continue
			}
			fs := cr.Stats().Faults
			res.record(name, cs.MaxStretch(ci), cs.SumStretch(ci), fs.Replacements, fs.LostWork)
		}
	}
}

// world builds one instance's cluster, balancer and failure plan.
func world(o Options, inst *model.Instance, p ClusterPoint, run, pointIdx int) (*model.ClusterInstance, cluster.LB, *fault.Plan, error) {
	lb, ok := cluster.Balancers(p.Balancer)
	if !ok {
		return nil, nil, nil, fmt.Errorf("exp: unknown balancer %q", p.Balancer)
	}
	ci, err := model.Replicate(inst.Platform, p.Machines, inst.Jobs)
	if err != nil {
		return nil, nil, nil, err
	}
	plan, err := fault.New(fault.Config{
		Nodes:   p.Machines,
		Horizon: planHorizon(inst),
		Rate:    p.Rate,
		Seed:    o.seed(run, pointIdx, faultSeedOffset),
	})
	return ci, lb, plan, err
}

// appendNew appends v unless s already holds it: the first-appearance
// axis order of the views.
func appendNew[T comparable](s []T, v T) []T {
	if slices.Contains(s, v) {
		return s
	}
	return append(s, v)
}

// renderMatrix renders a titled text matrix: a header of column labels, a
// rule, then one labelled row per entry, labels padded to lw and cells
// right-aligned to w.
func renderMatrix(title string, lw, w int, cols, rows []string, cell func(ri, ci int) string) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	fmt.Fprintf(&b, "%-*s |", lw, "")
	for _, c := range cols {
		fmt.Fprintf(&b, " %*s |", w, c)
	}
	b.WriteString("\n" + strings.Repeat("-", lw+1+len(cols)*(w+4)) + "\n")
	for ri, r := range rows {
		fmt.Fprintf(&b, "%-*s |", lw, r)
		for ci := range cols {
			fmt.Fprintf(&b, " %*s |", w, cell(ri, ci))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// RenderClusterTables is the single-vs-parallel view: a summary matrix
// (mean sum-stretch ratio-to-best per policy per machines/balancer
// combination — the Srivastav–Trystram comparison) followed by one
// paper-style table per combination.
func RenderClusterTables(results []ClusterResult, schedulers []string) string {
	var combos []ClusterPoint
	for _, r := range results {
		combos = appendNew(combos, ClusterPoint{Machines: r.Point.Machines, Balancer: r.Point.Balancer})
	}
	labels := make([]string, len(combos))
	for i, c := range combos {
		labels[i] = fmt.Sprintf("m=%d/%s", c.Machines, c.Balancer)
	}
	inCombo := func(c ClusterPoint) func(ClusterPoint) bool {
		return func(p ClusterPoint) bool { return p.Machines == c.Machines && p.Balancer == c.Balancer }
	}
	var b strings.Builder
	b.WriteString(renderMatrix("Single vs parallel machines: mean sum-stretch (ratio to best local policy)",
		14, 14, labels, schedulers, func(ri, ci int) string {
			row := Aggregate(results, inCombo(combos[ci]), schedulers[ri:ri+1])[0]
			if row.N == 0 {
				return "-"
			}
			return fmt.Sprintf("%.4f", row.SumMean)
		}))
	b.WriteString("\n")
	for _, c := range combos {
		title := fmt.Sprintf("Cluster: %d machine(s), balancer %s — ratio to best local policy", c.Machines, c.Balancer)
		b.WriteString(Render(title, Aggregate(results, inCombo(c), schedulers)))
		b.WriteString("\n")
	}
	return b.String()
}

// RenderFaultTables is the failure-rate view: per local policy and machine
// count, balancer × failure-rate matrices of mean max-stretch, mean
// stretch (sum-stretch / jobs) and mean retries over each point's runs —
// stretch degradation curves read along each row.
func RenderFaultTables(results []ClusterResult, schedulers []string) string {
	var machines []int
	var balancers []string
	var rates []float64
	for _, r := range results {
		machines = appendNew(machines, r.Point.Machines)
		balancers = appendNew(balancers, r.Point.Balancer)
		rates = appendNew(rates, r.Point.Rate)
	}
	rateLabels := make([]string, len(rates))
	for i, rt := range rates {
		rateLabels[i] = fmt.Sprintf("rate=%.2g", rt)
	}
	var b strings.Builder
	for _, name := range schedulers {
		views := []struct {
			title  string
			metric func(r *ClusterResult) (float64, bool)
		}{
			{"mean max-stretch", func(r *ClusterResult) (float64, bool) {
				v, ok := r.MaxStretch[name]
				return v, ok && !math.IsNaN(v)
			}},
			{"mean mean-stretch", func(r *ClusterResult) (float64, bool) {
				v, ok := r.SumStretch[name]
				return v / float64(r.Jobs), ok && !math.IsNaN(v)
			}},
			{"mean retries", func(r *ClusterResult) (float64, bool) {
				n, ok := r.Retries[name]
				return float64(n), ok
			}},
		}
		fmt.Fprintf(&b, "Faults: %s under seeded machine failures (rate = expected failures per node)\n\n", name)
		for _, m := range machines {
			for _, v := range views {
				b.WriteString(renderMatrix(fmt.Sprintf("%d machines: %s", m, v.title),
					10, 10, rateLabels, balancers, func(bi, ri int) string {
						var agg stats.Agg
						for i := range results {
							r := &results[i]
							if r.Point.Machines != m || r.Point.Balancer != balancers[bi] || r.Point.Rate != rates[ri] {
								continue
							}
							if x, ok := v.metric(r); ok {
								agg.Add(x)
							}
						}
						if agg.N() == 0 {
							return "-"
						}
						return fmt.Sprintf("%.4f", agg.Mean())
					}))
				b.WriteString("\n")
			}
		}
	}
	return b.String()
}

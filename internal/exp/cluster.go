package exp

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"runtime"
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
// are two views of the same results. The family rides the paper grid's
// sharded worker pool, streamed CSV merge and per-point digests — the task
// space just carries cluster axes instead of platform shape.

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

// clusterSizeRange is the databank size range (MB) of every cluster
// instance.
var clusterSizeRange = [2]float64{10, 200}

// Seed offsets of one instance's three random streams — workload, balancer
// and failure plan — so their draws never alias.
const (
	lbSeedOffset    = 500_009
	faultSeedOffset = 900_007
)

// ClusterOptions controls a cluster grid run.
type ClusterOptions struct {
	Runs int   // instances per configuration
	Seed int64 // base seed; instance, balancer and plan seeds derive from it
	// Schedulers are the local policies (default DefaultClusterSchedulers).
	// At a point with failures each must account as itself: a list policy.
	Schedulers []string
	// TargetJobs sizes each instance by expected job count per machine
	// (default 30): an M-machine point generates ~M·TargetJobs jobs at M
	// times the arrival rate, holding per-machine load at the point's
	// density.
	TargetJobs int
	// Workers bounds parallelism (0 = GOMAXPROCS); never affects results.
	Workers int
	// PointIndices remaps points to global grid indices for sharded runs
	// (see ShardPoints); nil means points[i] is global index i.
	PointIndices []int
	// DryRun generates every instance but runs no scheduler (NaN metrics),
	// predicting the exact row structure of a real run.
	DryRun bool
	// Progress, when non-nil, is called after every completed instance.
	Progress func(done, total int)
}

func (o ClusterOptions) withDefaults() ClusterOptions {
	if o.Runs <= 0 {
		o.Runs = 5
	}
	if o.TargetJobs <= 0 {
		o.TargetJobs = 30
	}
	if len(o.Schedulers) == 0 {
		o.Schedulers = DefaultClusterSchedulers()
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// seed derives one of an instance's seeds from its global coordinates.
func (o ClusterOptions) seed(run, pointIdx int, offset int64) int64 {
	return o.Seed + int64(pointIdx)*1_000_003 + int64(run)*7919 + offset
}

// config builds the workload for one cluster point and run: one
// single-processor site holding every databank — the identical-machines
// setting — with the arrival rate and job count scaled by M so per-machine
// load stays at the point's density.
func (o ClusterOptions) config(p ClusterPoint, run, pointIdx int) workload.Config {
	return workload.Config{
		Sites:        1,
		ProcsPerSite: 1,
		Databanks:    12,
		Availability: 1,
		Density:      p.Density * float64(p.Machines),
		TargetJobs:   o.TargetJobs * p.Machines,
		SizeRange:    clusterSizeRange,
		Seed:         o.seed(run, pointIdx, 0),
	}
}

func (o ClusterOptions) globalPointIndex(pi int) int {
	if o.PointIndices != nil {
		return o.PointIndices[pi]
	}
	return pi
}

// pointWeight estimates the relative cost of one instance at p for shard
// dispatch only: local list scheduling is ~jobs² in the worst case, the
// ideal balancer runs one full local simulation per node per arrival, and
// every retry is another placement and another local replan.
func (o ClusterOptions) pointWeight(p ClusterPoint) float64 {
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

// ClusterResult holds the raw metrics of every local policy on one cluster
// instance, keyed by scheduler. A failed scheduler is recorded with NaN
// stretches and lost work.
type ClusterResult struct {
	Point      ClusterPoint
	Run        int
	Jobs       int
	MaxStretch map[string]float64
	SumStretch map[string]float64
	Retries    map[string]int     // placements beyond each job's first
	LostWork   map[string]float64 // completed-so-far work discarded by failures
	Errs       []error
}

func newClusterResult(p ClusterPoint, run, jobs int) ClusterResult {
	return ClusterResult{
		Point:      p,
		Run:        run,
		Jobs:       jobs,
		MaxStretch: map[string]float64{},
		SumStretch: map[string]float64{},
		Retries:    map[string]int{},
		LostWork:   map[string]float64{},
	}
}

// record stores one local policy's metrics.
func (r *ClusterResult) record(name string, maxS, sumS float64, retries int, lost float64) {
	r.MaxStretch[name], r.SumStretch[name] = maxS, sumS
	r.Retries[name], r.LostWork[name] = retries, lost
}

// RunCluster evaluates the configured local policies over points × runs on
// the sharded worker pool and returns one ClusterResult per instance,
// indexed by pointIdx·Runs + run regardless of worker count.
func RunCluster(points []ClusterPoint, opts ClusterOptions) []ClusterResult {
	return runClusterSharded(points, opts.withDefaults(), nil)
}

func runClusterSharded(points []ClusterPoint, opts ClusterOptions,
	onShard func(si int, shard []ClusterResult)) []ClusterResult {
	total := len(points) * opts.Runs
	results := make([]ClusterResult, total)
	pw := make([]float64, len(points))
	for pi := range points {
		pw[pi] = opts.pointWeight(points[pi])
	}
	order := orderByWeight(shardWeights(total, func(ti int) float64 {
		return pw[ti/opts.Runs]
	}))
	var shardDone func(si, lo, hi int)
	if onShard != nil {
		shardDone = func(si, lo, hi int) { onShard(si, results[lo:hi]) }
	}
	runSharded(total, opts.Workers, core.NewClusterRunner, order,
		func(cr *core.ClusterRunner, ti int) {
			pi, run := ti/opts.Runs, ti%opts.Runs
			results[ti] = runClusterOne(cr, points[pi], run, opts.globalPointIndex(pi), opts)
		}, shardDone, opts.Progress)
	return results
}

// runClusterOne generates one instance and runs every local policy on it.
// An instance with jobs gets one entry per scheduler — NaN when the world
// could not be built, the scheduler failed, or this is a dry run — so a
// dry run predicts a live run's rows exactly.
func runClusterOne(cr *core.ClusterRunner, p ClusterPoint, run, pointIdx int, opts ClusterOptions) ClusterResult {
	res := newClusterResult(p, run, 0)
	inst, err := opts.config(p, run, pointIdx).Generate()
	if err != nil {
		res.Errs = append(res.Errs, err)
		return res
	}
	res.Jobs = inst.NumJobs()
	if res.Jobs == 0 {
		return res
	}
	ready := !opts.DryRun
	var ci *model.ClusterInstance
	var lb cluster.LB
	var plan *fault.Plan
	if ready {
		if ci, lb, plan, err = opts.world(inst, p, run, pointIdx); err != nil {
			res.Errs = append(res.Errs, fmt.Errorf("exp: cluster world for %v run %d: %w", p, run, err))
			ready = false
		}
	}
	nan := math.NaN()
	for _, name := range opts.Schedulers {
		if !ready {
			res.record(name, nan, nan, 0, nan)
			continue
		}
		cr.ResetStats()
		cs, err := runClusterScheduler(cr, name, ci, lb, opts.seed(run, pointIdx, lbSeedOffset), plan)
		if err != nil {
			res.Errs = append(res.Errs, fmt.Errorf("%s on %v run %d: %w", name, p, run, err))
			res.record(name, nan, nan, 0, nan)
			continue
		}
		fs := cr.Stats().Faults
		res.record(name, cs.MaxStretch(ci), cs.SumStretch(ci), fs.Replacements, fs.LostWork)
	}
	return res
}

// world builds one instance's cluster, balancer and failure plan.
func (o ClusterOptions) world(inst *model.Instance, p ClusterPoint, run, pointIdx int) (*model.ClusterInstance, cluster.LB, *fault.Plan, error) {
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

func runClusterScheduler(cr *core.ClusterRunner, name string, ci *model.ClusterInstance,
	lb cluster.LB, seed int64, plan *fault.Plan) (cs *model.ClusterSchedule, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("panic: %v", rec)
		}
	}()
	return cr.Run(name, ci, lb, seed, plan)
}

// clusterHeader is the column layout of the raw cluster metric dump.
var clusterHeader = []string{"machines", "balancer", "density", "rate",
	"run", "jobs", "scheduler", "max_stretch", "sum_stretch", "retries", "lost_work"}

// writeClusterRows encodes one cluster instance's per-scheduler rows.
func writeClusterRows(cw *csv.Writer, r *ClusterResult, schedulers []string) error {
	for _, name := range schedulers {
		maxS, ok := r.MaxStretch[name]
		if !ok {
			continue
		}
		row := []string{
			strconv.Itoa(r.Point.Machines),
			r.Point.Balancer,
			formatFloat(r.Point.Density),
			formatFloat(r.Point.Rate),
			strconv.Itoa(r.Run),
			strconv.Itoa(r.Jobs),
			name,
			formatFloat(maxS),
			formatFloat(r.SumStretch[name]),
			strconv.Itoa(r.Retries[name]),
			formatFloat(r.LostWork[name]),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	return nil
}

// encodeClusterShard encodes one completed shard's rows (header-less).
func encodeClusterShard(w io.Writer, shard []ClusterResult, schedulers []string) error {
	cw := csv.NewWriter(w)
	for i := range shard {
		if err := writeClusterRows(cw, &shard[i], schedulers); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteClusterCSV dumps raw per-instance cluster metrics (one row per
// scheduler per instance).
func WriteClusterCSV(w io.Writer, results []ClusterResult, schedulers []string) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(clusterHeader); err != nil {
		return err
	}
	for i := range results {
		if err := writeClusterRows(cw, &results[i], schedulers); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// RunClusterCSV runs the cluster grid and streams the raw metrics to w via
// the same in-order shard flush as RunGridCSV: output bytes are identical
// for any worker count.
func RunClusterCSV(w io.Writer, points []ClusterPoint, opts ClusterOptions) ([]ClusterResult, error) {
	opts = opts.withDefaults()
	stream, err := newCSVStream(w, clusterHeader)
	if err != nil {
		return nil, err
	}
	results := runClusterSharded(points, opts, func(si int, shard []ClusterResult) {
		if stream.failed() {
			return
		}
		var buf bytes.Buffer
		if err := encodeClusterShard(&buf, shard, opts.Schedulers); err != nil {
			stream.fail(fmt.Errorf("exp: encoding cluster shard %d: %w", si, err))
			return
		}
		stream.add(si, buf.Bytes())
	})
	return results, stream.err()
}

// ReadClusterCSV parses a raw cluster metric dump (or concatenated
// per-shard dumps) back into ClusterResults, grouping the per-scheduler
// rows of one instance by (point, run). A dump in any other column layout
// is rejected at the header.
func ReadClusterCSV(r io.Reader) ([]ClusterResult, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("exp: cluster CSV header: %w", err)
	}
	if !slices.Equal(header, clusterHeader) {
		return nil, fmt.Errorf("exp: cluster CSV header is %q, want %q",
			strings.Join(header, ","), strings.Join(clusterHeader, ","))
	}
	type instKey struct {
		point ClusterPoint
		run   int
	}
	var results []ClusterResult
	index := map[instKey]int{}
	for line := 2; ; line++ {
		row, err := cr.Read()
		if err == io.EOF {
			return results, nil
		}
		if err != nil {
			return nil, fmt.Errorf("exp: cluster CSV line %d: %w", line, err)
		}
		// The first unparsable column wins; later ones read as zero.
		var bad error
		num := func(col int) float64 {
			v, err := parseFloat(row[col])
			if err != nil && bad == nil {
				bad = fmt.Errorf("exp: cluster CSV line %d: bad %s: %w", line, clusterHeader[col], err)
			}
			return v
		}
		integer := func(col int) int {
			v, err := strconv.Atoi(row[col])
			if err != nil && bad == nil {
				bad = fmt.Errorf("exp: cluster CSV line %d: bad %s: %w", line, clusterHeader[col], err)
			}
			return v
		}
		key := instKey{ClusterPoint{integer(0), row[1], num(2), num(3)}, integer(4)}
		jobs := integer(5)
		maxS, sumS, retries, lost := num(7), num(8), integer(9), num(10)
		if bad != nil {
			return nil, bad
		}
		ri, ok := index[key]
		if !ok {
			ri = len(results)
			index[key] = ri
			results = append(results, newClusterResult(key.point, key.run, jobs))
		}
		results[ri].record(row[6], maxS, sumS, retries, lost)
	}
}

// ClusterPointDigests returns one "machines,balancer,density,rate fnv64a"
// line per cluster point present in results, sorted, each digesting the
// point's CSV rows exactly as WriteClusterCSV encodes them — the cluster
// family's merge-integrity check, mirroring PointDigests.
func ClusterPointDigests(results []ClusterResult, schedulers []string) ([]string, error) {
	return digestLines(len(results),
		func(i int) string {
			p := results[i].Point
			return fmt.Sprintf("%d,%s,%s,%s", p.Machines, p.Balancer, formatFloat(p.Density), formatFloat(p.Rate))
		},
		func(i int, cw *csv.Writer) error { return writeClusterRows(cw, &results[i], schedulers) })
}

// WriteClusterPointDigests writes ClusterPointDigests lines to w.
func WriteClusterPointDigests(w io.Writer, results []ClusterResult, schedulers []string) error {
	lines, err := ClusterPointDigests(results, schedulers)
	return writeDigestLines(w, lines, err)
}

// AggregateCluster normalises each instance's metrics by the best local
// policy on that instance and aggregates the ratios over instances whose
// point passes the filter (nil = all), in the given scheduler order — the
// cluster analogue of Aggregate, reusing the paper tables' Row shape.
func AggregateCluster(results []ClusterResult, filter func(ClusterPoint) bool, schedulers []string) []Row {
	maxAgg := map[string]*stats.Agg{}
	sumAgg := map[string]*stats.Agg{}
	for _, name := range schedulers {
		maxAgg[name] = &stats.Agg{}
		sumAgg[name] = &stats.Agg{}
	}
	for _, res := range results {
		if filter != nil && !filter(res.Point) {
			continue
		}
		if res.Jobs == 0 {
			continue
		}
		maxRatio := stats.RatiosToBest(res.MaxStretch)
		sumRatio := stats.RatiosToBest(res.SumStretch)
		for _, name := range schedulers {
			if r, ok := maxRatio[name]; ok && !math.IsNaN(r) {
				maxAgg[name].Add(r)
			}
			if r, ok := sumRatio[name]; ok && !math.IsNaN(r) {
				sumAgg[name].Add(r)
			}
		}
	}
	rows := make([]Row, 0, len(schedulers))
	for _, name := range schedulers {
		rows = append(rows, Row{
			Scheduler: name,
			N:         maxAgg[name].N(),
			MaxMean:   maxAgg[name].Mean(),
			MaxSD:     maxAgg[name].SD(),
			MaxMax:    maxAgg[name].Max(),
			SumMean:   sumAgg[name].Mean(),
			SumSD:     sumAgg[name].SD(),
			SumMax:    sumAgg[name].Max(),
		})
	}
	return rows
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
			row := AggregateCluster(results, inCombo(combos[ci]), schedulers[ri:ri+1])[0]
			if row.N == 0 {
				return "-"
			}
			return fmt.Sprintf("%.4f", row.SumMean)
		}))
	b.WriteString("\n")
	for _, c := range combos {
		title := fmt.Sprintf("Cluster: %d machine(s), balancer %s — ratio to best local policy", c.Machines, c.Balancer)
		b.WriteString(Render(title, AggregateCluster(results, inCombo(c), schedulers)))
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

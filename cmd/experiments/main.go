// Command experiments regenerates the paper's evaluation artefacts: the
// aggregate comparison tables (Tables 1–16) over the 162-configuration
// grid, and the Figure 3 density sweep comparing the optimised and
// non-optimised online heuristics.
//
// Usage examples:
//
//	experiments -table 1 -runs 5            # the headline comparison
//	experiments -tables all -runs 3         # all sixteen tables, one pass
//	experiments -figure 3 -runs 10          # both panels of Figure 3
//	experiments -table 1 -horizon 900       # paper-scale 15-minute windows
//	experiments -tables all -shard 2/6 -csv shard2.csv   # one matrix job
//	experiments -tables all -dryrun -csv expected.csv    # row-count oracle
//	experiments -tables all -fromcsv merged.csv          # tables, no grid
//	experiments ... -csv s.csv -digest s.digest          # per-point digests
//	experiments -tables all -times t.csv                 # measure per-point cost
//	experiments -tables all -fromtimes t.csv             # dispatch by measured cost
//	experiments -tables cluster -runs 5                  # single vs parallel machines
//	experiments -tables cluster -shard 0/3 -csv c0.csv   # one cluster matrix job
//	experiments -tables cluster -fromcsv merged.csv      # cluster tables, no run
//	experiments -tables faults -runs 5                   # stretch vs failure rate
//	experiments -tables faults -shard 0/2 -csv f0.csv    # one faults matrix job
//	experiments -tables faults -fromcsv merged.csv       # fault tables, no run
//
// The scheduled nightly workflow (.github/workflows/nightly.yml) runs the
// paper-scale pass — `-tables all -horizon 900 -runs 200` — as a matrix of
// `-shard k/n` jobs whose CSVs a final job concatenates, checks against a
// `-dryrun` row count and the shards' per-point row digests (recomputed
// from the merged file with `-fromcsv ... -digest`), and renders into
// tables via `-fromcsv`. The cluster experiment family shards, digests and
// merges the same way under two -tables names, each a grid, a scheduler
// list and a view over the one (machines, balancer, density, rate) point
// type: `-tables cluster` is the Srivastav–Trystram single-vs-parallel
// comparison over the load-balanced cluster world, and `-tables faults`
// charts max/mean retry-inflated stretch against seeded machine-failure
// rates per balancer.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"stretchsched/internal/core"
	"stretchsched/internal/exp"
)

func main() {
	var (
		table       = flag.Int("table", 0, "regenerate one table (1-16)")
		tables      = flag.String("tables", "", `"all" regenerates every table from one grid pass; "cluster" runs the single-vs-parallel cluster comparison; "faults" runs the stretch-vs-failure-rate sweep`)
		figure      = flag.String("figure", "", `"3", "3a" or "3b" regenerates the Figure 3 sweep`)
		runs        = flag.Int("runs", 3, "instances per configuration (paper: 200)")
		seed        = flag.Int64("seed", 1, "base random seed")
		target      = flag.Int("target", 30, "expected jobs per instance")
		horizon     = flag.Float64("horizon", 0, "fixed arrival window in seconds (0: use -target)")
		workers     = flag.Int("workers", 0, "parallel workers (0: GOMAXPROCS); results are identical for any value")
		csvOut      = flag.String("csv", "", "also dump raw per-instance metrics to this CSV file")
		progress    = flag.Bool("progress", false, "report grid progress on stderr")
		shard       = flag.String("shard", "", `run only shard "k/n" of the grid (k in 0..n-1); seeds match the unsharded run`)
		dryRun      = flag.Bool("dryrun", false, "generate instances but run no scheduler (metrics are NA); predicts CSV row counts")
		fromCSV     = flag.String("fromcsv", "", "aggregate tables from an existing results CSV instead of running the grid")
		digest      = flag.String("digest", "", "write per-point row digests (one FNV-64a line per grid point) to this file; with -fromcsv they are recomputed from the CSV, which is how the nightly merge detects corrupted shards")
		times       = flag.String("times", "", "measure per-instance scheduler wall time and write the per-point timing sidecar CSV here (never touches the results CSV)")
		fromTimes   = flag.String("fromtimes", "", "load a prior pass's timing sidecar and dispatch shards by measured cost instead of the static heuristic; never affects results")
		verifyExact = flag.Bool("verifyexact", false, "run the exact-verification lane: Offline-Exact vs Offline and the online heuristics on a deterministic 10/20-site grid subsample, exiting nonzero if the §5.3 anomaly reappears (honours -runs, -seed, -target, -workers, -progress)")
	)
	flag.Parse()

	fam, isCluster := clusterFamilies[*tables]
	switch {
	case *verifyExact:
		runVerifyExact(*runs, *seed, *target, *workers, *progress)
	case *figure != "":
		runFigure(*figure, *runs, *seed, *workers, *csvOut)
	case isCluster:
		runCluster(*tables, fam, *runs, *seed, *target, *workers, *csvOut, *progress, *shard, *dryRun, *digest, *fromCSV)
	case *fromCSV != "":
		fromCSVMain(*tables, *table, *fromCSV, *digest)
	case *tables == "all":
		runTables(allTableNumbers(), *runs, *seed, *target, *horizon, *workers, *csvOut, *progress, *shard, *dryRun, *digest, *times, *fromTimes)
	case *table >= 1 && *table <= 16:
		runTables([]int{*table}, *runs, *seed, *target, *horizon, *workers, *csvOut, *progress, *shard, *dryRun, *digest, *times, *fromTimes)
	default:
		fmt.Fprintln(os.Stderr, "experiments: need -table N, -tables all|cluster|faults, or -figure 3|3a|3b")
		flag.Usage()
		os.Exit(2)
	}
}

// runVerifyExact is the weekly CI lane's entry point: the exact optimum
// must never be beaten on the sampled paper-scale instances.
func runVerifyExact(runs int, seed int64, target, workers int, progress bool) {
	start := time.Now()
	opts := exp.VerifyExactOptions{
		Runs: runs, Seed: seed, TargetJobs: target, Workers: workers,
	}
	if progress {
		opts.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rverify-exact: %d/%d instances", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	rep := exp.VerifyExact(opts)
	fmt.Printf("verify-exact: %d points × %d runs in %v (%d scheduler errors)\n",
		len(rep.Points), runs, time.Since(start).Round(time.Second), rep.Errs)
	for _, res := range rep.Results {
		exact := res.MaxStretch["Offline-Exact"]
		offline := res.MaxStretch["Offline"]
		fmt.Printf("  %v run %d: jobs=%d exact=%.9g offline=%.9g\n",
			res.Point, res.Run, res.Jobs, exact, offline)
	}
	if rep.Errs > 0 {
		for _, res := range rep.Results {
			for _, err := range res.Errs {
				fmt.Fprintln(os.Stderr, "verify-exact:", err)
			}
		}
		os.Exit(1)
	}
	if len(rep.Violations) > 0 {
		fmt.Fprintf(os.Stderr, "verify-exact: §5.3 anomaly detected on %d instance(s):\n", len(rep.Violations))
		for _, v := range rep.Violations {
			fmt.Fprintln(os.Stderr, "  ", v)
		}
		os.Exit(1)
	}
	fmt.Println("verify-exact: §5.3 anomaly eliminated on every sampled instance")
}

func fromCSVMain(tables string, table int, fromCSV, digest string) {
	var nums []int
	switch {
	case tables == "all":
		nums = allTableNumbers()
	case table >= 1 && table <= 16:
		nums = []int{table}
	default:
		fmt.Fprintln(os.Stderr, "experiments: -fromcsv needs -table N or -tables all")
		os.Exit(2)
	}
	tablesFromCSV(nums, fromCSV, digest)
}

// parseShard reads a "k/n" shard spec; the empty spec is the whole grid.
func parseShard(spec string) (k, n int, err error) {
	if spec == "" {
		return 0, 1, nil
	}
	a, b, ok := strings.Cut(spec, "/")
	if ok {
		if k, err = strconv.Atoi(a); err == nil {
			n, err = strconv.Atoi(b)
		}
	}
	if !ok || err != nil || n <= 0 || k < 0 || k >= n {
		return 0, 0, fmt.Errorf("bad -shard %q: want k/n with 0 <= k < n", spec)
	}
	return k, n, nil
}

// tablesFromCSV aggregates and renders tables from an existing raw dump,
// optionally recomputing the per-point row digests of its rows.
func tablesFromCSV(nums []int, path, digest string) {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	results, err := exp.ReadResultsCSV(f)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("# %d instances read from %s\n\n", len(results), path)
	writeDigests(digest, func(w io.Writer) error {
		return exp.WritePointDigests(w, results, core.Table1Names())
	})
	renderTables(nums, results)
}

func renderTables(nums []int, results []exp.InstanceResult) {
	for _, n := range nums {
		spec, err := exp.TableByNumber(n)
		if err != nil {
			fatal(err)
		}
		rows := exp.Aggregate(results, spec.Filter, core.Table1Names())
		fmt.Println(exp.Render(fmt.Sprintf("Table %d: %s", spec.Number, spec.Title), rows))
	}
}

// fatal reports err and exits nonzero.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}

// writeFile creates path, fills it and notes what it holds, exiting on any
// error.
func writeFile(path, what string, fill func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := fill(f); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("# %s written to %s\n\n", what, path)
}

func writeCSV(path string, fill func(io.Writer) error) { writeFile(path, "raw metrics", fill) }

// writeDigests writes per-point row digests to path (no-op when empty).
func writeDigests(path string, write func(io.Writer) error) {
	if path != "" {
		writeFile(path, "per-point row digests", write)
	}
}

func allTableNumbers() []int {
	out := make([]int, 16)
	for i := range out {
		out[i] = i + 1
	}
	return out
}

func runTables(nums []int, runs int, seed int64, target int, horizon float64, workers int, csvOut string, progress bool, shard string, dryRun bool, digest, times, fromTimes string) {
	start := time.Now()
	opts := exp.Options{
		Runs:       runs,
		Seed:       seed,
		TargetJobs: target,
		Horizon:    horizon,
		Workers:    workers,
		DryRun:     dryRun,
	}
	if times != "" {
		// Inject the wall clock here, at the edge: the harness measures with
		// whatever clock it is handed and stays free of time.Now itself.
		base := time.Now()
		opts.Clock = func() int64 { return int64(time.Since(base)) }
	}
	if fromTimes != "" {
		f, err := os.Open(fromTimes)
		if err != nil {
			fatal(err)
		}
		opts.MeasuredSeconds, err = exp.ReadPointTimes(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("# shard dispatch ordered by %d measured point times from %s\n\n",
			len(opts.MeasuredSeconds), fromTimes)
	}
	points := exp.DefaultGrid()
	shardK, shardN, err := parseShard(shard)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	if shardN > 1 {
		points, opts.PointIndices = exp.ShardGrid(points, shardK, shardN)
	}
	if progress {
		opts.Progress = func(done, total int) {
			if done%25 == 0 || done == total {
				fmt.Fprintf(os.Stderr, "\rgrid: %d/%d instances", done, total)
				if done == total {
					fmt.Fprintln(os.Stderr)
				}
			}
		}
	}
	var results []exp.InstanceResult
	if csvOut != "" {
		// The workers encode each shard's rows as they finish; the merged
		// stream is byte-identical for any worker count.
		writeCSV(csvOut, func(w io.Writer) error {
			var err error
			results, err = exp.RunGridCSV(w, points, opts)
			return err
		})
	} else {
		results = exp.RunGrid(points, opts)
	}
	writeDigests(digest, func(w io.Writer) error {
		return exp.WritePointDigests(w, results, core.Table1Names())
	})
	if times != "" {
		writeCSV(times, func(w io.Writer) error {
			return exp.WritePointTimes(w, results)
		})
	}
	errCount, stretchErrs, refineErrs := 0, 0, 0
	for _, r := range results {
		errCount += len(r.Errs)
		stretchErrs += r.StretchErrs
		refineErrs += r.RefineErrs
	}
	fmt.Printf("# grid: %d instances in %v (%d scheduler errors, %d stretch-solve failures, %d refine fallbacks)\n\n",
		len(results), time.Since(start).Round(time.Second), errCount, stretchErrs, refineErrs)
	if shardN > 1 || dryRun {
		// Tables over a partial (or metric-less) grid would mislead; the
		// nightly merge job renders them from the merged CSV instead.
		fmt.Printf("# table rendering skipped (shard %d/%d, dryrun=%v); use -fromcsv on the merged CSV\n",
			shardK, shardN, dryRun)
		return
	}
	renderTables(nums, results)
}

// clusterFamily is one -tables view of the cluster experiment family: the
// grid it runs, its local schedulers and its renderer.
type clusterFamily struct {
	grid       func() []exp.ClusterPoint
	schedulers []string
	render     func([]exp.ClusterResult, []string) string
}

// clusterFamilies maps -tables names to cluster family views. "faults"
// runs SWRPT alone: under failures every local policy must account as
// itself, and SWRPT is the paper's best-practice list policy.
var clusterFamilies = map[string]clusterFamily{
	"cluster": {exp.DefaultClusterGrid, exp.DefaultClusterSchedulers(), exp.RenderClusterTables},
	"faults":  {exp.DefaultFaultGrid, []string{"SWRPT"}, exp.RenderFaultTables},
}

// runCluster runs the cluster family view registered as name. It mirrors
// runTables' sharding, CSV streaming and digest contract, keyed on
// (machines, balancer, density, rate) points.
func runCluster(name string, fam clusterFamily, runs int, seed int64, target, workers int, csvOut string, progress bool, shard string, dryRun bool, digest, fromCSV string) {
	var results []exp.ClusterResult
	digests := func(w io.Writer) error {
		return exp.WriteClusterPointDigests(w, results, fam.schedulers)
	}
	if fromCSV != "" {
		f, err := os.Open(fromCSV)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if results, err = exp.ReadClusterCSV(f); err != nil {
			fatal(err)
		}
		fmt.Printf("# %d %s instances read from %s\n\n", len(results), name, fromCSV)
		writeDigests(digest, digests)
		fmt.Println(fam.render(results, fam.schedulers))
		return
	}

	start := time.Now()
	opts := exp.ClusterOptions{
		Runs:       runs,
		Seed:       seed,
		Schedulers: fam.schedulers,
		TargetJobs: target,
		Workers:    workers,
		DryRun:     dryRun,
	}
	points := fam.grid()
	shardK, shardN, err := parseShard(shard)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	if shardN > 1 {
		points, opts.PointIndices = exp.ShardPoints(points, shardK, shardN)
	}
	if progress {
		opts.Progress = func(done, total int) {
			if done%25 == 0 || done == total {
				fmt.Fprintf(os.Stderr, "\r%s: %d/%d instances", name, done, total)
				if done == total {
					fmt.Fprintln(os.Stderr)
				}
			}
		}
	}
	if csvOut != "" {
		writeCSV(csvOut, func(w io.Writer) error {
			var err error
			results, err = exp.RunClusterCSV(w, points, opts)
			return err
		})
	} else {
		results = exp.RunCluster(points, opts)
	}
	writeDigests(digest, digests)
	errCount, retries := 0, 0
	for _, r := range results {
		errCount += len(r.Errs)
		for _, s := range fam.schedulers {
			retries += r.Retries[s]
		}
	}
	fmt.Printf("# %s: %d instances in %v (%d scheduler errors, %d retries)\n\n",
		name, len(results), time.Since(start).Round(time.Second), errCount, retries)
	if shardN > 1 || dryRun {
		fmt.Printf("# table rendering skipped (shard %d/%d, dryrun=%v); use -fromcsv on the merged CSV\n",
			shardK, shardN, dryRun)
		return
	}
	fmt.Println(fam.render(results, fam.schedulers))
}

func runFigure(which string, runs int, seed int64, workers int, csvOut string) {
	if which != "3" && which != "3a" && which != "3b" {
		fmt.Fprintf(os.Stderr, "experiments: unknown figure %q\n", which)
		os.Exit(2)
	}
	start := time.Now()
	points := exp.RunFigure3(exp.Fig3Options{Runs: runs, Seed: seed, Workers: workers})
	fmt.Printf("# figure 3 sweep in %v\n\n", time.Since(start).Round(time.Second))
	if csvOut != "" {
		writeCSV(csvOut, func(w io.Writer) error {
			return exp.WriteFigure3CSV(w, points)
		})
	}
	switch which {
	case "3":
		fmt.Println(exp.RenderFigure3(points))
	case "3a":
		fmt.Println("Figure 3(a) — max-stretch degradation from optimal (%)")
		fmt.Printf("%10s %14s %14s\n", "density", "optimised", "non-optimised")
		for _, p := range points {
			fmt.Printf("%10s %14.3f %14.3f\n",
				strconv.FormatFloat(p.Density, 'g', -1, 64),
				p.OptDegradation, p.NonOptDegradation)
		}
	case "3b":
		fmt.Println("Figure 3(b) — sum-stretch gain of the optimised variant (%)")
		fmt.Printf("%10s %14s\n", "density", "gain")
		for _, p := range points {
			fmt.Printf("%10s %14.2f\n",
				strconv.FormatFloat(p.Density, 'g', -1, 64), p.SumGain)
		}
	}
}

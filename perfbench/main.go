// Command perfbench is the repository's benchmark. It generates one of four
// workloads from a seed, drives the serving loop (serve.Loop) or the
// cluster world (cluster.World) in-process from one client goroutine,
// checks every output, and prints the run record, the metrics and, as its
// last line, one JSON object:
//
//	perfbench --workload serve-swrpt --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it reports end-to-end metrics. With --trace 1 it
// alternates untraced passes with passes whose calls into the program are
// wrapped in probes, checks that both produce the same decisions, and
// reports per-layer metrics, the tracing overhead, and a span file. See
// README.md for why each workload exists and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, from untraced runs.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"jobs_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"stretch_max", "ratio"},
	{"stretch_mean", "ratio"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics. Times are milliseconds per pass,
// medians over the traced passes; counts are per pass. A layer a workload
// does not exercise reads 0.
var perLayer = []metricDef{
	{"serve.submit_ms", "ms"},
	{"serve.drain_ms", "ms"},
	{"serve.self_ms", "ms"},
	{"serve.declog_write_ms", "ms"},
	{"serve.declog_records", "count"},
	{"serve.declog_bytes", "bytes"},
	{"serve.rejected", "count"},
	{"serve.read_ms", "ms"},
	{"serve.checkpoint_ms", "ms"},
	{"serve.checkpoint_bytes", "bytes"},
	{"sim.replan_ms", "ms"},
	{"sim.active_mean", "count"},
	{"sim.active_max", "count"},
	{"policy.on_event_ms", "ms"},
	{"policy.on_event_calls", "count"},
	{"policy.less_calls", "count"},
	{"policy.less_per_event", "count"},
	{"online.stretch_errs", "count"},
	{"online.refine_errs", "count"},
	{"lp.cold_solves", "count"},
	{"lp.warm_solves", "count"},
	{"lp.fallbacks", "count"},
	{"lp.warm_ratio", "ratio"},
	{"lp.iters_per_solve", "count"},
	{"lp.dual_steps", "count"},
	{"lp.max_eta_len", "count"},
	{"rat.ops_small", "count"},
	{"rat.ops_medium", "count"},
	{"rat.ops_big", "count"},
	{"rat.promotions", "count"},
	{"rat.demotions", "count"},
	{"cluster.run_ms", "ms"},
	{"cluster.self_ms", "ms"},
	{"cluster.worlds", "count"},
	{"cluster.world_errors", "count"},
	{"cluster.place_ms.ideal", "ms"},
	{"cluster.place_ms.random", "ms"},
	{"cluster.place_ms.kchoices", "ms"},
	{"cluster.place_ms.stretch", "ms"},
	{"cluster.place_calls", "count"},
	{"cluster.local_run_ms", "ms"},
	{"cluster.local_run_calls", "count"},
	{"cluster.less_calls", "count"},
	{"fault.machine_failures", "count"},
	{"fault.job_failures", "count"},
	{"fault.replacements", "count"},
	{"fault.lost_work", "MB"},
	{"fault.useful_work_ratio", "ratio"},
	{"trace.untraced_jobs_per_s", "1/s"},
	{"trace.traced_jobs_per_s", "1/s"},
	{"trace.overhead_jobs_per_s", "1/s"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
}

// workloads builds each workload; dir receives its files.
var workloads = map[string]func(dir string) bench{
	"serve-swrpt": func(dir string) bench {
		return &serveBench{name: "serve-swrpt", policy: "SWRPT", operator: true, gen: sustainedInputs, dir: dir}
	},
	"serve-egdf": func(dir string) bench {
		return &serveBench{name: "serve-egdf", policy: "Online-EGDF", gen: burstInputs(grippsShape, floatBursts), dir: dir}
	},
	"serve-egdf-exact": func(dir string) bench {
		return &serveBench{name: "serve-egdf-exact", policy: "Online-EGDF", exact: true,
			gen: burstInputs(paperShape, exactBursts), dir: dir}
	},
	"cluster-faults": func(string) bench { return &clusterBench{} },
}

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: serve-swrpt, serve-egdf, serve-egdf-exact or cluster-faults")
	seed := fs.Int64("seed", 1, "seed every input derives from")
	seconds := fs.Float64("seconds", 10, "how long the passes of one run measure")
	trace := fs.Int("trace", 0, "1 = report per-layer metrics from a traced run")
	dir := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for decision logs, checkpoints and span files")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload one of %s, --seconds > 0, --trace 0 or 1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	traced := *trace == 1
	budget := time.Duration(*seconds * float64(time.Second))
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%g trace=%d\n", *name, *seed, *seconds, *trace)
	fmt.Printf("host: cpu=%q nproc=%d gomaxprocs=%d go=%s\n", cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	rs, err := measure(mk(*dir), *seed, budget, traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	var metrics map[string]float64
	var problems []string
	if traced {
		metrics, problems = tracedMetrics(rs)
		path := filepath.Join(*dir, fmt.Sprintf("spans-%s-seed%d.jsonl", *name, *seed))
		if err := writeSpanFile(path, rs.spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Printf("spans: %d spans of the last traced pass in %s\n", len(rs.spans), path)
	} else {
		metrics, problems = endToEndMetrics(rs)
	}
	return report(rs, metrics, problems, traced)
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// agree checks that every pass took the same decisions: identical output
// digests and stretch values, traced or not.
func agree(rs *runStats) []string {
	var problems []string
	first := rs.passes[0]
	for i, p := range rs.passes[1:] {
		if p.digest != first.digest || p.stretch != first.stretch {
			problems = append(problems, fmt.Sprintf(
				"pass %d (traced=%v) decided differently from pass 0: digest %016x vs %016x, stretch %v vs %v",
				i+1, p.traced, p.digest, first.digest, p.stretch, first.stretch))
		}
	}
	return problems
}

func endToEndMetrics(rs *runStats) (map[string]float64, []string) {
	var rates, lat []float64
	for _, p := range rs.passes {
		rates = append(rates, p.jobsPerSec())
		lat = append(lat, p.latMs...)
	}
	first := rs.passes[0]
	fmt.Printf("passes: %d, latency samples: %d (%d beyond p99), setups: %d\n",
		len(rs.passes), len(lat), len(lat)/100, len(rs.setupS))
	return map[string]float64{
		"setup_s":        median(rs.setupS),
		"jobs_per_s":     median(rates),
		"latency_p50_ms": quantile(lat, 0.50),
		"latency_p99_ms": quantile(lat, 0.99),
		"stretch_max":    first.stretch[0],
		"stretch_mean":   first.stretch[1],
		"peak_rss_mb":    peakRSSMB(),
	}, agree(rs)
}

func tracedMetrics(rs *runStats) (map[string]float64, []string) {
	var plain, probed []float64
	layers := map[string][]float64{}
	samples := 0
	for _, p := range rs.passes {
		if !p.traced {
			plain = append(plain, p.jobsPerSec())
			samples += len(p.latMs)
			continue
		}
		probed = append(probed, p.jobsPerSec())
		for k, v := range p.layers {
			layers[k] = append(layers[k], v)
		}
	}
	m := map[string]float64{}
	for k, vs := range layers {
		m[k] = median(vs)
	}
	u, t := median(plain), median(probed)
	m["trace.untraced_jobs_per_s"] = u
	m["trace.traced_jobs_per_s"] = t
	m["trace.overhead_jobs_per_s"] = u - t
	m["trace.overhead_pct"] = 100 * (u - t) / u
	m["trace.spans"] = float64(len(rs.spans))
	fmt.Printf("passes: %d untraced, %d traced; untraced latency samples: %d; tracing overhead %.4g jobs/s (%.3g%%)\n",
		len(plain), len(probed), samples, u-t, 100*(u-t)/u)
	return m, agree(rs)
}

// result is the last line of the output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints every metric and the result line; problems are the passes'
// disagreements. A failed check fails the run: the result says
// correct=false and the exit status is 1.
func report(rs *runStats, metrics map[string]float64, problems []string, traced bool) int {
	res := result{Metrics: map[string]metricValue{}}
	// The agreement of the passes is one more check.
	res.Attempted++
	if len(problems) > 0 {
		res.Failed++
	}
	for _, p := range rs.passes {
		res.Attempted += p.attempted
		res.Failed += p.failed
		problems = append(problems, p.problems...)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		v := metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.Failed++
			problems = append(problems, fmt.Sprintf("%s is %v", d.name, v))
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Printf("  %-28s %14.6g %s\n", d.name, v, d.unit)
	}
	res.Correct = res.Failed == 0
	for _, p := range problems {
		fmt.Println("check failed:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// cpuModel reads the processor's model name for the run record.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

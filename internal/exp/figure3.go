package exp

import (
	"fmt"
	"math"
	"runtime"
	"strings"

	"stretchsched/internal/core"
	"stretchsched/internal/model"
	"stretchsched/internal/offline"
	"stretchsched/internal/stats"
	"stretchsched/internal/workload"
)

// Fig3Options controls the Figure 3 experiment: the optimised online
// heuristic (steps 1–4) against the non-optimised baseline (stops after
// step 2), across workload densities and average job lengths (§5.2).
type Fig3Options struct {
	Densities  []float64 // default: the paper's 0.0125–4.0 sweep
	JobLengths []float64 // average job lengths in seconds (default 3–60)
	Runs       int       // instances per (density, length) cell (paper: 5000)
	TargetJobs int       // expected jobs per instance (default 25)
	Seed       int64
	Workers    int
}

func (o Fig3Options) withDefaults() Fig3Options {
	if len(o.Densities) == 0 {
		o.Densities = []float64{0.0125, 0.025, 0.05, 0.1, 0.2, 0.4, 0.75, 1.0,
			1.5, 2.0, 2.5, 3.0, 3.5, 4.0}
	}
	if len(o.JobLengths) == 0 {
		o.JobLengths = []float64{3, 7.5, 15, 30, 60}
	}
	if o.Runs <= 0 {
		o.Runs = 5
	}
	if o.TargetJobs <= 0 {
		o.TargetJobs = 25
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// Fig3Point is one plotted point: a workload density with the max-stretch
// degradation of both online variants (Figure 3a) and the sum-stretch gain
// of the optimised variant over the non-optimised one (Figure 3b),
// averaged over job lengths and runs. Percentages, as in the paper. Of
// the density's runs × job lengths samples, N entered the means, Failed
// returned an error and Empty generated no job.
type Fig3Point struct {
	Density           float64
	OptDegradation    float64 // mean 100·(maxStretch/optimal − 1), optimised
	NonOptDegradation float64 // same for the non-optimised variant
	SumGain           float64 // mean 100·(sumNonOpt/sumOpt − 1)
	N                 int
	Failed, Empty     int
}

// RunFigure3 regenerates the data series of Figures 3(a) and 3(b). It
// returns one error per failed sample, in sample order; a failed sample
// stays out of the means.
func RunFigure3(opts Fig3Options) ([]Fig3Point, []error) {
	opts = opts.withDefaults()
	type cell struct{ di, li, run int }
	var cells []cell
	for di := range opts.Densities {
		for li := range opts.JobLengths {
			for run := 0; run < opts.Runs; run++ {
				cells = append(cells, cell{di, li, run})
			}
		}
	}
	type sample struct {
		di                   int
		optDeg, nonDeg, gain float64
		empty                bool
		err                  error
	}
	samples := make([]sample, len(cells))
	// Every cell weighs the same, so dispatch is in cell order.
	runSharded(len(cells), opts.Workers, core.NewRunner, orderByWeight(make([]float64, numShards(len(cells)))),
		func(runner *core.Runner, ci int) {
			c := cells[ci]
			s := sample{di: c.di}
			s.optDeg, s.nonDeg, s.gain, s.empty, s.err = fig3One(runner, opts, c.di, c.li, c.run)
			samples[ci] = s
		}, nil, nil)

	points := make([]Fig3Point, len(opts.Densities))
	aggs := make([][3]*stats.Agg, len(opts.Densities))
	for di := range aggs {
		aggs[di] = [3]*stats.Agg{{}, {}, {}}
	}
	var errs []error
	for _, s := range samples {
		switch {
		case s.err != nil:
			points[s.di].Failed++
			errs = append(errs, s.err)
			continue
		case s.empty:
			points[s.di].Empty++
			continue
		}
		aggs[s.di][0].Add(s.optDeg)
		aggs[s.di][1].Add(s.nonDeg)
		aggs[s.di][2].Add(s.gain)
	}
	for di, d := range opts.Densities {
		p := &points[di]
		p.Density = d
		p.OptDegradation = aggs[di][0].Mean()
		p.NonOptDegradation = aggs[di][1].Mean()
		p.SumGain = aggs[di][2].Mean()
		p.N = aggs[di][0].N()
	}
	return points, errs
}

// fig3One runs one (density, job length, run) sample. An instance with no
// job is empty, not failed.
func fig3One(runner *core.Runner, opts Fig3Options, di, li, run int) (optDeg, nonDeg, gain float64, empty bool, err error) {
	length := opts.JobLengths[li]
	cfg := workload.Config{
		Sites:        3,
		Databanks:    3,
		Availability: 0.6,
		Density:      opts.Densities[di],
		TargetJobs:   opts.TargetJobs,
		// Databank sizes bracket the target average job length: a site has
		// ~20 MB/s, so sizes of 10·L to 30·L MB average L seconds per site.
		SizeRange: [2]float64{10 * length, 30 * length},
		Seed:      opts.Seed + int64(di)*97_001 + int64(li)*13_007 + int64(run)*59,
	}
	fail := func(what string, err error) (float64, float64, float64, bool, error) {
		return 0, 0, 0, false, fmt.Errorf("figure 3 density %g length %g run %d: %s: %w",
			opts.Densities[di], length, run, what, err)
	}
	inst, err := cfg.Generate()
	if err != nil {
		return fail("workload", err)
	}
	if inst.NumJobs() == 0 {
		return 0, 0, 0, true, nil
	}
	optimal, err := offline.Optimal(inst)
	if err == nil && optimal <= 0 {
		err = fmt.Errorf("optimal max-stretch %g", optimal)
	}
	if err != nil {
		return fail("Offline", err)
	}
	// The runner reuses one schedule buffer across runs, so each variant's
	// metrics must be read off before the next run overwrites the trace.
	optSched, err := safely(func() (*model.Schedule, error) { return runner.Run(core.MustGet("Online"), inst) })
	if err != nil {
		return fail("Online", err)
	}
	optMax, optSum := optSched.MaxStretch(inst), optSched.SumStretch(inst)
	nonSched, err := safely(func() (*model.Schedule, error) { return runner.Run(core.MustGet("Online-NonOpt"), inst) })
	if err != nil {
		return fail("Online-NonOpt", err)
	}
	optDeg = 100 * (optMax/optimal - 1)
	nonDeg = 100 * (nonSched.MaxStretch(inst)/optimal - 1)
	if optSum > 0 {
		gain = 100 * (nonSched.SumStretch(inst)/optSum - 1)
	}
	// Float dust can make degradations microscopically negative (the
	// realised schedule beating the bisected optimum); clamp at zero as the
	// paper's anomaly discussion suggests.
	return math.Max(optDeg, 0), math.Max(nonDeg, 0), gain, false, nil
}

// RenderFigure3 formats the series as an aligned text table (one row per
// density), mirroring the two panels of the paper's Figure 3.
func RenderFigure3(points []Fig3Point) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 3 — optimised vs non-optimised online heuristic")
	fmt.Fprintf(&b, "%10s | %22s %22s | %18s | %s\n",
		"density", "(a) degradation opt %", "degradation non-opt %", "(b) sum gain %", "N")
	fmt.Fprintln(&b, strings.Repeat("-", 88))
	for _, p := range points {
		fmt.Fprintf(&b, "%10.4f | %22.3f %22.3f | %18.2f | %d\n",
			p.Density, p.OptDegradation, p.NonOptDegradation, p.SumGain, p.N)
	}
	return b.String()
}

package exp

// verify.go is the exact-verification lane: Offline-Exact against the float
// offline solver and the online heuristics on a deterministic subsample of
// the paper grid, asserting that the §5.3 anomaly — the "offline optimal"
// being beaten by an online heuristic, which for a true optimum is
// impossible and in the paper was a float64 milestone-ordering artefact —
// stays eliminated at paper scale (10- and 20-site platforms). The weekly
// CI lane (nightly.yml, exact-verify job) runs it through cmd/experiments
// -verifyexact; it became affordable when the sparse revised simplex and
// the fixed-width medium rational tier brought 20-site exact solves from
// unmeasurable to seconds.

import (
	"fmt"
	"math"
	"sort"
)

// VerifyExactOptions configures an exact-verification pass.
type VerifyExactOptions struct {
	// Sites selects the platform sizes whose grid points are sampled
	// (default 10 and 20 — the scales where exact verification is news).
	Sites []int
	// PerSite is the number of grid points sampled per platform size
	// (default 3). Points are taken evenly across the filtered grid, so
	// the subsample is deterministic and spans the density/availability
	// range.
	PerSite int
	// Runs is the number of instances per sampled point (default 2).
	Runs int
	// Seed, TargetJobs and Workers behave exactly as in Options. Instance
	// seeds derive from the points' global grid indices, so the lane
	// verifies the same instances the nightly grid simulates.
	Seed       int64
	TargetJobs int
	Workers    int
	// Tol is the relative slack allowed before a comparison counts as a
	// violation (default 1e-6): Offline-Exact's realised max-stretch must
	// not exceed (1+Tol)·competitor for any competitor. The slack absorbs
	// float dust in the simulator's realised metrics and the float
	// bisection's oracle tolerance (observed ~1e-9 relative); the anomaly
	// proper mis-orders milestones and shows up orders of magnitude above
	// it.
	Tol float64
	// Progress, when non-nil, is forwarded to the grid runner.
	Progress func(done, total int)
}

func (o VerifyExactOptions) withDefaults() VerifyExactOptions {
	if len(o.Sites) == 0 {
		o.Sites = []int{10, 20}
	}
	if o.PerSite <= 0 {
		o.PerSite = 3
	}
	if o.Runs <= 0 {
		o.Runs = 2
	}
	if o.TargetJobs <= 0 {
		o.TargetJobs = 20
	}
	if o.Tol <= 0 {
		o.Tol = 1e-6
	}
	return o
}

// verifyExactCompetitors are the schedulers Offline-Exact must not lose to:
// the float offline solver (same algorithm, bisection refinement) and the
// online heuristics the paper reports winning against it in §5.3.
var verifyExactCompetitors = []string{"Offline", "Online", "Online-EDF", "SWRPT"}

// ExactViolation records one instance on which Offline-Exact was beaten —
// the anomaly the exact backend exists to rule out.
type ExactViolation struct {
	Point      GridPoint
	Run        int
	Scheduler  string  // the competitor that beat Offline-Exact
	Exact      float64 // Offline-Exact realised max-stretch
	Competitor float64 // competitor realised max-stretch
}

func (v ExactViolation) String() string {
	return fmt.Sprintf("%v run %d: Offline-Exact %.12g beaten by %s %.12g",
		v.Point, v.Run, v.Exact, v.Scheduler, v.Competitor)
}

// VerifyExactReport is the outcome of one verification pass.
type VerifyExactReport struct {
	Points     []GridPoint
	Results    []InstanceResult
	Violations []ExactViolation
	Errs       int // scheduler run errors (NaN rows), reported separately
}

// verifyExactSample returns the deterministic subsample: for each requested
// platform size, PerSite points spread evenly over the filtered grid, with
// their global indices for seed parity with the full grid.
func verifyExactSample(opts VerifyExactOptions) ([]GridPoint, []int) {
	grid := DefaultGrid()
	var points []GridPoint
	var indices []int
	for _, sites := range opts.Sites {
		var idx []int
		for i, p := range grid {
			if p.Sites == sites {
				idx = append(idx, i)
			}
		}
		if len(idx) == 0 {
			continue
		}
		n := opts.PerSite
		if n > len(idx) {
			n = len(idx)
		}
		step := len(idx) / n
		for k := 0; k < n; k++ {
			points = append(points, grid[idx[k*step]])
			indices = append(indices, idx[k*step])
		}
	}
	return points, indices
}

// VerifyExact runs the exact-verification pass and returns its report. A
// non-empty Violations slice means the §5.3 anomaly has reappeared.
func VerifyExact(opts VerifyExactOptions) VerifyExactReport {
	opts = opts.withDefaults()
	points, indices := verifyExactSample(opts)
	schedulers := append([]string{"Offline-Exact"}, verifyExactCompetitors...)
	results := Grid.Run(points, Options{
		Runs: opts.Runs, Seed: opts.Seed, TargetJobs: opts.TargetJobs,
		Workers: opts.Workers, Schedulers: schedulers,
		PointIndices: indices, Progress: opts.Progress,
	})
	rep := VerifyExactReport{Points: points, Results: results}
	for _, res := range results {
		rep.Errs += len(res.Errs)
	}
	rep.Violations = exactViolations(results, opts.Tol)
	return rep
}

// exactViolations scans grid results for instances where Offline-Exact's
// realised max-stretch exceeds a competitor's beyond tolerance — for a true
// optimum, impossible; so each hit is the §5.3 anomaly resurfacing.
func exactViolations(results []InstanceResult, tol float64) []ExactViolation {
	var out []ExactViolation
	for _, res := range results {
		exact, ok := res.MaxStretch["Offline-Exact"]
		if !ok || math.IsNaN(exact) {
			continue
		}
		for _, name := range verifyExactCompetitors {
			comp, ok := res.MaxStretch[name]
			if !ok || math.IsNaN(comp) {
				continue
			}
			if exact > comp*(1+tol) {
				out = append(out, ExactViolation{
					Point: res.Point, Run: res.Run, Scheduler: name,
					Exact: exact, Competitor: comp,
				})
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].Exact-out[i].Competitor > out[j].Exact-out[j].Competitor
	})
	return out
}

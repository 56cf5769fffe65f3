package exp

import (
	"math"
	"strings"
	"testing"
)

func TestDefaultGridHas162Points(t *testing.T) {
	grid := DefaultGrid()
	if len(grid) != 162 {
		t.Fatalf("grid size = %d, want 162", len(grid))
	}
	seen := map[GridPoint]bool{}
	for _, p := range grid {
		if seen[p] {
			t.Fatalf("duplicate point %v", p)
		}
		seen[p] = true
	}
}

func TestTablesCoverSixteen(t *testing.T) {
	specs := Tables()
	if len(specs) != 16 {
		t.Fatalf("table count = %d", len(specs))
	}
	for i, s := range specs {
		if s.Number != i+1 {
			t.Fatalf("table %d numbered %d", i+1, s.Number)
		}
	}
	if _, err := TableByNumber(5); err != nil {
		t.Fatal(err)
	}
	if _, err := TableByNumber(17); err == nil {
		t.Fatal("table 17 accepted")
	}
	// Filters must partition the grid: sites tables (2–4) cover all points.
	grid := DefaultGrid()
	for _, p := range grid {
		cnt := 0
		for _, n := range []int{2, 3, 4} {
			s, _ := TableByNumber(n)
			if s.Filter(p) {
				cnt++
			}
		}
		if cnt != 1 {
			t.Fatalf("point %v matched %d site tables", p, cnt)
		}
	}
}

// TestMiniGridEndToEnd runs a 2-point grid with the cheap heuristics plus
// the full online stack and checks the Table-1 invariants: every ratio ≥ 1,
// the best heuristic's mean is exactly 1-ish, rendering works.
func TestMiniGridEndToEnd(t *testing.T) {
	points := []GridPoint{
		{Sites: 3, Databanks: 3, Availability: 0.6, Density: 1.0},
		{Sites: 3, Databanks: 3, Availability: 0.9, Density: 2.0},
	}
	opts := Options{
		Runs:       2,
		Seed:       1,
		TargetJobs: 12,
		Schedulers: []string{"Offline", "Online", "SWRPT", "SRPT", "MCT"},
	}
	results := Grid.Run(points, opts)
	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		for _, err := range r.Errs {
			t.Fatalf("%v run %d: %v", r.Point, r.Run, err)
		}
	}
	rows := Aggregate(results, nil, opts.Schedulers)
	for _, row := range rows {
		if row.N == 0 {
			t.Fatalf("%s has no samples", row.Scheduler)
		}
		if row.MaxMean < 1-1e-9 || row.SumMean < 1-1e-9 {
			t.Fatalf("%s: ratio-to-best below 1: %+v", row.Scheduler, row)
		}
		if row.MaxMax < row.MaxMean || row.SumMax < row.SumMean {
			t.Fatalf("%s: max below mean", row.Scheduler)
		}
	}
	out := Render("Table X", rows)
	if !strings.Contains(out, "SWRPT") || !strings.Contains(out, "Max-stretch") {
		t.Fatalf("render output malformed:\n%s", out)
	}
}

func TestBender98SiteLimitSkips(t *testing.T) {
	points := []GridPoint{{Sites: 10, Databanks: 3, Availability: 0.6, Density: 0.75}}
	opts := Options{
		Runs:       1,
		Seed:       3,
		TargetJobs: 8,
		Schedulers: []string{"Bender98", "SWRPT"},
	}
	results := Grid.Run(points, opts)
	if len(results) != 1 {
		t.Fatal("missing result")
	}
	if !math.IsNaN(results[0].MaxStretch["Bender98"]) {
		t.Fatal("Bender98 should be skipped on 10-site platforms")
	}
	if math.IsNaN(results[0].MaxStretch["SWRPT"]) {
		t.Fatal("SWRPT missing")
	}
	rows := Aggregate(results, nil, opts.Schedulers)
	if rows[0].N != 0 {
		t.Fatalf("Bender98 N = %d, want 0", rows[0].N)
	}
}

func TestFigure3SmallSweep(t *testing.T) {
	points, errs := RunFigure3(Fig3Options{
		Densities:  []float64{0.25, 2.0},
		JobLengths: []float64{10},
		Runs:       2,
		TargetJobs: 10,
		Seed:       5,
	})
	if len(points) != 2 || len(errs) != 0 {
		t.Fatalf("points = %d, errors %v", len(points), errs)
	}
	for _, p := range points {
		if p.N == 0 {
			t.Fatalf("density %v has no samples", p.Density)
		}
		if p.OptDegradation < -1e-3 {
			t.Fatalf("density %v: negative degradation %v", p.Density, p.OptDegradation)
		}
	}
	out := RenderFigure3(points)
	if !strings.Contains(out, "density") {
		t.Fatalf("render malformed:\n%s", out)
	}
}

// TestFigure3AccountsEverySample: every sample of a density is counted
// exactly once — in the means (N), as failed, or as empty — and each
// failed sample comes with its error. The two lowest densities of the
// default sweep are where the online executor leaves jobs unfinished.
func TestFigure3AccountsEverySample(t *testing.T) {
	opts := Fig3Options{Densities: []float64{0.0125, 0.025}, Runs: 1, Seed: 1}
	points, errs := RunFigure3(opts)
	failed := 0
	for _, p := range points {
		if got, want := p.N+p.Failed+p.Empty, opts.Runs*len(Fig3Options{}.withDefaults().JobLengths); got != want {
			t.Errorf("density %g: N %d + failed %d + empty %d = %d, want %d",
				p.Density, p.N, p.Failed, p.Empty, got, want)
		}
		failed += p.Failed
	}
	if len(errs) != failed {
		t.Fatalf("%d errors for %d failed samples: %v", len(errs), failed, errs)
	}
	for _, err := range errs {
		t.Log(err)
	}

	// One expected job per instance leaves some instances empty: counted,
	// but neither failed nor sampled.
	points, errs = RunFigure3(Fig3Options{Densities: []float64{1}, JobLengths: []float64{10},
		Runs: 16, TargetJobs: 1, Seed: 3})
	if p := points[0]; p.Empty == 0 || p.N+p.Failed+p.Empty != 16 || len(errs) != p.Failed {
		t.Fatalf("one-job sweep: N %d, failed %d, empty %d, errors %v", p.N, p.Failed, p.Empty, errs)
	}
}

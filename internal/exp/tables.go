package exp

import (
	"fmt"
	"math"
	"strings"

	"stretchsched/internal/stats"
)

// Row is one line of a paper table: per-scheduler aggregate statistics of
// the ratio-to-best for max-stretch and sum-stretch.
type Row struct {
	Scheduler string
	N         int
	MaxMean   float64
	MaxSD     float64
	MaxMax    float64
	SumMean   float64
	SumSD     float64
	SumMax    float64
}

// Aggregate normalises each instance's metrics by the best value observed
// on that instance and aggregates the ratios over the instances whose
// point passes the filter (nil filter = all), in the given scheduler order.
func Aggregate[P comparable](results []Result[P], filter func(P) bool, schedulers []string) []Row {
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

// TableSpec identifies one of the paper's sixteen tables by its filter.
type TableSpec struct {
	Number int
	Title  string
	Filter func(GridPoint) bool
}

// Tables returns the sixteen table specifications of the paper.
func Tables() []TableSpec {
	specs := []TableSpec{{1, "Aggregate statistics over all 162 platform/application configurations", nil}}
	for _, s := range []int{3, 10, 20} {
		sites := s
		specs = append(specs, TableSpec{
			Number: len(specs) + 1,
			Title:  fmt.Sprintf("Aggregate statistics over configurations using %d sites", sites),
			Filter: func(g GridPoint) bool { return g.Sites == sites },
		})
	}
	for _, d := range []float64{0.75, 1.0, 1.25, 1.5, 2.0, 3.0} {
		dens := d
		specs = append(specs, TableSpec{
			Number: len(specs) + 1,
			Title:  fmt.Sprintf("Aggregate statistics over configurations with workload density %.2f", dens),
			Filter: func(g GridPoint) bool { return g.Density == dens },
		})
	}
	for _, b := range []int{3, 10, 20} {
		banks := b
		specs = append(specs, TableSpec{
			Number: len(specs) + 1,
			Title:  fmt.Sprintf("Aggregate statistics over configurations with %d reference databanks", banks),
			Filter: func(g GridPoint) bool { return g.Databanks == banks },
		})
	}
	for _, a := range []float64{0.3, 0.6, 0.9} {
		avail := a
		specs = append(specs, TableSpec{
			Number: len(specs) + 1,
			Title:  fmt.Sprintf("Aggregate statistics over configurations with databank availability %.0f%%", 100*avail),
			Filter: func(g GridPoint) bool { return g.Availability == avail },
		})
	}
	return specs
}

// TableByNumber returns the spec of the paper's table n (1–16).
func TableByNumber(n int) (TableSpec, error) {
	for _, s := range Tables() {
		if s.Number == n {
			return s, nil
		}
	}
	return TableSpec{}, fmt.Errorf("exp: no table %d (valid: 1-16)", n)
}

// Render formats rows in the paper's table layout.
func Render(title string, rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-14s | %28s | %28s | %s\n", "", "Max-stretch (ratio to best)", "Sum-stretch (ratio to best)", "N")
	fmt.Fprintf(&b, "%-14s | %8s %9s %9s | %8s %9s %9s |\n",
		"", "Mean", "SD", "Max", "Mean", "SD", "Max")
	fmt.Fprintf(&b, "%s\n", strings.Repeat("-", 14+3+28+3+28+3+6))
	for _, r := range rows {
		if r.N == 0 {
			fmt.Fprintf(&b, "%-14s | %28s | %28s | 0\n", r.Scheduler, "-", "-")
			continue
		}
		fmt.Fprintf(&b, "%-14s | %8.4f %9.4f %9.4f | %8.4f %9.4f %9.4f | %d\n",
			r.Scheduler, r.MaxMean, r.MaxSD, r.MaxMax, r.SumMean, r.SumSD, r.SumMax, r.N)
	}
	return b.String()
}

package exp

import (
	"bytes"
	"math"
	"runtime"
	"sync"
	"testing"

	"stretchsched/internal/core"
)

// gridTestOptions is a small but non-trivial grid slice: cheap list
// policies plus the planned offline/online stack, several points, several
// runs — enough work that a racy or shard-dependent runner would diverge.
func gridTestPoints() []GridPoint {
	return []GridPoint{
		{Sites: 3, Databanks: 3, Availability: 0.6, Density: 1.0},
		{Sites: 3, Databanks: 3, Availability: 0.9, Density: 2.0},
		{Sites: 10, Databanks: 10, Availability: 0.3, Density: 0.75},
	}
}

func gridTestOptions(workers int) Options {
	return Options{
		Runs:       3,
		Seed:       17,
		TargetJobs: 8,
		// Bender98 is included so the invariance test also covers the
		// heaviest (largest-first-dispatched) shard class on 3-site points.
		Schedulers: []string{"Offline", "Online", "Bender98", "SWRPT", "SRPT", "MCT"},
		Workers:    workers,
	}
}

func sameMetric(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

// TestGridWorkerInvariance is the acceptance test for the sharded runner:
// results, the rendered tables, and the merged CSV stream must be
// byte-identical for 1 worker and NumCPU workers.
func TestGridWorkerInvariance(t *testing.T) {
	points := gridTestPoints()
	n := runtime.NumCPU()
	if n < 2 {
		n = 4 // still exercises the pool with more workers than shards
	}

	var csv1, csvN bytes.Buffer
	res1, err := Grid.RunCSV(&csv1, points, gridTestOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	resN, err := Grid.RunCSV(&csvN, points, gridTestOptions(n))
	if err != nil {
		t.Fatal(err)
	}

	if len(res1) != len(resN) {
		t.Fatalf("result counts differ: %d vs %d", len(res1), len(resN))
	}
	for i := range res1 {
		a, b := res1[i], resN[i]
		if a.Point != b.Point || a.Run != b.Run || a.Jobs != b.Jobs {
			t.Fatalf("instance %d identity differs: %+v vs %+v", i, a, b)
		}
		for name := range a.MaxStretch {
			if !sameMetric(a.MaxStretch[name], b.MaxStretch[name]) {
				t.Fatalf("instance %d %s max-stretch: %v (1 worker) vs %v (%d workers)",
					i, name, a.MaxStretch[name], b.MaxStretch[name], n)
			}
			if !sameMetric(a.SumStretch[name], b.SumStretch[name]) {
				t.Fatalf("instance %d %s sum-stretch: %v vs %v",
					i, name, a.SumStretch[name], b.SumStretch[name])
			}
		}
	}

	sched := gridTestOptions(0).Schedulers
	t1 := Render("Table X", Aggregate(res1, nil, sched))
	tN := Render("Table X", Aggregate(resN, nil, sched))
	if t1 != tN {
		t.Fatalf("rendered tables differ:\n%s\nvs\n%s", t1, tN)
	}

	if !bytes.Equal(csv1.Bytes(), csvN.Bytes()) {
		t.Fatalf("merged CSV differs between 1 and %d workers (%d vs %d bytes)",
			n, csv1.Len(), csvN.Len())
	}
	if csv1.Len() == 0 {
		t.Fatal("CSV output empty")
	}
}

// TestShardOrderLargestFirst: shards must be dispatched as a permutation of
// all shard indices, sorted by non-increasing estimated cost, with the
// Bender98-eligible 3-site points outweighing even the 20-site ones (the
// §5.3 cost ordering that motivates largest-first dispatch).
func TestShardOrderLargestFirst(t *testing.T) {
	points := []GridPoint{
		{Sites: 20, Databanks: 20, Availability: 0.9, Density: 3.0},
		{Sites: 3, Databanks: 3, Availability: 0.6, Density: 1.0}, // Bender98 runs here
		{Sites: 10, Databanks: 10, Availability: 0.3, Density: 0.75},
	}
	opts := Grid.withDefaults(gridTestOptions(1))
	total := len(points) * opts.Runs
	nShards := (total + shardSize - 1) / shardSize

	order := Grid.shardOrder(points, opts)
	if len(order) != nShards {
		t.Fatalf("order has %d shards, want %d", len(order), nShards)
	}
	seen := make([]bool, nShards)
	for _, si := range order {
		if si < 0 || si >= nShards || seen[si] {
			t.Fatalf("order %v is not a permutation of [0,%d)", order, nShards)
		}
		seen[si] = true
	}
	weightOf := func(si int) float64 {
		w := 0.0
		for ti := si * shardSize; ti < (si+1)*shardSize && ti < total; ti++ {
			w += Grid.pointWeight(opts, points[ti/opts.Runs])
		}
		return w
	}
	for i := 1; i < len(order); i++ {
		if weightOf(order[i]) > weightOf(order[i-1]) {
			t.Fatalf("shard %d (weight %g) dispatched after lighter shard %d (weight %g)",
				order[i], weightOf(order[i]), order[i-1], weightOf(order[i-1]))
		}
	}
	// The Bender98 point must dominate the weight ranking.
	if w3, w20 := Grid.pointWeight(opts, points[1]), Grid.pointWeight(opts, points[0]); w3 <= w20 {
		t.Fatalf("3-site Bender98 point weight %g not above 20-site weight %g", w3, w20)
	}
	// Without Bender98 in the mix, the 20-site point is the heavy one.
	noB := opts
	noB.Schedulers = []string{"Offline", "Online"}
	if w3, w20 := Grid.pointWeight(noB, points[1]), Grid.pointWeight(noB, points[0]); w3 >= w20 {
		t.Fatalf("without Bender98, 3-site weight %g not below 20-site weight %g", w3, w20)
	}
}

// TestRunGridCSVMatchesWriteResultsCSV: the per-shard merge must produce
// exactly what the single-pass writer produces from the ordered results.
func TestRunGridCSVMatchesWriteResultsCSV(t *testing.T) {
	points := gridTestPoints()[:2]
	opts := gridTestOptions(3)
	var streamed bytes.Buffer
	results, err := Grid.RunCSV(&streamed, points, opts)
	if err != nil {
		t.Fatal(err)
	}
	var single bytes.Buffer
	if err := Grid.WriteCSV(&single, results, opts.Schedulers); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed.Bytes(), single.Bytes()) {
		t.Fatalf("per-shard merged CSV differs from single-pass CSV:\n%q\nvs\n%q",
			streamed.String(), single.String())
	}
}

// TestGridProgressReporting: the callback must fire once per instance,
// serialised, and reach (total, total).
func TestGridProgressReporting(t *testing.T) {
	points := gridTestPoints()[:2]
	opts := gridTestOptions(4)
	opts.Schedulers = []string{"SWRPT", "MCT"}
	var mu sync.Mutex
	calls, last := 0, 0
	opts.Progress = func(done, total int) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if done > last {
			last = done
		}
		if total != len(points)*opts.Runs {
			t.Errorf("total = %d, want %d", total, len(points)*opts.Runs)
		}
	}
	Grid.Run(points, opts)
	want := len(points) * opts.Runs
	if calls != want || last != want {
		t.Fatalf("progress: %d calls, max done %d, want %d", calls, last, want)
	}
}

// TestRunnerReuseMatchesScheduler: core.Runner on a shared engine must
// reproduce the plain Scheduler.Run results exactly for every Table 1
// entry (the registry threading used by every worker).
func TestRunnerReuseMatchesScheduler(t *testing.T) {
	opts := gridTestOptions(1)
	inst, err := Grid.config(opts, gridTestPoints()[0], 0, 0).Generate()
	if err != nil {
		t.Fatal(err)
	}
	runner := core.NewRunner()
	for _, name := range []string{"Offline", "Online", "SWRPT", "SRPT", "Bender02", "MCT"} {
		s := core.MustGet(name)
		fresh, err := s.Run(inst)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		reused, err := runner.Run(s, inst)
		if err != nil {
			t.Fatalf("%s reused: %v", name, err)
		}
		for j := range fresh.Completion {
			if fresh.Completion[j] != reused.Completion[j] {
				t.Fatalf("%s: job %d: engine-reuse %v, fresh %v",
					name, j, reused.Completion[j], fresh.Completion[j])
			}
		}
	}
}

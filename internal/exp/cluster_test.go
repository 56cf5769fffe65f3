package exp

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"

	"stretchsched/internal/cluster"
	"stretchsched/internal/core"
	"stretchsched/internal/model"
)

// Every family contract below is checked on two point lists: a slice of
// the fault-free comparison grid under three local policies, and a slice of
// the failure-rate grid under SWRPT alone (fault mode needs a list policy).

func clusterTestPoints() []ClusterPoint {
	return []ClusterPoint{
		{Machines: 1, Balancer: "single", Density: 1.0},
		{Machines: 2, Balancer: "random", Density: 1.5},
		{Machines: 2, Balancer: "kchoices", Density: 1.5},
		{Machines: 4, Balancer: "stretch", Density: 2.0},
		{Machines: 2, Balancer: "ideal", Density: 1.0},
	}
}

func clusterTestOptions(workers int) Options {
	return Options{
		Runs:       2,
		Seed:       23,
		TargetJobs: 8,
		Schedulers: []string{"SRPT", "SWRPT", "ST14"},
		Workers:    workers,
	}
}

func faultTestPoints() []ClusterPoint {
	return []ClusterPoint{
		{Machines: 2, Balancer: "random", Density: 1, Rate: 0},
		{Machines: 2, Balancer: "kchoices", Density: 1, Rate: 1},
		{Machines: 4, Balancer: "stretch", Density: 1, Rate: 2},
		{Machines: 2, Balancer: "ideal", Density: 1, Rate: 1},
	}
}

func faultTestOptions(workers int) Options {
	return Options{
		Runs:       2,
		Seed:       31,
		TargetJobs: 8,
		Schedulers: []string{"SWRPT"},
		Workers:    workers,
	}
}

// checkWorkerInvariance mirrors TestGridWorkerInvariance for the cluster
// family: results, both rendered views, the merged CSV stream and the
// per-point digests must be byte-identical for 1 worker and NumCPU
// workers. It returns the 1-worker results.
func checkWorkerInvariance(t *testing.T, points []ClusterPoint, opts func(workers int) Options) []ClusterResult {
	t.Helper()
	n := runtime.NumCPU()
	if n < 2 {
		n = 4
	}
	var csv1, csvN bytes.Buffer
	res1, err := Cluster.RunCSV(&csv1, points, opts(1))
	if err != nil {
		t.Fatal(err)
	}
	resN, err := Cluster.RunCSV(&csvN, points, opts(n))
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
		if len(a.Errs) != 0 || len(b.Errs) != 0 {
			t.Fatalf("instance %d errors: %v / %v", i, a.Errs, b.Errs)
		}
		for name, maxS := range a.MaxStretch {
			if !sameMetric(maxS, b.MaxStretch[name]) || !sameMetric(a.SumStretch[name], b.SumStretch[name]) ||
				a.Retries[name] != b.Retries[name] || !sameMetric(a.LostWork[name], b.LostWork[name]) {
				t.Fatalf("instance %d %s metrics differ between 1 and %d workers: %+v vs %+v", i, name, n, a, b)
			}
		}
	}

	sched := Cluster.withDefaults(opts(0)).Schedulers
	for _, render := range []func([]ClusterResult, []string) string{RenderClusterTables, RenderFaultTables} {
		if t1, tN := render(res1, sched), render(resN, sched); t1 != tN {
			t.Fatalf("rendered tables differ:\n%s\nvs\n%s", t1, tN)
		}
	}
	if !bytes.Equal(csv1.Bytes(), csvN.Bytes()) {
		t.Fatalf("merged CSV differs between 1 and %d workers (%d vs %d bytes)", n, csv1.Len(), csvN.Len())
	}
	if csv1.Len() == 0 {
		t.Fatal("CSV output empty")
	}
	d1, err := Cluster.Digests(res1, sched)
	if err != nil {
		t.Fatal(err)
	}
	dN, err := Cluster.Digests(resN, sched)
	if err != nil {
		t.Fatal(err)
	}
	if len(d1) != len(points) {
		t.Fatalf("%d digest lines, want one per point (%d)", len(d1), len(points))
	}
	for i := range d1 {
		if d1[i] != dN[i] {
			t.Fatalf("digest line %d differs: %q vs %q", i, d1[i], dN[i])
		}
	}
	return res1
}

func TestClusterWorkerInvariance(t *testing.T) {
	checkWorkerInvariance(t, clusterTestPoints(), clusterTestOptions)
}

// TestFaultsWorkerInvariance: failure injection must not break the
// determinism contract, and the failure-rate slice must actually retry.
func TestFaultsWorkerInvariance(t *testing.T) {
	for _, r := range checkWorkerInvariance(t, faultTestPoints(), faultTestOptions) {
		if r.Retries["SWRPT"] > 0 {
			return
		}
	}
	t.Fatal("no instance recorded a retry; the fault grid is inert")
}

// TestClusterSingleMachineMatchesSinglePlatform: a machines=1 cluster point
// must reproduce the single-platform scheduler path exactly — identical
// metrics to running the very same generated instances through the core
// registry directly.
func TestClusterSingleMachineMatchesSinglePlatform(t *testing.T) {
	copts := Cluster.withDefaults(clusterTestOptions(1))
	p := ClusterPoint{Machines: 1, Balancer: "single", Density: 1.5}
	cres := Cluster.Run([]ClusterPoint{p}, copts)

	for run := 0; run < copts.Runs; run++ {
		inst, err := Cluster.config(copts, p, run, 0).Generate()
		if err != nil {
			t.Fatal(err)
		}
		if inst.NumJobs() != cres[run].Jobs {
			t.Fatalf("run %d jobs: cluster %d, direct %d", run, cres[run].Jobs, inst.NumJobs())
		}
		for _, name := range copts.Schedulers {
			sched, err := core.MustGet(name).Run(inst)
			if err != nil {
				t.Fatalf("run %d %s: %v", run, name, err)
			}
			if got, want := cres[run].MaxStretch[name], sched.MaxStretch(inst); got != want {
				t.Fatalf("run %d %s max-stretch: cluster %v, direct %v", run, name, got, want)
			}
			if got, want := cres[run].SumStretch[name], sched.SumStretch(inst); got != want {
				t.Fatalf("run %d %s sum-stretch: cluster %v, direct %v", run, name, got, want)
			}
		}
	}
}

// TestFaultsZeroRateMatchesCluster: the rate-0 anchor of the failure-rate
// grid is the fault-free cluster path — the inert plan the family builds
// there must yield exactly the stretches of a world run with no plan at
// all, and no retries or lost work.
func TestFaultsZeroRateMatchesCluster(t *testing.T) {
	opts := Cluster.withDefaults(faultTestOptions(1))
	p := ClusterPoint{Machines: 2, Balancer: "kchoices", Density: 1.0}
	res := Cluster.Run([]ClusterPoint{p}, opts)
	cr := core.NewClusterRunner()
	for run, r := range res {
		inst, err := Cluster.config(opts, p, run, 0).Generate()
		if err != nil {
			t.Fatal(err)
		}
		ci, err := model.Replicate(inst.Platform, p.Machines, inst.Jobs)
		if err != nil {
			t.Fatal(err)
		}
		lb, _ := cluster.Balancers(p.Balancer)
		cs, err := cr.Run("SWRPT", ci, lb, opts.seed(run, 0, lbSeedOffset), nil)
		if err != nil {
			t.Fatal(err)
		}
		if r.Jobs != ci.NumJobs() {
			t.Fatalf("run %d jobs: family %d, direct %d", run, r.Jobs, ci.NumJobs())
		}
		if r.Retries["SWRPT"] != 0 || r.LostWork["SWRPT"] != 0 {
			t.Fatalf("run %d rate-0 recorded faults: %+v", run, r)
		}
		if got, want := r.MaxStretch["SWRPT"], cs.MaxStretch(ci); got != want {
			t.Fatalf("run %d max-stretch: family %v, no plan %v", run, got, want)
		}
		if got, want := r.SumStretch["SWRPT"], cs.SumStretch(ci); got != want {
			t.Fatalf("run %d sum-stretch: family %v, no plan %v", run, got, want)
		}
	}
}

// checkCSVRoundTrip: Cluster.ReadCSV must reconstruct the results a CSV
// pass wrote, and re-encoding must reproduce the bytes and digests — the
// property the nightly -fromcsv merge and digest check stand on.
func checkCSVRoundTrip(t *testing.T, points []ClusterPoint, opts Options) {
	t.Helper()
	var buf bytes.Buffer
	results, err := Cluster.RunCSV(&buf, points, opts)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Cluster.ReadCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var rewritten bytes.Buffer
	if err := Cluster.WriteCSV(&rewritten, back, opts.Schedulers); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), rewritten.Bytes()) {
		t.Fatalf("re-encoded CSV differs:\n%q\nvs\n%q", buf.String(), rewritten.String())
	}
	d1, err := Cluster.Digests(results, opts.Schedulers)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Cluster.Digests(back, opts.Schedulers)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(d1, "\n") != strings.Join(d2, "\n") {
		t.Fatalf("digests differ after round trip:\n%v\nvs\n%v", d1, d2)
	}
}

func TestClusterCSVRoundTrip(t *testing.T) {
	checkCSVRoundTrip(t, clusterTestPoints()[:3], clusterTestOptions(2))
	// A dump in another column layout (here the pre-rate one) is refused.
	old := "machines,balancer,density,run,jobs,scheduler,max_stretch,sum_stretch\n"
	if _, err := Cluster.ReadCSV(strings.NewReader(old)); err == nil {
		t.Fatal("Cluster.ReadCSV accepted a header without the rate column")
	}
}

func TestFaultsCSVRoundTrip(t *testing.T) {
	checkCSVRoundTrip(t, faultTestPoints()[:3], faultTestOptions(2))
}

// checkShardedMerge simulates the nightly matrix: interleaved point shards
// run independently with PointIndices, their CSVs concatenate (minus inner
// headers) into the merged dump, and the recomputed digests of the merged
// read-back must equal both the union of the shard digests and the digests
// of an unsharded run.
func checkShardedMerge(t *testing.T, points []ClusterPoint, opts Options) {
	t.Helper()
	const nShards = 2
	var full bytes.Buffer
	if _, err := Cluster.RunCSV(&full, points, opts); err != nil {
		t.Fatal(err)
	}
	var merged bytes.Buffer
	var shardDigests []string
	for k := 0; k < nShards; k++ {
		shard, indices := ShardPoints(points, k, nShards)
		sopts := opts
		sopts.PointIndices = indices
		var buf bytes.Buffer
		res, err := Cluster.RunCSV(&buf, shard, sopts)
		if err != nil {
			t.Fatal(err)
		}
		lines, err := Cluster.Digests(res, opts.Schedulers)
		if err != nil {
			t.Fatal(err)
		}
		shardDigests = append(shardDigests, lines...)
		body := buf.String()
		if k > 0 {
			// Drop the inner header, as the merge job's tail -n +2 does.
			body = body[strings.Index(body, "\n")+1:]
		}
		merged.WriteString(body)
	}
	want := map[string]bool{}
	for _, l := range shardDigests {
		want[l] = true
	}
	for _, dump := range []*bytes.Buffer{&merged, &full} {
		back, err := Cluster.ReadCSV(bytes.NewReader(dump.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		got, err := Cluster.Digests(back, opts.Schedulers)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("recomputed digests: %d lines, shards produced %d", len(got), len(want))
		}
		for _, l := range got {
			if !want[l] {
				t.Fatalf("recomputed digest %q not produced by any shard", l)
			}
		}
	}
}

func TestClusterShardedMatrixMerge(t *testing.T) {
	checkShardedMerge(t, clusterTestPoints(), clusterTestOptions(2))
}

func TestFaultsShardedMatrixMerge(t *testing.T) {
	checkShardedMerge(t, faultTestPoints(), faultTestOptions(2))
}

// checkDryRun: a dry run must produce the exact row structure of a real
// run (same instances, same schedulers) with every metric NA.
func checkDryRun(t *testing.T, points []ClusterPoint, opts Options) {
	t.Helper()
	live := Cluster.Run(points, opts)
	opts.DryRun = true
	dry := Cluster.Run(points, opts)
	if len(dry) != len(points)*opts.Runs {
		t.Fatalf("%d results, want %d", len(dry), len(points)*opts.Runs)
	}
	for i, r := range dry {
		if r.Jobs == 0 {
			t.Fatalf("dry-run instance %d generated no jobs", i)
		}
		for _, name := range opts.Schedulers {
			if !math.IsNaN(r.MaxStretch[name]) || !math.IsNaN(r.SumStretch[name]) {
				t.Fatalf("dry-run instance %d %s has real metrics", i, name)
			}
		}
	}
	var dryCSV, liveCSV bytes.Buffer
	if err := Cluster.WriteCSV(&dryCSV, dry, opts.Schedulers); err != nil {
		t.Fatal(err)
	}
	if err := Cluster.WriteCSV(&liveCSV, live, opts.Schedulers); err != nil {
		t.Fatal(err)
	}
	if dryLines, liveLines := strings.Count(dryCSV.String(), "\n"), strings.Count(liveCSV.String(), "\n"); dryLines != liveLines {
		t.Fatalf("dry run predicts %d rows, live run produced %d", dryLines, liveLines)
	}
}

func TestClusterDryRun(t *testing.T) {
	checkDryRun(t, clusterTestPoints()[:2], clusterTestOptions(1))
}

func TestFaultsDryRun(t *testing.T) {
	checkDryRun(t, faultTestPoints()[:2], faultTestOptions(1))
}

// TestDefaultClusterGrid pins the comparison grid's shape: the machines=1
// baseline plus every balancer at 2 and 4 machines, four densities each,
// no failures.
func TestDefaultClusterGrid(t *testing.T) {
	grid := DefaultClusterGrid()
	if len(grid) != 36 {
		t.Fatalf("%d points, want 36", len(grid))
	}
	combos := map[[2]any]bool{}
	for _, p := range grid {
		combos[[2]any{p.Machines, p.Balancer}] = true
		if p.Machines == 1 && p.Balancer != "single" {
			t.Fatalf("machines=1 point uses balancer %q", p.Balancer)
		}
		if p.Rate != 0 {
			t.Fatalf("comparison point %v has failures", p)
		}
	}
	if len(combos) != 9 {
		t.Fatalf("%d machine/balancer combos, want 9", len(combos))
	}
}

// TestDefaultFaultGrid pins the failure-rate grid's shape: 2 machine
// counts × 4 balancers × 4 rates at density 1, fault-free anchors
// included.
func TestDefaultFaultGrid(t *testing.T) {
	grid := DefaultFaultGrid()
	if len(grid) != 32 {
		t.Fatalf("%d points, want 32", len(grid))
	}
	anchors := 0
	for _, p := range grid {
		if p.Density != 1 {
			t.Fatalf("failure-rate point %v is not at density 1", p)
		}
		if p.Rate == 0 {
			anchors++
		}
	}
	if anchors != 8 {
		t.Fatalf("%d rate-0 anchor points, want 8", anchors)
	}
}

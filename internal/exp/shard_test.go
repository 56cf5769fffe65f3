package exp

import (
	"bytes"
	"strings"
	"testing"
)

// TestShardGridPartition: the n shards of a grid partition it — every
// point appears in exactly one shard, with its global index preserved.
func TestShardGridPartition(t *testing.T) {
	points := DefaultGrid()
	for _, n := range []int{1, 2, 6, 7} {
		seen := make([]int, len(points))
		for k := 0; k < n; k++ {
			shard, indices := ShardPoints(points, k, n)
			if len(shard) != len(indices) {
				t.Fatalf("n=%d k=%d: %d points but %d indices", n, k, len(shard), len(indices))
			}
			for i, gi := range indices {
				if shard[i] != points[gi] {
					t.Fatalf("n=%d k=%d: shard[%d] = %v, but global %d is %v",
						n, k, i, shard[i], gi, points[gi])
				}
				seen[gi]++
			}
		}
		for gi, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: point %d covered %d times", n, gi, c)
			}
		}
	}
}

func TestShardGridRejectsBadShard(t *testing.T) {
	for _, bad := range [][2]int{{-1, 2}, {2, 2}, {0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ShardPoints(%d, %d) should panic", bad[0], bad[1])
				}
			}()
			ShardPoints(DefaultGrid(), bad[0], bad[1])
		}()
	}
}

// TestShardedMatchesUnsharded is the seed-safety contract of the nightly
// matrix: running the grid as interleaved shards with PointIndices set
// produces, instance for instance, exactly the results of the unsharded
// run — the seeds derive from global grid coordinates, not shard-local
// positions.
func TestShardedMatchesUnsharded(t *testing.T) {
	points := gridTestPoints()
	opts := gridTestOptions(2)
	full := Grid.Run(points, opts)

	const n = 2
	for k := 0; k < n; k++ {
		shard, indices := ShardPoints(points, k, n)
		sopts := opts
		sopts.PointIndices = indices
		part := Grid.Run(shard, sopts)
		if len(part) != len(shard)*opts.Runs {
			t.Fatalf("shard %d: %d results, want %d", k, len(part), len(shard)*opts.Runs)
		}
		for i := range part {
			gi := indices[i/opts.Runs]
			want := full[gi*opts.Runs+i%opts.Runs]
			got := part[i]
			if got.Point != want.Point || got.Run != want.Run || got.Jobs != want.Jobs {
				t.Fatalf("shard %d result %d: header %v/%d/%d, want %v/%d/%d",
					k, i, got.Point, got.Run, got.Jobs, want.Point, want.Run, want.Jobs)
			}
			for name, w := range want.MaxStretch {
				if g, ok := got.MaxStretch[name]; !ok || !sameMetric(g, w) {
					t.Fatalf("shard %d %v run %d %s: max %v, want %v",
						k, got.Point, got.Run, name, g, w)
				}
			}
			for name, w := range want.SumStretch {
				if g, ok := got.SumStretch[name]; !ok || !sameMetric(g, w) {
					t.Fatalf("shard %d %v run %d %s: sum %v, want %v",
						k, got.Point, got.Run, name, g, w)
				}
			}
		}
	}
}

// TestDryRunPredictsRowCount: a dry pass emits exactly as many CSV rows
// as the real grid (same instances, same per-scheduler row structure,
// metrics NA) — the assertion the nightly merge job makes against the
// concatenated shard CSVs.
func TestDryRunPredictsRowCount(t *testing.T) {
	points := gridTestPoints()
	opts := gridTestOptions(2)

	var real, dry bytes.Buffer
	if _, err := Grid.RunCSV(&real, points, opts); err != nil {
		t.Fatal(err)
	}
	dopts := opts
	dopts.DryRun = true
	if _, err := Grid.RunCSV(&dry, points, dopts); err != nil {
		t.Fatal(err)
	}
	realRows := strings.Count(real.String(), "\n")
	dryRows := strings.Count(dry.String(), "\n")
	if realRows != dryRows {
		t.Fatalf("dry run predicts %d rows, real run wrote %d", dryRows, realRows)
	}
	if realRows <= len(points) {
		t.Fatalf("suspiciously few rows (%d) for %d points", realRows, len(points))
	}
	// Dry metrics must all be NA, and row headers must agree line by line.
	realLines := strings.Split(real.String(), "\n")
	dryLines := strings.Split(dry.String(), "\n")
	for i, dl := range dryLines {
		if i == 0 || dl == "" {
			continue
		}
		fields := strings.Split(dl, ",")
		if fields[len(fields)-1] != "NA" || fields[len(fields)-2] != "NA" {
			t.Fatalf("dry row %d has non-NA metrics: %q", i, dl)
		}
		prefix := strings.Join(fields[:len(fields)-2], ",")
		if !strings.HasPrefix(realLines[i], prefix+",") {
			t.Fatalf("dry row %d header %q does not match real row %q", i, prefix, realLines[i])
		}
	}
}

// TestShardedCSVConcatenation mirrors the nightly merge job in miniature:
// per-shard Grid.RunCSV outputs concatenated (header kept once) contain
// exactly the rows of the unsharded CSV, reordered by shard.
func TestShardedCSVConcatenation(t *testing.T) {
	points := gridTestPoints()
	opts := gridTestOptions(2)

	var full bytes.Buffer
	if _, err := Grid.RunCSV(&full, points, opts); err != nil {
		t.Fatal(err)
	}

	const n = 2
	var merged bytes.Buffer
	for k := 0; k < n; k++ {
		shard, indices := ShardPoints(points, k, n)
		sopts := opts
		sopts.PointIndices = indices
		var buf bytes.Buffer
		if _, err := Grid.RunCSV(&buf, shard, sopts); err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitAfter(buf.String(), "\n")
		start := 1 // drop the per-shard header
		if k == 0 {
			start = 0
		}
		for _, l := range lines[start:] {
			merged.WriteString(l)
		}
	}

	fullRows := strings.Split(strings.TrimRight(full.String(), "\n"), "\n")
	mergedRows := strings.Split(strings.TrimRight(merged.String(), "\n"), "\n")
	if len(fullRows) != len(mergedRows) {
		t.Fatalf("merged CSV has %d rows, unsharded %d", len(mergedRows), len(fullRows))
	}
	if fullRows[0] != mergedRows[0] {
		t.Fatalf("headers differ: %q vs %q", mergedRows[0], fullRows[0])
	}
	count := map[string]int{}
	for _, r := range fullRows[1:] {
		count[r]++
	}
	for _, r := range mergedRows[1:] {
		count[r]--
		if count[r] < 0 {
			t.Fatalf("merged CSV has unexpected row %q", r)
		}
	}
	for r, c := range count {
		if c != 0 {
			t.Fatalf("merged CSV is missing row %q", r)
		}
	}
}

// TestReadResultsCSVRoundTrip: Grid.WriteCSV → Grid.ReadCSV is the
// identity on the metric content, so -fromcsv table aggregation matches
// live-grid aggregation exactly.
func TestReadResultsCSVRoundTrip(t *testing.T) {
	points := gridTestPoints()
	opts := gridTestOptions(2)
	results := Grid.Run(points, opts)

	var buf bytes.Buffer
	if err := Grid.WriteCSV(&buf, results, opts.Schedulers); err != nil {
		t.Fatal(err)
	}
	back, err := Grid.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(results) {
		t.Fatalf("round trip has %d instances, want %d", len(back), len(results))
	}
	for i, want := range results {
		got := back[i]
		if got.Point != want.Point || got.Run != want.Run || got.Jobs != want.Jobs {
			t.Fatalf("instance %d header %v/%d/%d, want %v/%d/%d",
				i, got.Point, got.Run, got.Jobs, want.Point, want.Run, want.Jobs)
		}
		if len(got.MaxStretch) != len(want.MaxStretch) {
			t.Fatalf("instance %d has %d schedulers, want %d",
				i, len(got.MaxStretch), len(want.MaxStretch))
		}
		for name, w := range want.MaxStretch {
			if g := got.MaxStretch[name]; !sameMetric(g, w) {
				t.Fatalf("instance %d %s max %v, want %v", i, name, g, w)
			}
		}
		for name, w := range want.SumStretch {
			if g := got.SumStretch[name]; !sameMetric(g, w) {
				t.Fatalf("instance %d %s sum %v, want %v", i, name, g, w)
			}
		}
	}

	// Aggregated tables from the round-tripped results must match.
	wantRows := Aggregate(results, nil, opts.Schedulers)
	gotRows := Aggregate(back, nil, opts.Schedulers)
	if len(wantRows) != len(gotRows) {
		t.Fatalf("aggregate rows %d vs %d", len(gotRows), len(wantRows))
	}
	for i := range wantRows {
		if wantRows[i] != gotRows[i] {
			t.Fatalf("aggregate row %d: %+v vs %+v", i, gotRows[i], wantRows[i])
		}
	}
}

package exp

import (
	"bytes"
	"sort"
	"strings"
	"testing"
)

// TestPointDigestsShardMergeInvariance is the nightly merge contract: the
// union of per-shard digest lines equals the digests recomputed from the
// concatenated CSV after a read-back — the exact pipeline of the merge job
// (shards write digests next to their CSVs; the merge recomputes via
// -fromcsv and compares sorted line sets).
func TestPointDigestsShardMergeInvariance(t *testing.T) {
	points := gridTestPoints()
	opts := gridTestOptions(2)

	const n = 2
	var shardLines []string
	var merged bytes.Buffer
	for k := 0; k < n; k++ {
		shardPoints, indices := ShardPoints(points, k, n)
		shardOpts := opts
		shardOpts.PointIndices = indices
		var csvBuf bytes.Buffer
		results, err := Grid.RunCSV(&csvBuf, shardPoints, shardOpts)
		if err != nil {
			t.Fatal(err)
		}
		lines, err := Grid.Digests(results, opts.Schedulers)
		if err != nil {
			t.Fatal(err)
		}
		shardLines = append(shardLines, lines...)
		body := csvBuf.String()
		if k > 0 {
			// Drop the header when concatenating, as the merge job does.
			body = body[strings.Index(body, "\n")+1:]
		}
		merged.WriteString(body)
	}
	sort.Strings(shardLines)

	parsed, err := Grid.ReadCSV(bytes.NewReader(merged.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	recomputed, err := Grid.Digests(parsed, opts.Schedulers)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(shardLines, "\n") != strings.Join(recomputed, "\n") {
		t.Fatalf("digest mismatch:\nshards:\n%s\nrecomputed:\n%s",
			strings.Join(shardLines, "\n"), strings.Join(recomputed, "\n"))
	}
	if len(recomputed) != len(points) {
		t.Fatalf("%d digest lines for %d points", len(recomputed), len(points))
	}
}

// TestPointDigestsSkipRowlessPoints: a point whose instances produced no
// CSV rows (generation failure, zero-job instances) must produce no digest
// line either — the merge side recomputes digests from the merged CSV,
// where such a point is invisible, and a shard-only empty-input line would
// fail the nightly diff with phantom corruption.
func TestPointDigestsSkipRowlessPoints(t *testing.T) {
	rowless := InstanceResult{
		Point:      GridPoint{Sites: 3, Databanks: 3, Availability: 0.3, Density: 0.75},
		MaxStretch: map[string]float64{},
		SumStretch: map[string]float64{},
	}
	withRows := InstanceResult{
		Point:      GridPoint{Sites: 10, Databanks: 3, Availability: 0.3, Density: 0.75},
		Jobs:       2,
		MaxStretch: map[string]float64{"SWRPT": 1.5},
		SumStretch: map[string]float64{"SWRPT": 2.5},
	}
	lines, err := Grid.Digests([]InstanceResult{rowless, withRows}, []string{"SWRPT"})
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 1 || !strings.HasPrefix(lines[0], "10,3,") {
		t.Fatalf("digest lines = %q, want exactly the row-bearing point", lines)
	}
}

// TestPointDigestsDetectCorruption: silently corrupting one metric field of
// the merged CSV — the failure class row counts cannot see — must change
// that point's digest.
func TestPointDigestsDetectCorruption(t *testing.T) {
	points := gridTestPoints()[:2]
	opts := gridTestOptions(1)

	var csvBuf bytes.Buffer
	results, err := Grid.RunCSV(&csvBuf, points, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Grid.Digests(results, opts.Schedulers)
	if err != nil {
		t.Fatal(err)
	}

	corrupt := func(mangle func(string) string) []string {
		t.Helper()
		parsed, err := Grid.ReadCSV(strings.NewReader(mangle(csvBuf.String())))
		if err != nil {
			t.Fatal(err)
		}
		lines, err := Grid.Digests(parsed, opts.Schedulers)
		if err != nil {
			t.Fatal(err)
		}
		return lines
	}

	// Sanity: an un-mangled round trip reproduces the digests bit for bit.
	if clean := corrupt(func(s string) string { return s }); strings.Join(clean, "\n") != strings.Join(want, "\n") {
		t.Fatalf("clean round trip changed digests:\n%s\nvs\n%s",
			strings.Join(clean, "\n"), strings.Join(want, "\n"))
	}

	// Flip one digit of the last row's final metric field.
	mangled := corrupt(func(s string) string {
		rows := strings.Split(strings.TrimRight(s, "\n"), "\n")
		last := rows[len(rows)-1]
		i := strings.LastIndexAny(last, "0123456789")
		if i < 0 {
			t.Fatal("no digit to corrupt")
		}
		d := last[i]
		flip := byte('7')
		if d == '7' {
			flip = '3'
		}
		rows[len(rows)-1] = last[:i] + string(flip) + last[i+1:]
		return strings.Join(rows, "\n") + "\n"
	})
	if strings.Join(mangled, "\n") == strings.Join(want, "\n") {
		t.Fatal("corrupted metric left every digest unchanged")
	}
}

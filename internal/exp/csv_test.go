package exp

import (
	"bytes"
	"encoding/csv"
	"errors"
	"math"
	"strings"
	"testing"
)

func TestWriteResultsCSV(t *testing.T) {
	results := []InstanceResult{
		{
			Point: GridPoint{Sites: 3, Databanks: 3, Availability: 0.6, Density: 1},
			Run:   0, Jobs: 12,
			MaxStretch: map[string]float64{"SWRPT": 1.5, "Bender98": math.NaN()},
			SumStretch: map[string]float64{"SWRPT": 14.2, "Bender98": math.NaN()},
		},
	}
	var buf bytes.Buffer
	if err := Grid.WriteCSV(&buf, results, []string{"SWRPT", "Bender98", "absent"}); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 { // header + SWRPT + Bender98 (absent scheduler skipped)
		t.Fatalf("rows = %d: %v", len(rows), rows)
	}
	if rows[1][6] != "SWRPT" || rows[1][7] != "1.5" {
		t.Fatalf("row = %v", rows[1])
	}
	if rows[2][7] != "NA" {
		t.Fatalf("NaN should serialise as NA: %v", rows[2])
	}
}

// failingWriter accepts `allow` Write calls, then fails every subsequent
// one. errWrites counts the writes attempted after the failure point.
type failingWriter struct {
	allow     int
	writes    int
	errWrites int
}

var errWriterBroken = errors.New("writer broken")

func (w *failingWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes > w.allow {
		w.errWrites++
		return 0, errWriterBroken
	}
	return len(p), nil
}

// TestEncodeShardPropagatesWriterError pins the noswallow fix for a
// discarded row-encode error: the per-shard encode step must surface its
// writer's error instead of discarding it.
func TestEncodeShardPropagatesWriterError(t *testing.T) {
	shard := []InstanceResult{
		{
			Point: GridPoint{Sites: 3, Databanks: 3, Availability: 0.6, Density: 1},
			Run:   0, Jobs: 12,
			MaxStretch: map[string]float64{"SWRPT": 1.5},
			SumStretch: map[string]float64{"SWRPT": 14.2},
		},
	}
	w := &failingWriter{allow: 0}
	err := Grid.encodeShard(w, shard, []string{"SWRPT"})
	if !errors.Is(err, errWriterBroken) {
		t.Fatalf("Grid.encodeShard on failing writer: err = %v, want %v", err, errWriterBroken)
	}
}

// TestRunGridCSVPropagatesWriteError runs a real (dry) grid into a writer
// that dies after the header: Grid.RunCSV must return the write error —
// never a silently truncated CSV — while the grid itself still runs to
// completion.
func TestRunGridCSVPropagatesWriteError(t *testing.T) {
	points := []GridPoint{{Sites: 3, Databanks: 3, Availability: 0.6, Density: 1}}
	// Three shards, so writes after the first failed one would show.
	opts := Options{Runs: 2*shardSize + 1, Seed: 1, Workers: 2, DryRun: true}
	w := &failingWriter{allow: 1} // header write succeeds, first shard write fails
	results, err := Grid.RunCSV(w, points, opts)
	if !errors.Is(err, errWriterBroken) {
		t.Fatalf("Grid.RunCSV on failing writer: err = %v, want %v", err, errWriterBroken)
	}
	if len(results) != len(points)*opts.Runs {
		t.Fatalf("grid must run to completion despite the write error: %d results, want %d",
			len(results), len(points)*opts.Runs)
	}
	if w.errWrites != 1 {
		t.Fatalf("writes after the failure point = %d, want 1 (writing must stop at the first error)", w.errWrites)
	}
}

// TestWriteClusterCSV pins the cluster family's row layout, failure
// accounting included.
func TestWriteClusterCSV(t *testing.T) {
	r := newResult(ClusterPoint{Machines: 2, Balancer: "random", Density: 1, Rate: 0.5}, 0, 10)
	r.record("SWRPT", 1.5, 14.2, 2, 3.5)
	var buf bytes.Buffer
	if err := Cluster.WriteCSV(&buf, []ClusterResult{r}, []string{"SWRPT"}); err != nil {
		t.Fatal(err)
	}
	want := "machines,balancer,density,rate,run,jobs,scheduler,max_stretch,sum_stretch,retries,lost_work\n" +
		"2,random,1,0.5,0,10,SWRPT,1.5,14.2,2,3.5\n"
	if buf.String() != want {
		t.Fatalf("csv = %q, want %q", buf.String(), want)
	}
}

func TestWriteFigure3CSV(t *testing.T) {
	var buf bytes.Buffer
	err := WriteFigure3CSV(&buf, []Fig3Point{
		{Density: 0.5, OptDegradation: 1.25, NonOptDegradation: 3, SumGain: 12.5, N: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "density,") || !strings.Contains(out, "0.5,1.25,3,12.5,10") {
		t.Fatalf("csv = %q", out)
	}
}

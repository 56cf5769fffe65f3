package exp

import (
	"bytes"
	"strings"
	"testing"
)

// TestPointTimesRoundTrip: a measured pass's sidecar must read back into
// exactly the per-point sums, and concatenated shard sidecars must sum.
func TestPointTimesRoundTrip(t *testing.T) {
	pa := GridPoint{3, 3, 0.6, 1.0}
	pb := GridPoint{10, 10, 0.3, 2.0}
	results := []InstanceResult{
		{Point: pa, Run: 0, Seconds: 1.5},
		{Point: pa, Run: 1, Seconds: 0.5},
		{Point: pb, Run: 0, Seconds: 3.25},
		{Point: pb, Run: 1}, // unmeasured instance contributes nothing
	}
	var buf bytes.Buffer
	if err := Grid.WritePointTimes(&buf, results); err != nil {
		t.Fatal(err)
	}
	times, err := Grid.ReadPointTimes(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != 2 || times[Grid.key(pa)] != 2.0 || times[Grid.key(pb)] != 3.25 {
		t.Fatalf("times = %v, want {%v: 2, %v: 3.25}", times, pa, pb)
	}

	// Concatenated shard sidecars (header stripped from the second, as the
	// nightly merge does) sum per point.
	second := buf.String()
	second = second[strings.Index(second, "\n")+1:]
	merged := buf.String() + second
	times, err = Grid.ReadPointTimes(strings.NewReader(merged))
	if err != nil {
		t.Fatal(err)
	}
	if times[Grid.key(pa)] != 4.0 || times[Grid.key(pb)] != 6.5 {
		t.Fatalf("merged times = %v, want doubled sums", times)
	}
}

// TestMeasuredSecondsDrivesDispatch: with a measured-times map, pointWeight
// must prefer the observation over the static heuristic — so a point the
// static model calls cheap but the last pass measured slow dispatches first.
func TestMeasuredSecondsDrivesDispatch(t *testing.T) {
	cheap := GridPoint{3, 3, 0.6, 1.0}   // statically light (small sites)
	heavy := GridPoint{20, 20, 0.9, 3.0} // statically heavy
	opts := Grid.withDefaults(Options{Schedulers: []string{"SWRPT"}, Runs: 1, TargetJobs: 8})

	if Grid.pointWeight(opts, cheap) >= Grid.pointWeight(opts, heavy) {
		t.Fatalf("static weights: cheap %g >= heavy %g",
			Grid.pointWeight(opts, cheap), Grid.pointWeight(opts, heavy))
	}
	opts.MeasuredSeconds = map[string]float64{Grid.key(cheap): 100, Grid.key(heavy): 1}
	if Grid.pointWeight(opts, cheap) != 100 || Grid.pointWeight(opts, heavy) != 1 {
		t.Fatalf("measured weights not used: cheap %g, heavy %g",
			Grid.pointWeight(opts, cheap), Grid.pointWeight(opts, heavy))
	}

	// One run per point would put both points in a single shard; a full
	// shard of runs per point splits them.
	points := []GridPoint{heavy, cheap}
	opts.Runs = shardSize
	order := Grid.shardOrder(points, opts)
	if len(order) != 2 || order[0] != 1 {
		t.Fatalf("dispatch order %v: measured-slow point's shard must go first", order)
	}
}

// TestGridMeasuresSeconds: with a Clock injected, a real grid pass must
// record positive per-instance Seconds and a non-empty sidecar; without
// one, Seconds stays zero.
func TestGridMeasuresSeconds(t *testing.T) {
	points := gridTestPoints()[:1]
	opts := gridTestOptions(2)
	opts.Schedulers = []string{"SWRPT", "SRPT"}
	var tick int64
	opts.Clock = func() int64 { tick += 1e6; return tick } // 1ms per read
	results := Grid.Run(points, opts)
	for i, r := range results {
		if r.Jobs > 0 && r.Seconds <= 0 {
			t.Fatalf("instance %d: Seconds = %v with Clock set", i, r.Seconds)
		}
	}
	var buf bytes.Buffer
	if err := Grid.WritePointTimes(&buf, results); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 1+len(points) {
		t.Fatalf("sidecar has %d lines, want %d", lines, 1+len(points))
	}

	opts.Clock = nil
	for i, r := range Grid.Run(points, opts) {
		if r.Seconds != 0 {
			t.Fatalf("instance %d: Seconds = %v without Clock", i, r.Seconds)
		}
	}
}

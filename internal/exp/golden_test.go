package exp

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current code")

// checkGolden compares got against testdata/name.golden (or rewrites the
// file under -update).
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("%s report differs from %s:\n%s\nwant:\n%s", name, path, got, want)
	}
}

// TestClusterGoldenTables pins both rendered reports of the cluster
// family's default grids, from a live run and from the CSV that run wrote
// read back, so any change to seeds, placements, the fault loop, the CSV
// encoding or the views shows up as a byte diff.
func TestClusterGoldenTables(t *testing.T) {
	for _, tc := range []struct {
		name       string
		grid       []ClusterPoint
		schedulers []string
		render     func([]ClusterResult, []string) string
	}{
		{"cluster", DefaultClusterGrid(), DefaultClusterSchedulers(), RenderClusterTables},
		{"faults", DefaultFaultGrid(), []string{"SWRPT"}, RenderFaultTables},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := ClusterOptions{Runs: 2, TargetJobs: 8, Seed: 1, Schedulers: tc.schedulers}
			var buf bytes.Buffer
			results, err := RunClusterCSV(&buf, tc.grid, opts)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, tc.name, tc.render(results, tc.schedulers))
			back, err := ReadClusterCSV(&buf)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, tc.name, tc.render(back, tc.schedulers))
		})
	}
}

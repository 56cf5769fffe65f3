//go:build !race

// The decision fingerprints hash whole grid passes, which take minutes
// under the race detector; TestGridWorkerInvariance still covers the
// worker pool in that lane.

package exp

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"stretchsched/internal/core"
)

// The fingerprints pin what the paper reproduction outputs: one FNV-64a
// line per (grid point, scheduler) over that scheduler's CSV row for the
// whole Tables 1–16 grid, and the Figure 3 CSV bytes, both at a small
// setting. A change that moves one scheduler's stretch on one point fails
// here and names the point and the scheduler. A change that alters
// decisions on purpose re-pins them once with -update and lists the moved
// lines.
//
// The goldens are amd64-pinned: they hash float output, and the Go
// compiler fuses multiply-adds on arm64, which moves low-order bits.

// TestGridFingerprint runs all 162 points under the Table 1 schedulers and
// checks the per-(point, scheduler) row digests against
// testdata/grid_fingerprint.golden. On the same results it asserts the
// invariant that float Offline's max-stretch is never beaten: on every
// instance it is at most every other scheduler's times (1 + 1e-6), the
// exact-verification lane's default tolerance.
func TestGridFingerprint(t *testing.T) {
	opts := Options{Runs: 1, TargetJobs: 10, Seed: 1}
	var buf bytes.Buffer
	results, err := Grid.RunCSV(&buf, DefaultGrid(), opts)
	if err != nil {
		t.Fatal(err)
	}
	rows := strings.SplitAfter(buf.String(), "\n")
	var lines []string
	for _, row := range rows[1:] {
		if row == "" {
			continue
		}
		// With one run per point, a row is one (point, scheduler): its
		// first four fields are the point and the seventh the scheduler.
		f := strings.SplitN(row, ",", 8)
		h := fnv.New64a()
		h.Write([]byte(row))
		lines = append(lines, fmt.Sprintf("%s %s %016x", strings.Join(f[:4], ","), f[6], h.Sum64()))
	}
	sort.Strings(lines)
	if len(lines) < len(DefaultGrid()) {
		t.Fatalf("%d fingerprint lines for %d points", len(lines), len(DefaultGrid()))
	}
	checkFingerprint(t, "grid_fingerprint", lines)

	const tol = 1e-6
	for _, res := range results {
		for _, err := range res.Errs {
			t.Errorf("%v run %d: %v", res.Point, res.Run, err)
		}
		off, ok := res.MaxStretch["Offline"]
		if !ok || math.IsNaN(off) {
			continue
		}
		for _, name := range core.Table1Names() {
			other, ok := res.MaxStretch[name]
			if !ok || math.IsNaN(other) {
				continue
			}
			if off > other*(1+tol) {
				t.Errorf("%v run %d: Offline max-stretch %.12g beaten by %s %.12g",
					res.Point, res.Run, off, name, other)
			}
		}
	}
}

// TestFigure3Fingerprint pins the Figure 3 CSV of a one-run sweep.
func TestFigure3Fingerprint(t *testing.T) {
	points, _ := RunFigure3(Fig3Options{Runs: 1, Seed: 1})
	var buf bytes.Buffer
	if err := WriteFigure3CSV(&buf, points); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "figure3", buf.String())
}

// checkFingerprint compares "key hash" lines against
// testdata/name.golden (or rewrites it under -update), naming every key
// whose hash moved, appeared or vanished.
func checkFingerprint(t *testing.T, name string, lines []string) {
	t.Helper()
	got := strings.Join(lines, "\n") + "\n"
	if *updateGolden {
		checkGolden(t, name, got)
		return
	}
	data, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	split := func(s string) map[string]string {
		m := map[string]string{}
		for _, l := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
			if i := strings.LastIndexByte(l, ' '); i >= 0 {
				m[l[:i]] = l[i+1:]
			}
		}
		return m
	}
	want, have := split(string(data)), split(got)
	var diffs []string
	for k, w := range want {
		if h, ok := have[k]; !ok {
			diffs = append(diffs, k+": missing")
		} else if h != w {
			diffs = append(diffs, k+": moved")
		}
	}
	for k := range have {
		if _, ok := want[k]; !ok {
			diffs = append(diffs, k+": new")
		}
	}
	sort.Strings(diffs)
	if len(diffs) > 0 {
		t.Fatalf("%d fingerprint lines differ from testdata/%s.golden:\n%s",
			len(diffs), name, strings.Join(diffs, "\n"))
	}
}

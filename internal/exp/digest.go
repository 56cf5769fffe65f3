package exp

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"sort"
)

// Per-point row digests are the nightly merge's integrity check. The matrix
// merge already asserts the total row count against a -dryrun pass, which
// catches truncation but not corruption: a metric field mangled in an
// artifact upload, a shard CSV concatenated twice, or rows reordered across
// points would all keep the count intact and silently poison the rendered
// tables. Each shard therefore writes, next to its CSV, one FNV-64a digest
// over the exact CSV row bytes of every grid point it ran (a point's rows
// never span shards: ShardGrid shards by point). The merge job recomputes
// the same digests from the merged CSV via -fromcsv and compares the sorted
// line sets — any altered, lost, duplicated or misattributed row changes
// its point's digest.

// pointKey is the digest line key: the point's CSV coordinate fields.
func pointKey(p GridPoint) string {
	return fmt.Sprintf("%d,%d,%s,%s",
		p.Sites, p.Databanks, formatFloat(p.Availability), formatFloat(p.Density))
}

// digestLines is the digest core shared by the experiment families: for
// each of n results it encodes the result's CSV rows (via write, exactly
// as the family's CSV writer does), folds the bytes into the FNV-64a
// accumulator of the result's point key, and returns the sorted
// "key fnv64a" lines.
func digestLines(n int, key func(i int) string, write func(i int, cw *csv.Writer) error) ([]string, error) {
	hs := map[string]hash.Hash64{}
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		buf.Reset()
		cw := csv.NewWriter(&buf)
		if err := write(i, cw); err != nil {
			return nil, err
		}
		cw.Flush()
		if err := cw.Error(); err != nil {
			return nil, err
		}
		// A result that produced no rows at all (generation failure,
		// zero-job instances) must not get a digest line: the merge-side
		// recomputation reads rows back from the merged CSV and would never
		// see the point, so an empty-input digest here could only ever
		// produce a spurious mismatch.
		if buf.Len() == 0 {
			continue
		}
		k := key(i)
		h, ok := hs[k]
		if !ok {
			h = fnv.New64a()
			hs[k] = h
		}
		h.Write(buf.Bytes())
	}
	lines := make([]string, 0, len(hs))
	for key, h := range hs { //stretch:order-ok — collect-then-sort, two lines down
		lines = append(lines, fmt.Sprintf("%s %016x", key, h.Sum64()))
	}
	sort.Strings(lines)
	return lines, nil
}

// PointDigests returns one "sites,dbs,avail,density fnv64a" line per grid
// point present in results, sorted, each digesting the point's CSV rows
// (all runs, all schedulers, in row order) exactly as WriteResultsCSV
// encodes them. schedulers must match the list the rows were produced
// with; a mismatch shows up as a digest mismatch, which is the desired
// failure mode for a misconfigured merge.
func PointDigests(results []InstanceResult, schedulers []string) ([]string, error) {
	return digestLines(len(results),
		func(i int) string { return pointKey(results[i].Point) },
		func(i int, cw *csv.Writer) error { return writeResultRows(cw, &results[i], schedulers) })
}

// WritePointDigests writes PointDigests lines to w, one per line.
func WritePointDigests(w io.Writer, results []InstanceResult, schedulers []string) error {
	lines, err := PointDigests(results, schedulers)
	return writeDigestLines(w, lines, err)
}

// writeDigestLines writes digest lines to w, one per line, or returns the
// error that computing them produced.
func writeDigestLines(w io.Writer, lines []string, err error) error {
	if err != nil {
		return err
	}
	for _, line := range lines {
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	return nil
}

package exp

import (
	"bytes"
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
// over the exact CSV row bytes of every point it ran (a point's rows never
// span shards: ShardPoints shards by point). The merge job recomputes the
// same digests from the merged CSV via -fromcsv and compares the sorted
// line sets — any altered, lost, duplicated or misattributed row changes
// its point's digest.

// Digests returns one "<point CSV fields> fnv64a" line per point present
// in results, sorted, each digesting the point's CSV rows (all runs, all
// schedulers, in row order) exactly as WriteCSV encodes them. schedulers
// must match the list the rows were produced with; a mismatch shows up as
// a digest mismatch, which is the desired failure mode for a misconfigured
// merge.
func (f *Family[P]) Digests(results []Result[P], schedulers []string) ([]string, error) {
	hs := map[string]hash.Hash64{}
	var buf bytes.Buffer
	for i := range results {
		buf.Reset()
		if err := f.encodeShard(&buf, results[i:i+1], schedulers); err != nil {
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
		k := f.key(results[i].Point)
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

// WriteDigests writes the Digests lines to w, one per line.
func (f *Family[P]) WriteDigests(w io.Writer, results []Result[P], schedulers []string) error {
	lines, err := f.Digests(results, schedulers)
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

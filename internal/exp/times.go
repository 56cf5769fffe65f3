package exp

import (
	"encoding/csv"
	"io"
	"slices"
)

// The timing sidecar closes the dispatch-order feedback loop: a pass run
// with Options.Clock measures per-instance scheduler wall time,
// WritePointTimes sums it per point into a CSV next to the results CSV,
// and a later pass loads it back (ReadPointTimes) into
// Options.MeasuredSeconds, where dispatch prefers observed cost over the
// family's static estimate. Timing lives in this separate stream — not
// the results CSV — because the results bytes are pinned by worker-count
// invariance and per-point digests, and wall time is exactly the kind of
// nondeterminism they must never contain.

// timesHeader is the column layout of the family's timing sidecar.
func (f *Family[P]) timesHeader() []string {
	return append(slices.Clip(f.pointCols), "seconds")
}

// WritePointTimes writes the measured seconds of results summed per point,
// one row per point in order of first appearance. Points whose instances
// carried no measurement (no Clock, -fromcsv results) are omitted.
func (f *Family[P]) WritePointTimes(w io.Writer, results []Result[P]) error {
	sum := map[P]float64{}
	var points []P
	for i := range results {
		r := &results[i]
		if r.Seconds <= 0 {
			continue
		}
		if _, ok := sum[r.Point]; !ok {
			points = append(points, r.Point)
		}
		sum[r.Point] += r.Seconds
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(f.timesHeader()); err != nil {
		return err
	}
	for _, p := range points {
		if err := cw.Write(append(f.format(p), formatFloat(sum[p]))); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadPointTimes parses a timing sidecar back into the MeasuredSeconds map
// a subsequent pass dispatches by. Duplicate points sum, so concatenated
// per-shard sidecars merge like the results CSVs do.
func (f *Family[P]) ReadPointTimes(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	n := len(f.pointCols)
	err := readCSV(r, f.name+" times CSV", f.timesHeader(), func(c *fields) error {
		p, secs := f.parse(c), c.num(n)
		if c.err != nil {
			return c.err
		}
		out[f.key(p)] += secs
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

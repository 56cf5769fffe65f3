package exp

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// header is the column layout of the family's raw per-instance metric
// dump: the point's columns, then one row per scheduler per instance.
func (f *Family[P]) header() []string {
	h := append(slices.Clip(f.pointCols), "run", "jobs", "scheduler", "max_stretch", "sum_stretch")
	if f.faultCols {
		h = append(h, "retries", "lost_work")
	}
	return h
}

// writeRows encodes one instance's per-scheduler rows; a scheduler the
// instance has no entry for gets no row.
func (f *Family[P]) writeRows(cw *csv.Writer, r *Result[P], schedulers []string) error {
	for _, name := range schedulers {
		maxS, ok := r.MaxStretch[name]
		if !ok {
			continue
		}
		row := append(f.format(r.Point),
			strconv.Itoa(r.Run),
			strconv.Itoa(r.Jobs),
			name,
			formatFloat(maxS),
			formatFloat(r.SumStretch[name]))
		if f.faultCols {
			row = append(row, strconv.Itoa(r.Retries[name]), formatFloat(r.LostWork[name]))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	return nil
}

// encodeShard encodes results' rows (header-less) into w, surfacing both
// row-encode and flush errors. It is the per-shard encode step of RunCSV
// and the per-instance step of the digests.
func (f *Family[P]) encodeShard(w io.Writer, results []Result[P], schedulers []string) error {
	cw := csv.NewWriter(w)
	for i := range results {
		if err := f.writeRows(cw, &results[i], schedulers); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// writeHeader writes one CSV header row to w.
func writeHeader(w io.Writer, header []string) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSV dumps raw per-instance metrics (one row per scheduler per
// instance) for external analysis — the harness's tables are aggregates;
// this is the underlying data.
func (f *Family[P]) WriteCSV(w io.Writer, results []Result[P], schedulers []string) error {
	if err := writeHeader(w, f.header()); err != nil {
		return err
	}
	return f.encodeShard(w, results, schedulers)
}

// csvStream is RunCSV's in-order shard flusher: completed shards hand
// their encoded bytes to add, which flushes to the underlying writer as
// soon as every earlier shard has been written, so task order — and
// therefore the output bytes — is identical for any worker count and any
// dispatch order. Encoded shards wait in memory (a few MB at paper scale)
// until the in-order cursor reaches them, so a run killed midway keeps
// only the contiguous task-order prefix that happened to complete.
type csvStream struct {
	w       io.Writer
	mu      sync.Mutex
	pending map[int][]byte // encoded shards not yet flushable
	next    int            // lowest shard index not yet written
	err     error          // the first encode or write error
}

// add hands shard si's encoded bytes, or its encode error, to the
// in-order flush. The first error sticks and nothing is written after it:
// a shard that fails to encode surfaces as the run's error, never as a
// silently truncated CSV.
func (s *csvStream) add(si int, b []byte, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil {
		s.err = err
	}
	s.pending[si] = b
	for b, ok := s.pending[s.next]; ok; b, ok = s.pending[s.next] {
		delete(s.pending, s.next)
		if s.err == nil {
			_, s.err = s.w.Write(b)
		}
		s.next++
	}
}

// RunCSV runs the family over points and streams the raw per-instance
// metrics to w while the run is still going: each worker encodes its
// shard's rows while the results are hot and hands them to the in-order
// csvStream flush. The results are returned as from Run, together with the
// first encode or write error (the run always completes).
func (f *Family[P]) RunCSV(w io.Writer, points []P, o Options) ([]Result[P], error) {
	o = f.withDefaults(o)
	if err := writeHeader(w, f.header()); err != nil {
		return nil, err
	}
	stream := &csvStream{w: w, pending: map[int][]byte{}}
	results := f.run(points, o, func(si int, shard []Result[P]) {
		var buf bytes.Buffer
		err := f.encodeShard(&buf, shard, o.Schedulers)
		if err != nil {
			err = fmt.Errorf("exp: encoding %s shard %d: %w", f.name, si, err)
		}
		stream.add(si, buf.Bytes(), err)
	})
	return results, stream.err
}

// fields reads one CSV row's typed columns: the first unparsable column
// sets err, and later ones read as zero.
type fields struct {
	row, header []string
	what        string // the file kind, for errors
	line        int
	err         error
}

func (c *fields) check(col int, err error) {
	if err != nil && c.err == nil {
		c.err = fmt.Errorf("exp: %s line %d: bad %s: %w", c.what, c.line, c.header[col], err)
	}
}

func (c *fields) integer(col int) int {
	v, err := strconv.Atoi(c.row[col])
	c.check(col, err)
	return v
}

func (c *fields) num(col int) float64 {
	v, err := parseFloat(c.row[col])
	c.check(col, err)
	return v
}

// readCSV reads a CSV whose header must equal header, calling row for each
// data row with its typed-column reader; row's returned error, or the
// first bad column, stops the read.
func readCSV(r io.Reader, what string, header []string, row func(c *fields) error) error {
	cr := csv.NewReader(r)
	got, err := cr.Read()
	if err != nil {
		return fmt.Errorf("exp: %s header: %w", what, err)
	}
	if !slices.Equal(got, header) {
		return fmt.Errorf("exp: %s header is %q, want %q",
			what, strings.Join(got, ","), strings.Join(header, ","))
	}
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("exp: %s line %d: %w", what, line, err)
		}
		c := fields{row: rec, header: header, what: what, line: line}
		if err := row(&c); err != nil {
			return err
		}
	}
}

// instKey identifies one instance of a read-back dump.
type instKey[P comparable] struct {
	point P
	run   int
}

// ReadCSV parses a raw metric dump produced by WriteCSV or RunCSV (or by
// concatenating per-shard dumps, as the nightly matrix merge does) back
// into Results, grouping the per-scheduler rows of one instance by (point,
// run). Row order within an instance is preserved; instances appear in
// first-row order. A dump in any other column layout is rejected at the
// header. It is the read side that lets tables be aggregated from an
// existing CSV instead of a live pass.
func (f *Family[P]) ReadCSV(r io.Reader) ([]Result[P], error) {
	var results []Result[P]
	index := map[instKey[P]]int{}
	n := len(f.pointCols)
	err := readCSV(r, f.name+" CSV", f.header(), func(c *fields) error {
		key := instKey[P]{f.parse(c), c.integer(n)}
		jobs := c.integer(n + 1)
		maxS, sumS := c.num(n+3), c.num(n+4)
		retries, lost := 0, 0.0
		if f.faultCols {
			retries, lost = c.integer(n+5), c.num(n+6)
		}
		if c.err != nil {
			return c.err
		}
		ri, ok := index[key]
		if !ok {
			ri = len(results)
			index[key] = ri
			results = append(results, newResult(key.point, key.run, jobs))
		}
		results[ri].record(c.row[n+2], maxS, sumS, retries, lost)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// parseFloat reads a formatFloat value, mapping "NA" back to NaN.
func parseFloat(s string) (float64, error) {
	if s == "NA" {
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// WriteFigure3CSV dumps the Figure 3 series.
func WriteFigure3CSV(w io.Writer, points []Fig3Point) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"density", "opt_degradation_pct",
		"nonopt_degradation_pct", "sum_gain_pct", "n"}); err != nil {
		return err
	}
	for _, p := range points {
		if err := cw.Write([]string{
			formatFloat(p.Density),
			formatFloat(p.OptDegradation),
			formatFloat(p.NonOptDegradation),
			formatFloat(p.SumGain),
			strconv.Itoa(p.N),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func formatFloat(f float64) string {
	if math.IsNaN(f) {
		return "NA"
	}
	return fmt.Sprintf("%g", f)
}

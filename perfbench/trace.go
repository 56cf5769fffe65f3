package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// span is one timed call at a layer boundary, recorded from outside the
// program: around a call into a public entry point, or inside a wrapper of
// an interface the program accepts. Times are nanoseconds since the
// tracer's base instant.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index of the enclosing span, -1 for a root
	Req    int64  `json:"req"`    // a Submit's sequence number or a world's index
}

// tracer keeps spans in memory until the run ends. Spans nest by call
// order: a span opened while another is open becomes its child. The
// client's calls are safe on a nil tracer, which records nothing.
type tracer struct {
	base  time.Time
	spans []span
	open  []int32
	req   int64 // request id stamped on new spans
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) parent() int32 {
	if n := len(t.open); n > 0 {
		return t.open[n-1]
	}
	return -1
}

// setReq stamps the request id of the spans that follow.
func (t *tracer) setReq(id int) {
	if t != nil {
		t.req = int64(id)
	}
}

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: t.now(), End: -1, Parent: t.parent(), Req: t.req})
	t.open = append(t.open, i)
	return i
}

// end closes span i, the innermost open span, and returns its end time.
func (t *tracer) end(i int32) int64 {
	if t == nil {
		return 0
	}
	t.spans[i].End = t.now()
	t.open = t.open[:len(t.open)-1]
	return t.spans[i].End
}

// add records an already measured interval under the innermost open span.
func (t *tracer) add(name string, start, end int64) {
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: t.parent(), Req: t.req})
}

// reset drops every recorded span; open spans must all be closed.
func (t *tracer) reset() { t.spans = t.spans[:0] }

// selfTimes returns each span's covered time — the length of the union of
// its children's intervals clipped to its own — and its self time, the
// span's duration minus that covered part. Children may overlap each other
// or run past their parent; neither is counted twice or outside the parent,
// so self is never negative and self + covered equals the duration.
func selfTimes(spans []span) (self, covered []int64) {
	kids := make([][]int32, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], int32(i))
		}
	}
	self = make([]int64, len(spans))
	covered = make([]int64, len(spans))
	var iv [][2]int64
	for p, s := range spans {
		iv = iv[:0]
		for _, c := range kids[p] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var cov, curLo, curHi int64
		for k, x := range iv {
			switch {
			case k == 0:
				curLo, curHi = x[0], x[1]
			case x[0] > curHi:
				cov += curHi - curLo
				curLo, curHi = x[0], x[1]
			case x[1] > curHi:
				curHi = x[1]
			}
		}
		if len(iv) > 0 {
			cov += curHi - curLo
		}
		covered[p] = cov
		self[p] = s.End - s.Start - cov
	}
	return self, covered
}

// layerTimes sums, per span name, the total duration and the self time of
// the spans, in milliseconds.
func layerTimes(spans []span) (total, self map[string]float64) {
	st, _ := selfTimes(spans)
	total, self = map[string]float64{}, map[string]float64{}
	for i, s := range spans {
		total[s.Name] += nsToMs(s.End - s.Start)
		self[s.Name] += nsToMs(st[i])
	}
	return total, self
}

func nsToMs(ns int64) float64 { return float64(ns) / 1e6 }

// writeSpans writes one JSON object per span, in recording order.
func writeSpans(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// writeSpanFile writes the spans to path, replacing any earlier file.
func writeSpanFile(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeSpans(f, spans); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

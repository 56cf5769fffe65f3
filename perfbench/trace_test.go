package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"

	"stretchsched/internal/model"
	"stretchsched/internal/serve"
)

// TestSelfTimes builds a span tree with a nested child, children that
// overlap each other and a child that runs past its parent.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "a.inner", Start: 15, End: 20, Parent: 1}, // nested in a
		{Name: "b", Start: 25, End: 50, Parent: 0},       // overlaps a
		{Name: "c", Start: 40, End: 45, Parent: 0},       // inside b
		{Name: "d", Start: 90, End: 130, Parent: 0},      // runs past root
		{Name: "other", Start: 200, End: 260, Parent: -1},
	}
	self, covered := selfTimes(spans)
	want := []struct{ self, covered int64 }{
		{50, 50}, // [10,50] and [90,100] covered
		{15, 5},
		{5, 0},
		{25, 0},
		{5, 0},
		{40, 0},
		{60, 0},
	}
	for i, s := range spans {
		if self[i] < 0 {
			t.Errorf("%s: negative self time %d", s.Name, self[i])
		}
		if got := self[i] + covered[i]; got != s.End-s.Start {
			t.Errorf("%s: self %d + covered %d = %d, span lasts %d", s.Name, self[i], covered[i], got, s.End-s.Start)
		}
		if self[i] != want[i].self || covered[i] != want[i].covered {
			t.Errorf("%s: self %d covered %d, want %d and %d", s.Name, self[i], covered[i], want[i].self, want[i].covered)
		}
	}

	total, selfMs := layerTimes(spans)
	if total["root"] != 100e-6 || selfMs["root"] != 50e-6 || total["a"] != 20e-6 {
		t.Errorf("layer times: total %v self %v", total, selfMs)
	}
}

// TestTracerNesting checks that spans opened inside an open span become
// its children and that added intervals attach to the innermost open span.
func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	tr.setReq(7)
	outer := tr.begin("outer")
	inner := tr.begin("inner")
	tr.end(inner)
	tr.add("gap", 1, 2)
	tr.end(outer)
	root := tr.begin("next")
	tr.end(root)

	want := []int32{-1, outer, outer, -1}
	for i, s := range tr.spans {
		if s.Parent != want[i] || s.Req != 7 {
			t.Errorf("span %d %s: parent %d req %d, want parent %d req 7", i, s.Name, s.Parent, s.Req, want[i])
		}
		if s.End < s.Start {
			t.Errorf("span %d %s ends before it starts", i, s.Name)
		}
	}
	var nilTracer *tracer
	nilTracer.setReq(1)
	nilTracer.end(nilTracer.begin("ignored"))
}

// TestSpanFile checks that the span file holds one decodable JSON object
// per span, in recording order.
func TestSpanFile(t *testing.T) {
	spans := []span{
		{Name: "serve.submit", Start: 5, End: 9, Parent: -1, Req: 3},
		{Name: "policy.on_event", Start: 6, End: 7, Parent: 0, Req: 3},
	}
	var buf bytes.Buffer
	if err := writeSpans(&buf, spans); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var got []span
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		got = append(got, s)
	}
	if len(got) != len(spans) || got[0] != spans[0] || got[1] != spans[1] {
		t.Errorf("read back %+v, wrote %+v", got, spans)
	}
}

// TestProbesDoNotSteer replays a short stream and a slice of the fault
// grid with and without probes: the decisions must be identical.
func TestProbesDoNotSteer(t *testing.T) {
	b := &serveBench{name: "probe-test", policy: "SWRPT", operator: true, dir: t.TempDir(),
		gen: func(seed int64) (*model.Platform, []serve.SubmitRequest, []int, error) {
			p, sizes, err := platformOf(grippsShape)
			if err != nil {
				return nil, nil, nil, err
			}
			return p, sustainedStream(p, sizes, grippsShape.Density, 1200, seed), nil, nil
		}}
	c := &clusterBench{}
	for _, w := range []bench{b, c} {
		if err := w.setup(5); err != nil {
			t.Fatal(err)
		}
		if cb, ok := w.(*clusterBench); ok {
			// One world per grid point keeps the test short.
			var few []worldInput
			for i := 0; i < len(cb.inputs); i += worldsPerPoint {
				few = append(few, cb.inputs[i])
			}
			cb.inputs = few
		}
		// Alternate as a traced run does: untraced, traced, untraced, traced.
		passes := []passOut{w.pass()}
		for _, tr := range []*tracer{newTracer(), nil, newTracer()} {
			if err := w.prepare(tr); err != nil {
				t.Fatal(err)
			}
			passes = append(passes, w.pass())
		}
		for i, p := range passes {
			if p.failed != 0 {
				t.Errorf("%T pass %d: %d failed: %v", w, i, p.failed, p.problems)
			}
			if p.digest != passes[0].digest || p.stretch != passes[0].stretch {
				t.Errorf("%T pass %d decided differently: digest %x vs %x, stretch %v vs %v",
					w, i, p.digest, passes[0].digest, p.stretch, passes[0].stretch)
			}
			if traced := i%2 == 1; traced != (len(p.layers) > 0) {
				t.Errorf("%T pass %d: traced %v but %d layer metrics", w, i, traced, len(p.layers))
			}
		}
	}
}

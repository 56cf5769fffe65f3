package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"
)

// bench is one benchmark workload. Its timed phase is a pass: one
// replay of the whole input from a single client goroutine, followed by
// untimed checks of the outputs. Every pass of a run replays the same
// input, so counts, stretch values and output digests repeat exactly.
type bench interface {
	// setup generates the inputs from the seed and builds every object the
	// first pass uses; it is what setup_s times.
	setup(seed int64) error
	// prepare builds the objects of the next pass, with probes recording
	// into tr, or without probes when tr is nil. Untimed.
	prepare(tr *tracer) error
	// pass runs the timed phase once on the prepared objects and checks
	// its outputs.
	pass() passOut
}

// passOut is what one pass measured and checked.
type passOut struct {
	dur       time.Duration // timed phase
	jobs      int           // jobs completed
	latMs     []float64     // per-operation latency samples
	stretch   [2]float64    // max, mean
	digest    uint64        // digest of the decisions the program output
	attempted int
	failed    int
	problems  []string // failed checks and operations, for the report
	layers    map[string]float64
	traced    bool
}

func (p passOut) jobsPerSec() float64 { return float64(p.jobs) / p.dur.Seconds() }

// fail records a failed operation or check.
func (p *passOut) fail(format string, args ...any) {
	p.failed++
	if len(p.problems) < 10 {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

// check records one output check.
func (p *passOut) check(ok bool, format string, args ...any) {
	p.attempted++
	if !ok {
		p.fail(format, args...)
	}
}

// Set-up is repeated and its median reported: one set-up takes only a few
// milliseconds on the serve workloads, too short to read once.
const (
	minSetups    = 5
	maxSetups    = 41
	setupSeconds = 0.5
)

// runStats is everything a run measured.
type runStats struct {
	setupS []float64
	passes []passOut
	spans  []span // the last traced pass
}

// measure sets the workload up repeatedly, then runs passes until the next
// one would overrun the budget. Traced runs alternate untraced and traced
// passes, so both see the same host conditions.
func measure(w bench, seed int64, budget time.Duration, traced bool) (*runStats, error) {
	rs := &runStats{}
	spent := 0.0
	for len(rs.setupS) < minSetups || (spent < setupSeconds && len(rs.setupS) < maxSetups) {
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(seed); err != nil {
			return nil, err
		}
		s := time.Since(t0).Seconds()
		rs.setupS = append(rs.setupS, s)
		spent += s
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	start := time.Now()
	for i := 0; ; i++ {
		t0 := time.Now()
		tracedPass := traced && i%2 == 1
		if i > 0 {
			var ptr *tracer
			if tracedPass {
				tr.reset()
				ptr = tr
			}
			if err := w.prepare(ptr); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		p := w.pass()
		p.traced = tracedPass
		rs.passes = append(rs.passes, p)
		wall := time.Since(t0)
		done := !traced || i >= 1
		if done && time.Since(start)+wall > budget {
			break
		}
	}
	if traced {
		rs.spans = tr.spans
	}
	return rs, nil
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// Package policy implements the priority-list heuristics of §4: FCFS, SPT,
// SWPT, SRPT, SWRPT, deadline (EDF) scheduling, and the Bender02
// pseudo-stretch rule. Each is a sim.Policy; on uniform platforms the list
// rule of §3 makes them exactly the classical preemptive uni-processor
// algorithms (Lemma 1), and on restricted-availability platforms they
// degrade gracefully via the greedy spatial rule.
//
// Sizes are compared as alone times p*_j rather than raw work, so that the
// heuristics are meaningful on heterogeneous platforms; on a uni-processor
// p*_j = p_j and the definitions coincide with the literature.
package policy

import (
	"encoding/json"
	"fmt"
	"math"

	"stretchsched/internal/model"
	"stretchsched/internal/sim"
)

// base provides no-op lifecycle hooks for stateless policies.
type base struct{}

func (base) Init(*model.Instance) {}
func (base) OnEvent(*sim.Ctx)     {}

// FCFS serves jobs in release order. It minimises max-flow on one processor
// (Bender et al. [2]).
type FCFS struct{ base }

func (FCFS) Name() string { return "FCFS" }

func (FCFS) Less(ctx *sim.Ctx, a, b model.JobID) bool {
	ra, rb := ctx.Inst.Jobs[a].Release, ctx.Inst.Jobs[b].Release
	if ra != rb {
		return ra < rb
	}
	return a < b
}

// SPT serves the job with the shortest total processing time first.
type SPT struct{ base }

func (SPT) Name() string { return "SPT" }

func (SPT) Less(ctx *sim.Ctx, a, b model.JobID) bool {
	return ctx.Inst.AloneTime(a) < ctx.Inst.AloneTime(b)
}

// SWPT is Smith's ratio rule (shortest weighted processing time) for stretch
// weights w_j = 1/W_j: it orders by p_j/w_j = p*_j². The order coincides
// with SPT, as the paper notes; it is kept as a distinct named heuristic for
// completeness of the comparison.
type SWPT struct{ base }

func (SWPT) Name() string { return "SWPT" }

func (SWPT) Less(ctx *sim.Ctx, a, b model.JobID) bool {
	pa, pb := ctx.Inst.AloneTime(a), ctx.Inst.AloneTime(b)
	return pa*pa < pb*pb
}

// SRPT serves the job with the shortest remaining processing time. It is
// optimal for sum-flow on one processor and 2-competitive for sum-stretch.
type SRPT struct{ base }

func (SRPT) Name() string { return "SRPT" }

func (SRPT) Less(ctx *sim.Ctx, a, b model.JobID) bool {
	return ctx.RemainingAloneTime(a) < ctx.RemainingAloneTime(b)
}

// SWRPT is the shortest weighted remaining processing time rule: for
// stretch weights it serves the job minimising p*_j · ρ_j(t). The paper
// proves its competitive ratio for sum-stretch cannot beat 2 (Theorem 2)
// yet finds it the best sum-stretch heuristic in practice.
type SWRPT struct{ base }

func (SWRPT) Name() string { return "SWRPT" }

func (SWRPT) Less(ctx *sim.Ctx, a, b model.JobID) bool {
	ka := ctx.Inst.AloneTime(a) * ctx.RemainingAloneTime(a)
	kb := ctx.Inst.AloneTime(b) * ctx.RemainingAloneTime(b)
	return ka < kb
}

// EDF serves the job with the earliest deadline. Deadlines are supplied by
// the caller (typically d̄_j = r_j + S·p*_j for a stretch objective S);
// jobs without an entry sort last. Ties break toward the smaller p*_j so
// tight small jobs preempt.
type EDF struct {
	base
	Deadline []float64
}

// NewEDF returns an EDF policy over the given per-job deadlines.
func NewEDF(deadline []float64) *EDF { return &EDF{Deadline: deadline} }

func (*EDF) Name() string { return "EDF" }

func (e *EDF) deadlineOf(j model.JobID) float64 {
	if int(j) < len(e.Deadline) {
		return e.Deadline[j]
	}
	return math.Inf(1)
}

func (e *EDF) Less(ctx *sim.Ctx, a, b model.JobID) bool {
	da, db := e.deadlineOf(a), e.deadlineOf(b)
	if da != db {
		return da < db
	}
	return ctx.Inst.AloneTime(a) < ctx.Inst.AloneTime(b)
}

// Bender02 is the O(√∆)-competitive pseudo-stretch heuristic of Bender,
// Muthukrishnan and Rajaraman (SODA'02, [3] in the paper): serve the job of
// the largest pseudo-stretch
//
//	Ŝ_j(t) = (t−r_j)/√∆  if p̂_j ≤ √∆,   (t−r_j)/∆  otherwise,
//
// where p̂_j ∈ [1, ∆] is the job size normalised to the smallest size. The
// ratio ∆ is refreshed online from the jobs seen so far.
type Bender02 struct {
	minAlone float64
	maxAlone float64
}

// NewBender02 returns a fresh Bender02 policy.
func NewBender02() *Bender02 { return &Bender02{} }

func (*Bender02) Name() string { return "Bender02" }

func (p *Bender02) Init(inst *model.Instance) {
	p.minAlone, p.maxAlone = math.Inf(1), 0
}

func (p *Bender02) OnEvent(ctx *sim.Ctx) {
	for j := range ctx.Released {
		if ctx.Released[j] {
			a := ctx.Inst.AloneTime(model.JobID(j))
			p.minAlone = math.Min(p.minAlone, a)
			p.maxAlone = math.Max(p.maxAlone, a)
		}
	}
}

func (p *Bender02) pseudo(ctx *sim.Ctx, j model.JobID) float64 {
	delta := math.Max(1, p.maxAlone/p.minAlone)
	sq := math.Sqrt(delta)
	norm := ctx.Inst.AloneTime(j) / p.minAlone
	age := ctx.Now - ctx.Inst.Jobs[j].Release
	if norm <= sq {
		return age / sq
	}
	return age / delta
}

func (p *Bender02) Less(ctx *sim.Ctx, a, b model.JobID) bool {
	sa, sb := p.pseudo(ctx, a), p.pseudo(ctx, b)
	if sa != sb {
		return sa > sb // larger pseudo-stretch first
	}
	return ctx.Inst.AloneTime(a) < ctx.Inst.AloneTime(b)
}

// aloneRange is the state of Bender02 and ST14 as a checkpoint carries it:
// the smallest and largest alone time seen. ST14 keeps no MaxAlone.
type aloneRange struct {
	MinAlone float64
	MaxAlone float64 `json:",omitempty"`
}

// State implements sim.StatefulPolicy: the alone times ∆ spans, which
// cover every job an OnEvent has seen, not only the live ones. It is nil
// before the first job, as for a fresh policy.
func (p *Bender02) State(*sim.Ctx) ([]byte, error) {
	if math.IsInf(p.minAlone, 1) {
		return nil, nil
	}
	return json.Marshal(aloneRange{MinAlone: p.minAlone, MaxAlone: p.maxAlone})
}

// RestoreState implements sim.StatefulPolicy. It refuses alone times that
// are not positive or a minimum above the maximum.
func (p *Bender02) RestoreState(state []byte, _ *sim.Ctx) error {
	var st aloneRange
	if err := json.Unmarshal(state, &st); err != nil {
		return fmt.Errorf("Bender02 state: %w", err)
	}
	if !(st.MinAlone > 0 && st.MinAlone <= st.MaxAlone) {
		return fmt.Errorf("Bender02 state: alone times [%v, %v] are not a positive range", st.MinAlone, st.MaxAlone)
	}
	p.minAlone, p.maxAlone = st.MinAlone, st.MaxAlone
	return nil
}

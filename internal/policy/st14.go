package policy

import (
	"encoding/json"
	"fmt"
	"math"

	"stretchsched/internal/model"
	"stretchsched/internal/sim"
)

// ST14 is our online reading of the Srivastav–Trystram total-stretch
// heuristic (PAPERS.md: "Total stretch minimization on single and identical
// parallel machines", arXiv 1404.6502). Their analysis partitions jobs into
// geometric size classes and shows total stretch is governed by how strictly
// small classes preempt large ones; the executable rule here is:
//
//  1. jobs are binned by alone time into classes k = ⌊log2(p*_j / p*_min)⌋,
//     with p*_min refreshed online from the jobs seen so far;
//  2. a strictly smaller class always precedes a larger one, so a stream of
//     short requests cannot be delayed by a long one regardless of how far
//     the long job has progressed (the point where it departs from SWRPT);
//  3. within a class, the SWRPT kernel p*_j · ρ_j(t) orders jobs, with
//     release date and ID as deterministic tie-breaks.
//
// On single-class instances it degenerates to SWRPT exactly.
type ST14 struct {
	minAlone float64
}

// NewST14 returns a fresh ST14 policy.
func NewST14() *ST14 { return &ST14{} }

func (*ST14) Name() string { return "ST14" }

func (p *ST14) Init(inst *model.Instance) {
	p.minAlone = math.Inf(1)
}

func (p *ST14) OnEvent(ctx *sim.Ctx) {
	for j := range ctx.Released {
		if ctx.Released[j] {
			p.minAlone = math.Min(p.minAlone, ctx.Inst.AloneTime(model.JobID(j)))
		}
	}
}

// State implements sim.StatefulPolicy: the smallest alone time seen, over
// every job an OnEvent has seen, not only the live ones. It is nil before
// the first job, as for a fresh policy.
func (p *ST14) State(*sim.Ctx) ([]byte, error) {
	if math.IsInf(p.minAlone, 1) {
		return nil, nil
	}
	return json.Marshal(aloneRange{MinAlone: p.minAlone})
}

// RestoreState implements sim.StatefulPolicy. It refuses an alone time
// that is not positive.
func (p *ST14) RestoreState(state []byte, _ *sim.Ctx) error {
	var st aloneRange
	if err := json.Unmarshal(state, &st); err != nil {
		return fmt.Errorf("ST14 state: %w", err)
	}
	if !(st.MinAlone > 0) {
		return fmt.Errorf("ST14 state: smallest alone time %v is not positive", st.MinAlone)
	}
	p.minAlone = st.MinAlone
	return nil
}

// class returns the geometric size class of job j relative to the smallest
// alone time observed so far.
func (p *ST14) class(ctx *sim.Ctx, j model.JobID) int {
	ratio := ctx.Inst.AloneTime(j) / p.minAlone
	if ratio <= 1 {
		return 0
	}
	return int(math.Floor(math.Log2(ratio)))
}

func (p *ST14) Less(ctx *sim.Ctx, a, b model.JobID) bool {
	ca, cb := p.class(ctx, a), p.class(ctx, b)
	if ca != cb {
		return ca < cb
	}
	ka := ctx.Inst.AloneTime(a) * ctx.RemainingAloneTime(a)
	kb := ctx.Inst.AloneTime(b) * ctx.RemainingAloneTime(b)
	if ka != kb {
		return ka < kb
	}
	ra, rb := ctx.Inst.Jobs[a].Release, ctx.Inst.Jobs[b].Release
	if ra != rb {
		return ra < rb
	}
	return a < b
}

package sim

import (
	"math"
	"math/rand"
	"testing"

	"stretchsched/internal/model"
)

// fcfs is a minimal local policy to avoid importing internal/policy (which
// would create an import cycle in tests via sim).
type fcfs struct{}

func (fcfs) Name() string         { return "fcfs" }
func (fcfs) Init(*model.Instance) {}
func (fcfs) OnEvent(*Ctx)         {}
func (fcfs) Less(ctx *Ctx, a, b model.JobID) bool {
	ra, rb := ctx.Inst.Jobs[a].Release, ctx.Inst.Jobs[b].Release
	if ra != rb {
		return ra < rb
	}
	return a < b
}

// srpt is a minimal dynamic policy for engine tests.
type srpt struct{}

func (srpt) Name() string         { return "srpt" }
func (srpt) Init(*model.Instance) {}
func (srpt) OnEvent(*Ctx)         {}
func (srpt) Less(ctx *Ctx, a, b model.JobID) bool {
	return ctx.RemainingAloneTime(a) < ctx.RemainingAloneTime(b)
}

// stretchFirst serves the largest current stretch (Now − r_j)/p*_j first,
// as Bender02's pseudo-stretch does. Jobs age at different rates, so jobs
// that did not run swap places as Now advances.
type stretchFirst struct{}

func (stretchFirst) Name() string         { return "stretch-first" }
func (stretchFirst) Init(*model.Instance) {}
func (stretchFirst) OnEvent(*Ctx)         {}
func (stretchFirst) Less(ctx *Ctx, a, b model.JobID) bool {
	sa := (ctx.Now - ctx.Inst.Jobs[a].Release) / ctx.Inst.AloneTime(a)
	sb := (ctx.Now - ctx.Inst.Jobs[b].Release) / ctx.Inst.AloneTime(b)
	return sa > sb
}

// oddReverse is SRPT whenever the active count is even and its reverse
// whenever it is odd, so the order an event starts from is often the
// opposite of the one it must reach.
type oddReverse struct{ odd bool }

func (p *oddReverse) Name() string         { return "odd-reverse" }
func (p *oddReverse) Init(*model.Instance) { p.odd = false }
func (p *oddReverse) OnEvent(ctx *Ctx)     { p.odd = len(ctx.Active())%2 == 1 }
func (p *oddReverse) Less(ctx *Ctx, a, b model.JobID) bool {
	if p.odd {
		a, b = b, a
	}
	return ctx.RemainingAloneTime(a) < ctx.RemainingAloneTime(b)
}

func uniInstance(t *testing.T, speeds []float64, jobs []model.Job) *model.Instance {
	t.Helper()
	p, err := model.Uniform(speeds)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := model.NewInstance(p, jobs)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestRunListSingleJob(t *testing.T) {
	inst := uniInstance(t, []float64{2}, []model.Job{{Release: 1, Size: 6, Databank: 0}})
	s, err := RunList(inst, fcfs{})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Completion[0]; math.Abs(got-4) > 1e-9 {
		t.Fatalf("completion = %v, want 4", got)
	}
	if err := s.Validate(inst, 0); err != nil {
		t.Fatal(err)
	}
}

func TestRunListUniformSharing(t *testing.T) {
	// Two machines (speed 1 and 3); a single job spreads over both.
	inst := uniInstance(t, []float64{1, 3}, []model.Job{{Release: 0, Size: 8, Databank: 0}})
	s, err := RunList(inst, fcfs{})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Completion[0]; math.Abs(got-2) > 1e-9 {
		t.Fatalf("completion = %v, want 2", got)
	}
}

func TestRunListFCFSSequence(t *testing.T) {
	// Uniform platform: FCFS serialises jobs on the equivalent processor.
	inst := uniInstance(t, []float64{1, 1}, []model.Job{
		{Release: 0, Size: 4, Databank: 0}, // runs [0,2) on both machines
		{Release: 1, Size: 2, Databank: 0}, // runs [2,3)
	})
	s, err := RunList(inst, fcfs{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Completion[0]-2) > 1e-9 || math.Abs(s.Completion[1]-3) > 1e-9 {
		t.Fatalf("completions = %v", s.Completion)
	}
	if err := s.Validate(inst, 0); err != nil {
		t.Fatal(err)
	}
}

func TestRunListSRPTPreempts(t *testing.T) {
	inst := uniInstance(t, []float64{1}, []model.Job{
		{Release: 0, Size: 10, Databank: 0},
		{Release: 2, Size: 1, Databank: 0},
	})
	s, err := RunList(inst, srpt{})
	if err != nil {
		t.Fatal(err)
	}
	// Small job preempts at t=2, finishes at 3; big job resumes, ends at 11.
	if math.Abs(s.Completion[1]-3) > 1e-9 || math.Abs(s.Completion[0]-11) > 1e-9 {
		t.Fatalf("completions = %v", s.Completion)
	}
}

func TestRunListRestrictedAvailability(t *testing.T) {
	// Machine 0 hosts db0 only; machine 1 hosts db1 only. Two jobs, one per
	// databank, run concurrently on disjoint machines.
	p, err := model.NewPlatform([]model.Machine{
		{Speed: 1, Databanks: []model.DatabankID{0}},
		{Speed: 2, Databanks: []model.DatabankID{1}},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := model.NewInstance(p, []model.Job{
		{Release: 0, Size: 3, Databank: 0},
		{Release: 0, Size: 4, Databank: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := RunList(inst, fcfs{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Completion[0]-3) > 1e-9 || math.Abs(s.Completion[1]-2) > 1e-9 {
		t.Fatalf("completions = %v", s.Completion)
	}
	if err := s.Validate(inst, 0); err != nil {
		t.Fatal(err)
	}
}

func TestRunListLowerPriorityUsesLeftoverMachines(t *testing.T) {
	// Job 0 (db0) only runs on machine 0; job 1 (db1) can use both machines
	// but has lower FCFS priority, so it gets only machine 1 while job 0 is
	// active.
	p, err := model.NewPlatform([]model.Machine{
		{Speed: 1, Databanks: []model.DatabankID{0, 1}},
		{Speed: 1, Databanks: []model.DatabankID{1}},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := model.NewInstance(p, []model.Job{
		{Release: 0, Size: 2, Databank: 0},
		{Release: 0, Size: 4, Databank: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := RunList(inst, fcfs{})
	if err != nil {
		t.Fatal(err)
	}
	// Job 0: machine 0 for [0,2). Job 1: machine 1 for [0,2), then both
	// machines: remaining 2 units at rate 2 → done at 3.
	if math.Abs(s.Completion[0]-2) > 1e-9 || math.Abs(s.Completion[1]-3) > 1e-9 {
		t.Fatalf("completions = %v", s.Completion)
	}
	if err := s.Validate(inst, 0); err != nil {
		t.Fatal(err)
	}
}

func TestRunListIdleGapBetweenArrivals(t *testing.T) {
	inst := uniInstance(t, []float64{1}, []model.Job{
		{Release: 0, Size: 1, Databank: 0},
		{Release: 10, Size: 1, Databank: 0},
	})
	s, err := RunList(inst, fcfs{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Completion[1]-11) > 1e-9 {
		t.Fatalf("completions = %v", s.Completion)
	}
}

func TestRunListEmptyInstance(t *testing.T) {
	inst := uniInstance(t, []float64{1}, nil)
	s, err := RunList(inst, fcfs{})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Slices) != 0 {
		t.Fatal("slices for empty instance")
	}
}

func TestRunListRandomValidity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		nm := 1 + rng.Intn(3)
		nb := 1 + rng.Intn(2)
		ms := make([]model.Machine, nm)
		for i := range ms {
			var banks []model.DatabankID
			for b := 0; b < nb; b++ {
				if rng.Float64() < 0.7 || (i == 0) { // machine 0 hosts all
					banks = append(banks, model.DatabankID(b))
				}
			}
			ms[i] = model.Machine{Speed: 0.5 + rng.Float64()*2, Databanks: banks}
		}
		p, err := model.NewPlatform(ms, nb)
		if err != nil {
			t.Fatal(err)
		}
		nj := 1 + rng.Intn(8)
		jobs := make([]model.Job, nj)
		for j := range jobs {
			jobs[j] = model.Job{
				Release:  rng.Float64() * 10,
				Size:     0.5 + rng.Float64()*5,
				Databank: model.DatabankID(rng.Intn(nb)),
			}
		}
		inst, err := model.NewInstance(p, jobs)
		if err != nil {
			t.Fatal(err)
		}
		for _, pol := range []Policy{fcfs{}, srpt{}} {
			s, err := RunList(inst, pol)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, pol.Name(), err)
			}
			if err := s.Validate(inst, 1e-6); err != nil {
				t.Fatalf("trial %d %s: %v", trial, pol.Name(), err)
			}
		}
	}
}

func TestCtxHelpers(t *testing.T) {
	inst := uniInstance(t, []float64{2}, []model.Job{
		{Release: 0, Size: 4, Databank: 0},
		{Release: 100, Size: 4, Databank: 0},
	})
	ctx := Ctx{
		Inst:      inst,
		Remaining: []float64{3, 4},
		Released:  []bool{true, false},
		Done:      []bool{false, false},
	}
	if got := ctx.Active(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("active = %v", got)
	}
	if got := ctx.RemainingAloneTime(0); got != 1.5 {
		t.Fatalf("remaining alone = %v", got)
	}
}

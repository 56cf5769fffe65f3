package offline

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"stretchsched/internal/model"
)

// cutStream replays one arrival/completion/remaining-work event stream
// over inst, the shape of the online re-optimisations, and solves every
// event's problem four times: with the production parametric cut on a
// shared workspace, with its exact phase alone from the floor of System
// (1)'s range (exactPhaseOnly), with the System (1) oracle on the rational
// simplex, and in float mode on a second shared workspace. Each solve runs
// on its own problem, since two results of one kind on one problem share
// its workspace's solution slot. The exact three must agree on the error
// status and, when they succeed, on S* as a rational. The float solve must
// succeed on every event: within 1e-9 of S* where the exact ones succeed,
// and at the bracket's top milestone fhi, tight to 1e-9, where they fail.
// Every witness must be a valid allocation. With ties set the clock and
// the work updates stay on integers, so releases collide and brackets open
// on milestones with zero-length intervals.
func cutStream(t *testing.T, inst *model.Instance, ops []byte, ties bool) {
	t.Helper()
	ws, fws := NewWorkspace(), NewWorkspace()
	s := &Solver{Exact: true}
	var fs Solver

	nj := len(inst.Jobs)
	rem := make([]float64, nj)
	var active []int
	next := 0
	now, step := 0.0, 0.3
	if ties {
		step = 1
	}
	events := 0
	for _, op := range ops {
		if events >= 16 {
			break
		}
		now += step
		switch op % 3 {
		case 0: // arrival
			if next >= nj {
				continue
			}
			rem[next] = inst.Jobs[next].Size
			active = append(active, next)
			next++
		case 1: // completion
			if len(active) == 0 {
				continue
			}
			active = slices.Delete(active, 0, 1)
		case 2: // remaining-work update
			if len(active) == 0 {
				continue
			}
			j := active[int(op)%len(active)]
			if ties {
				rem[j] = math.Floor(rem[j]/2) + 1
			} else {
				rem[j] = rem[j]/2 + 1e-3
			}
		}
		if len(active) == 0 {
			continue
		}
		events++
		pooled := ws.Problem(inst)
		for _, j := range active {
			pooled.Tasks = append(pooled.Tasks, Task{
				Job:     model.JobID(j),
				Release: now,
				Work:    rem[j],
				DeadA:   inst.Jobs[j].Release,
				DeadB:   inst.AloneTime(model.JobID(j)),
			})
		}
		fresh := &Problem{Inst: inst, Tasks: slices.Clone(pooled.Tasks)}
		want, werr := OracleStretch(&Problem{Inst: inst, Tasks: slices.Clone(pooled.Tasks)})
		slow, serr := exactPhaseOnly(fresh)
		got, gerr := s.OptimalStretch(pooled)
		if (werr == nil) != (gerr == nil) || (werr == nil) != (serr == nil) {
			t.Fatalf("event %d: oracle err %v, cut err %v, exact-phase err %v", events, werr, gerr, serr)
		}
		floatProb := fws.Problem(inst)
		floatProb.Tasks = append(floatProb.Tasks, fresh.Tasks...)
		fl, ferr := fs.OptimalStretch(floatProb)
		if ferr != nil {
			t.Fatalf("event %d: float err %v (exact err %v)", events, ferr, werr)
		}
		checkAlloc(t, fl.Alloc)
		if werr != nil {
			// Exact mode fails when S* is the bracket's top milestone;
			// float mode returns that milestone, and it is tight.
			_, _, fhi, err := s.bracket(fresh)
			if err != nil {
				t.Fatalf("event %d: bracket: %v", events, err)
			}
			// Feasible accepts a flow short of W by 1e-9·W, so the probe
			// below fhi keeps a wider margin.
			below := fhi * (1 - 1e-6)
			if fl.Stretch != fhi || !fresh.Feasible(fhi) || fresh.Feasible(below) {
				t.Fatalf("event %d: exact err %v; float S* %v, fhi %v (feasible %v, at %v %v)",
					events, werr, fl.Stretch, fhi, fresh.Feasible(fhi), below, fresh.Feasible(below))
			}
			continue
		}
		if d := math.Abs(fl.Stretch - want.ExactStretch.Float()); d > 1e-9*math.Max(1, want.Stretch) {
			t.Fatalf("event %d: float S* %v, oracle %v", events, fl.Stretch, want.ExactStretch)
		}
		if slow.ExactStretch.Cmp(want.ExactStretch) != 0 {
			t.Fatalf("event %d: exact phase alone S* %v, oracle %v", events, slow.ExactStretch, want.ExactStretch)
		}
		checkAlloc(t, slow.Alloc)
		if got.ExactStretch.Cmp(want.ExactStretch) != 0 {
			t.Fatalf("event %d: cut S* %v, oracle %v", events, got.ExactStretch, want.ExactStretch)
		}
		if got.Stretch != want.Stretch {
			t.Fatalf("event %d: cut float stretch %v, oracle %v", events, got.Stretch, want.Stretch)
		}
		checkAlloc(t, got.Alloc)
	}
}

// exactPhaseOnly is Exact-mode OptimalStretch without the float phase:
// the exact phase starts at the floor of System (1)'s range and must climb
// to S* through every cut on the way, which exercises its shortfall steps.
func exactPhaseOnly(p *Problem) (*Solution, error) {
	s := Solver{Exact: true}
	sol, flo, fhi, err := s.bracket(p)
	if sol != nil || err != nil {
		return sol, err
	}
	c, ops, err := p.cutNetwork(flo, fhi)
	if err != nil {
		return nil, err
	}
	return p.certify(c, c.lo, ops)
}

// FuzzCutDifferential replays random event streams through the parametric
// cut and the System (1) oracle and asserts that S* agrees exactly at
// every event, and that float mode agrees to 1e-9 (see cutStream), with
// and without degenerate ties.
func FuzzCutDifferential(f *testing.F) {
	f.Add(int64(1), false, []byte{0, 0, 2, 1, 0, 2, 1, 0})
	f.Add(int64(2), false, []byte{0, 0, 0, 0, 1, 1, 1, 1})
	f.Add(int64(3), false, []byte{0, 2, 2, 2, 0, 1, 2, 0, 1, 2})
	f.Add(int64(42), false, []byte{0, 0, 5, 7, 4, 3, 9, 8, 6, 1, 0, 2})
	f.Add(int64(1), true, []byte{0, 0, 2, 1, 0, 2, 1, 0})
	f.Add(int64(2), true, []byte{0, 0, 0, 0, 1, 1, 1, 1})
	f.Add(int64(7), true, []byte{0, 0, 0, 2, 2, 0, 0, 2, 1, 0})
	f.Add(int64(42), true, []byte{0, 0, 5, 7, 4, 3, 9, 8, 6, 1, 0, 2})
	// Both refinements of this stream open their bracket on a milestone at
	// which one interval has zero length.
	f.Add(int64(546), true, []byte{196, 154, 87, 207, 20, 97, 212, 223, 115, 199, 45, 32})
	// At the second arrival S* is the upper bound 4/3, which fhi rounds
	// down in float64: exact mode fails and float mode returns fhi.
	f.Add(int64(-17), true, []byte{0, 0})
	f.Fuzz(func(t *testing.T, seed int64, ties bool, ops []byte) {
		if len(ops) > 24 {
			ops = ops[:24]
		}
		rng := rand.New(rand.NewSource(seed))
		cutStream(t, randomFuzzInstance(rng, ties), ops, ties)
	})
}

// randomFuzzInstance is randomInstance without the testing.T plumbing (the
// fuzz target builds instances inside the fuzz function). With ties the
// data is degenerate on purpose: unit speeds, integer releases and sizes,
// and every other job a copy of its predecessor.
func randomFuzzInstance(rng *rand.Rand, ties bool) *model.Instance {
	nm, nb, nj := 1+rng.Intn(2), 1+rng.Intn(2), 3+rng.Intn(6)
	ms := make([]model.Machine, nm)
	for i := range ms {
		var banks []model.DatabankID
		for b := 0; b < nb; b++ {
			if i == 0 || rng.Float64() < 0.6 {
				banks = append(banks, model.DatabankID(b))
			}
		}
		ms[i] = model.Machine{Speed: 0.5 + 2*rng.Float64(), Databanks: banks}
		if ties {
			ms[i].Speed = 1
		}
	}
	p, err := model.NewPlatform(ms, nb)
	if err != nil {
		panic(err)
	}
	jobs := make([]model.Job, nj)
	for j := range jobs {
		jobs[j] = model.Job{
			Release:  rng.Float64() * 4,
			Size:     0.5 + 4*rng.Float64(),
			Databank: model.DatabankID(rng.Intn(nb)),
		}
		if ties {
			jobs[j].Release, jobs[j].Size = float64(rng.Intn(4)), float64(1+rng.Intn(4))
			if j%2 == 1 {
				jobs[j] = jobs[j-1]
			}
		}
	}
	inst, err := model.NewInstance(p, jobs)
	if err != nil {
		panic(err)
	}
	return inst
}

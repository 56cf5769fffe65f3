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
// event's problem three times: with the production parametric cut on a
// pooled workspace, with its exact phase alone from the floor of System
// (1)'s range (exactPhaseOnly), and with the System (1) oracle on the
// rational simplex. All must agree on the error status and, when they
// succeed, on S* as a rational; the cut's witnesses must be valid
// allocations. With ties set
// the clock and the work updates stay on integers, so releases collide
// and brackets open on milestones with zero-length intervals.
func cutStream(t *testing.T, inst *model.Instance, ops []byte, ties bool) {
	t.Helper()
	ws := NewWorkspace()
	s := &Solver{Exact: true}

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
		want, werr := OracleStretch(fresh, false)
		slow, serr := exactPhaseOnly(fresh)
		got, gerr := s.OptimalStretch(pooled)
		if (werr == nil) != (gerr == nil) || (werr == nil) != (serr == nil) {
			t.Fatalf("event %d: oracle err %v, cut err %v, exact-phase err %v", events, werr, gerr, serr)
		}
		if werr != nil {
			continue
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
// every event (see cutStream), with and without degenerate ties.
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

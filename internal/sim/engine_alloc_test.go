package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"stretchsched/internal/model"
)

// randomInstance builds a mixed restricted-availability instance without
// importing internal/workload (kept dependency-free, like the rest of the
// engine tests).
func randomInstance(t testing.TB, seed int64, nMachines, nBanks, nJobs int) *model.Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ms := make([]model.Machine, nMachines)
	for i := range ms {
		var banks []model.DatabankID
		for b := 0; b < nBanks; b++ {
			if i == 0 || rng.Float64() < 0.6 { // machine 0 hosts everything
				banks = append(banks, model.DatabankID(b))
			}
		}
		ms[i] = model.Machine{Speed: 0.5 + rng.Float64()*2, Databanks: banks}
	}
	p, err := model.NewPlatform(ms, nBanks)
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]model.Job, nJobs)
	for j := range jobs {
		jobs[j] = model.Job{
			Release:  rng.Float64() * 20,
			Size:     0.5 + rng.Float64()*8,
			Databank: model.DatabankID(rng.Intn(nBanks)),
		}
	}
	inst, err := model.NewInstance(p, jobs)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestRunListSteadyStateAllocs is the allocation regression test promised
// by DESIGN.md: once an Engine has warmed up on an instance, replaying the
// list driver must not allocate at all.
func TestRunListSteadyStateAllocs(t *testing.T) {
	inst := randomInstance(t, 99, 4, 3, 40)
	eng := NewEngine()
	pol := srpt{}
	if _, err := eng.RunList(inst, pol); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := eng.RunList(inst, pol); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state RunList allocates %.1f objects/op, want 0", allocs)
	}
}

// referenceRunList is the engine as originally shipped — per-event active
// scans, sort.SliceStable ordering, fresh buffers everywhere. It is kept
// here as the semantic oracle for the incremental rewrite.
func referenceRunList(inst *model.Instance, pol Policy) (*model.Schedule, error) {
	pol.Init(inst)
	n := inst.NumJobs()
	ctx := Ctx{
		Inst:      inst,
		Remaining: make([]float64, n),
		Released:  make([]bool, n),
		Done:      make([]bool, n),
	}
	workTol := make([]float64, n)
	total := inst.TotalWork()
	for j := range inst.Jobs {
		ctx.Remaining[j] = inst.Jobs[j].Size
		workTol[j] = relTol * (inst.Jobs[j].Size + total)
	}
	nextArr, doneCnt := 0, 0
	release := func(t float64) {
		for nextArr < n && inst.Jobs[nextArr].Release <= t+relTol*(1+t) {
			ctx.Released[nextArr] = true
			nextArr++
		}
	}
	if n > 0 {
		ctx.Now = inst.Jobs[0].Release
		release(ctx.Now)
	}
	sched := model.NewSchedule(inst)
	for {
		if doneCnt == n {
			return sched, nil
		}
		order := ctx.Active()
		if len(order) == 0 {
			if nextArr >= n {
				return nil, nil
			}
			ctx.Now = inst.Jobs[nextArr].Release
			release(ctx.Now)
			continue
		}
		pol.OnEvent(&ctx)
		sort.SliceStable(order, func(a, b int) bool {
			return priorityLess(pol, &ctx, order[a], order[b])
		})
		m := inst.Platform.NumMachines()
		assign := make([]int, m)
		for i := range assign {
			assign[i] = -1
		}
		rate := make([]float64, n)
		free := m
		for _, j := range order {
			if free == 0 {
				break
			}
			for _, mid := range inst.Eligible(j) {
				if assign[mid] == -1 {
					assign[mid] = int(j)
					rate[j] += inst.Platform.Machine(mid).Speed
					free--
				}
			}
		}
		dt := math.Inf(1)
		if nextArr < n {
			dt = math.Max(0, inst.Jobs[nextArr].Release-ctx.Now)
		}
		for _, j := range order {
			if rate[j] > 0 {
				dt = math.Min(dt, ctx.Remaining[j]/rate[j])
			}
		}
		if math.IsInf(dt, 1) {
			return nil, nil
		}
		t0, t1 := ctx.Now, ctx.Now+dt
		if dt > 0 {
			for mid, j := range assign {
				if j >= 0 {
					sched.AddSlice(model.Slice{
						Machine: model.MachineID(mid), Job: model.JobID(j), Start: t0, End: t1,
					})
				}
			}
			for j := range rate {
				if rate[j] > 0 {
					ctx.Remaining[j] -= rate[j] * dt
				}
			}
		}
		ctx.Now = t1
		for j := range rate {
			if !ctx.Done[j] && ctx.Released[j] && rate[j] > 0 && ctx.Remaining[j] <= workTol[j] {
				ctx.Remaining[j] = 0
				ctx.Done[j] = true
				doneCnt++
				sched.Completion[j] = t1
			}
		}
		release(t1)
	}
}

// oraclePolicies returns fresh instances of the test policies the engine
// is checked against referenceRunList under: a static order (fcfs), orders
// whose keys move only for running jobs (srpt, lpt), one that reorders
// idle jobs as time passes (stretchFirst), ones that reverse the whole
// order between events (oddReverse, flipflop), and a static order opposite
// to the ID order the active set is kept in (reverseID).
func oraclePolicies() []Policy {
	return []Policy{fcfs{}, srpt{}, stretchFirst{}, &oddReverse{}, lpt{}, &flipflop{}, reverseID{}}
}

// matchReference runs inst under pol through eng and referenceRunList. The
// predicted completion instants are computed once per rate change instead
// of per event, which can move completions by float-rounding dust, so
// agreement is checked to a relative 1e-9 — far tighter than the engine's
// own tolerance. The engine's schedule must also be valid.
func matchReference(t testing.TB, label string, eng *Engine, inst *model.Instance, pol Policy) {
	t.Helper()
	want, err := referenceRunList(inst, pol)
	if err != nil || want == nil {
		t.Fatalf("%s %s: reference failed", label, pol.Name())
	}
	got, err := eng.RunList(inst, pol)
	if err != nil {
		t.Fatalf("%s %s: %v", label, pol.Name(), err)
	}
	for j := range want.Completion {
		w, g := want.Completion[j], got.Completion[j]
		if math.Abs(w-g) > 1e-9*(1+math.Abs(w)) {
			t.Fatalf("%s %s: job %d completes at %v, reference %v", label, pol.Name(), j, g, w)
		}
	}
	if err := got.Validate(inst, 1e-6); err != nil {
		t.Fatalf("%s %s: %v", label, pol.Name(), err)
	}
}

// TestRunListMatchesReference replays random instances through the
// incremental engine and the straight-line reference implementation.
func TestRunListMatchesReference(t *testing.T) {
	eng := NewEngine()
	for trial := int64(0); trial < 30; trial++ {
		inst := randomInstance(t, 1000+trial, 1+int(trial%5), 1+int(trial%3), 3+int(trial*7%50))
		for _, pol := range oraclePolicies() {
			matchReference(t, fmt.Sprintf("trial %d", trial), eng, inst, pol)
		}
	}
}

// FuzzRunListReference is TestRunListMatchesReference over drawn seeds,
// machine, bank and job counts, and test policies.
func FuzzRunListReference(f *testing.F) {
	for i := range oraclePolicies() {
		f.Add(int64(i), uint8(i), uint8(i), uint8(5+9*i), uint8(i))
	}
	eng := NewEngine()
	f.Fuzz(func(t *testing.T, seed int64, machines, banks, jobs, pol uint8) {
		pols := oraclePolicies()
		inst := randomInstance(t, seed, 1+int(machines%6), 1+int(banks%4), 1+int(jobs%64))
		matchReference(t, fmt.Sprintf("seed %d", seed), eng, inst, pols[int(pol)%len(pols)])
	})
}

// countingSWRPT is SWRPT (smallest p*_j·ρ_j(t)/speed first) counting its
// Less calls.
type countingSWRPT struct{ calls int }

func (p *countingSWRPT) Name() string         { return "counting-swrpt" }
func (p *countingSWRPT) Init(*model.Instance) {}
func (p *countingSWRPT) OnEvent(*Ctx)         {}
func (p *countingSWRPT) Less(ctx *Ctx, a, b model.JobID) bool {
	p.calls++
	return ctx.Inst.AloneTime(a)*ctx.RemainingAloneTime(a) < ctx.Inst.AloneTime(b)*ctx.RemainingAloneTime(b)
}

// TestRunListLessBudget bounds the comparisons of a run. n jobs released
// together on one machine give n events, and between two of them only the
// running job's key moves, so the priority order the engine keeps is
// nearly sorted at every event and checking it costs about 2n Less calls.
// Rebuilding the order from the ID-ordered active set at every event costs
// a full sort each time, about 5·n² calls over this run.
func TestRunListLessBudget(t *testing.T) {
	const n = 200
	rng := rand.New(rand.NewSource(5))
	jobs := make([]model.Job, n)
	for j := range jobs {
		jobs[j] = model.Job{Size: 0.5 + rng.Float64()*8}
	}
	inst := uniInstance(t, []float64{1}, jobs)
	pol := &countingSWRPT{}
	if _, err := NewEngine().RunList(inst, pol); err != nil {
		t.Fatal(err)
	}
	if pol.calls > 2*n*n {
		t.Fatalf("%d Less calls over %d jobs, budget 2·n² = %d", pol.calls, n, 2*n*n)
	}
}

// TestEngineReuseMatchesFresh interleaves instances of very different sizes
// through one engine and checks each run is bit-identical to a fresh
// engine's — the buffer-reuse path must leak nothing across runs.
func TestEngineReuseMatchesFresh(t *testing.T) {
	shared := NewEngine()
	sizes := []int{40, 3, 25, 1, 60, 7}
	for i, nj := range sizes {
		inst := randomInstance(t, 7000+int64(i), 2+i%4, 1+i%3, nj)
		for _, pol := range oraclePolicies() {
			fresh, err := RunList(inst, pol)
			if err != nil {
				t.Fatal(err)
			}
			reused, err := shared.RunList(inst, pol)
			if err != nil {
				t.Fatal(err)
			}
			for j := range fresh.Completion {
				if fresh.Completion[j] != reused.Completion[j] {
					t.Fatalf("size %d %s: job %d: reused %v, fresh %v",
						nj, pol.Name(), j, reused.Completion[j], fresh.Completion[j])
				}
			}
		}
	}
}

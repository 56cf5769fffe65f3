package sim

import (
	"math"
	"testing"

	"stretchsched/internal/model"
)

// srptTest orders by remaining alone time — enough policy dynamics to
// exercise the driver without importing internal/policy (a sim importer).
type srptTest struct{}

func (srptTest) Name() string         { return "srpt-test" }
func (srptTest) Init(*model.Instance) {}
func (srptTest) OnEvent(*Ctx)         {}
func (srptTest) Less(c *Ctx, a, b model.JobID) bool {
	return c.RemainingAloneTime(a) < c.RemainingAloneTime(b)
}

func driverPlatform(t *testing.T) *model.Platform {
	t.Helper()
	p, err := model.NewPlatform([]model.Machine{
		{Name: "A", Speed: 2, Databanks: []model.DatabankID{0}},
		{Name: "B", Speed: 1, Databanks: []model.DatabankID{0, 1}},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDriverEventLoop(t *testing.T) {
	p := driverPlatform(t)
	st := model.NewStream(p)
	d := NewDriver(st.Instance())

	// Two jobs on databank 0 (machines A+B, rate 3 combined) and one on
	// databank 1 (machine B only).
	a, _ := st.Add(model.Job{Release: 0, Size: 6, Databank: 0})
	b, _ := st.Add(model.Job{Release: 0, Size: 9, Databank: 0})
	c, _ := st.Add(model.Job{Release: 0, Size: 2, Databank: 1})
	for _, id := range []model.JobID{a, b, c} {
		d.Arrive(id, st.Instance().Jobs[id].Size)
	}
	if d.NumActive() != 3 {
		t.Fatalf("NumActive = %d, want 3", d.NumActive())
	}

	d.Replan(srptTest{})
	// SRPT alone times: a=2 (6/3), b=3, c=2 — tie a/c broken by ID, so a
	// takes both machines for bank 0... but machine B is shared: a grabs
	// A and B (rate 3); c then finds B taken (rate 0); b rate 0.
	if got := d.Rate(a); got != 3 {
		t.Fatalf("rate(a) = %v, want 3", got)
	}
	if d.Rate(b) != 0 || d.Rate(c) != 0 {
		t.Fatalf("rate(b)=%v rate(c)=%v, want 0,0", d.Rate(b), d.Rate(c))
	}
	if _, _, ok := d.AdvanceToNext(1); ok || d.Now() != 1 {
		t.Fatalf("AdvanceToNext(1) = ok %v at now %v, want no completion at 1", ok, d.Now())
	}
	id, at, ok := d.AdvanceToNext(math.Inf(1))
	if !ok || id != a || at != 2 {
		t.Fatalf("AdvanceToNext = %d@%v ok=%v, want %d@2", id, at, ok, a)
	}
	d.Complete(a)
	if err := st.Remove(a); err != nil {
		t.Fatal(err)
	}
	if d.NumActive() != 2 || d.Now() != 2 {
		t.Fatalf("after first completion: active=%d now=%v", d.NumActive(), d.Now())
	}

	// Slot recycling: a new arrival reuses a's slot (lower ID than b, c).
	n, err := st.Add(model.Job{Release: 2, Size: 3, Databank: 0})
	if err != nil {
		t.Fatal(err)
	}
	if n != a {
		t.Fatalf("recycled slot = %d, want %d", n, a)
	}
	d.Arrive(n, 3)
	act := d.Ctx().Active()
	if len(act) != 3 || act[0] != n || act[1] != b || act[2] != c {
		t.Fatalf("active after recycled arrival = %v", act)
	}

	// Drain everything; the loop must terminate with time advancing.
	pol := srptTest{}
	for d.NumActive() > 0 {
		d.Replan(pol)
		id, _, ok := d.AdvanceToNext(math.Inf(1))
		if !ok {
			t.Fatal("active jobs but nothing running")
		}
		d.Complete(id)
		if err := st.Remove(id); err != nil {
			t.Fatal(err)
		}
	}
	// Work conservation: total work 6+9+2+3 = 20 at total speed 3, but
	// bank-1 job c can only use machine B. Completion of the whole stream
	// happens no earlier than 20/3.
	if d.Now() < 20.0/3-1e-9 {
		t.Fatalf("drained at %v, before work bound %v", d.Now(), 20.0/3)
	}
}

func TestDriverRestoreActive(t *testing.T) {
	p := driverPlatform(t)
	st := model.NewStream(p)
	d := NewDriver(st.Instance())
	a, _ := st.Add(model.Job{Release: 0, Size: 6, Databank: 0})
	b, _ := st.Add(model.Job{Release: 0, Size: 4, Databank: 1})
	d.Arrive(a, 6)
	d.Arrive(b, 4)
	d.Replan(srptTest{})
	d.AdvanceToNext(1)

	// Rebuild a second driver from the first one's visible state.
	slots, live, free := st.Snapshot(nil, nil, nil)
	st2 := model.NewStream(p)
	if err := st2.Restore(slots, live, free); err != nil {
		t.Fatal(err)
	}
	d2 := NewDriver(st2.Instance())
	act := d.Ctx().Active()
	rem := make([]float64, len(act))
	for i, id := range act {
		rem[i] = d.Remaining(id)
	}
	d2.RestoreActive(act, rem)
	d2.SetNow(d.Now())

	d.Replan(srptTest{})
	d2.Replan(srptTest{})
	i1, t1, ok1 := d.nextCompletion()
	i2, t2, ok2 := d2.nextCompletion()
	if i1 != i2 || t1 != t2 || ok1 != ok2 {
		t.Fatalf("restored driver diverged: %d@%v vs %d@%v", i1, t1, i2, t2)
	}
}

// reverseID ranks higher slot IDs first.
type reverseID struct{}

func (reverseID) Name() string                       { return "reverse-id" }
func (reverseID) Init(*model.Instance)               {}
func (reverseID) OnEvent(*Ctx)                       {}
func (reverseID) Less(_ *Ctx, a, b model.JobID) bool { return a > b }

// TestDriverCompletionTiesFollowPriority pins the tie rule of the
// completion step: of two jobs predicted to finish at the same instant,
// the one first in priority order (Running) completes first, not the
// lower slot. The serving decision log records this order, so changing
// the rule would move logs on ties.
func TestDriverCompletionTiesFollowPriority(t *testing.T) {
	p, err := model.NewPlatform([]model.Machine{
		{Name: "A", Speed: 1, Databanks: []model.DatabankID{0}},
		{Name: "B", Speed: 1, Databanks: []model.DatabankID{1}},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	st := model.NewStream(p)
	d := NewDriver(st.Instance())
	for bank := 0; bank < 2; bank++ {
		id, err := st.Add(model.Job{Size: 4, Databank: model.DatabankID(bank)})
		if err != nil {
			t.Fatal(err)
		}
		d.Arrive(id, 4)
	}
	d.Replan(reverseID{})
	if run := d.Running(); len(run) != 2 || run[0] != 1 || run[1] != 0 {
		t.Fatalf("Running = %v, want [1 0]", run)
	}
	id, at, ok := d.AdvanceToNext(math.Inf(1))
	if !ok || id != 1 || at != 4 {
		t.Fatalf("AdvanceToNext = %d@%v ok=%v, want slot 1 at 4", id, at, ok)
	}
}

package model

import (
	"math"
	"testing"
)

func twoSitePlatform(t *testing.T) *Platform {
	t.Helper()
	p, err := NewPlatform([]Machine{
		{Name: "lyon", Speed: 2, Databanks: []DatabankID{0, 1}},
		{Name: "nancy", Speed: 3, Databanks: []DatabankID{1}},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPlatformIndexes(t *testing.T) {
	p := twoSitePlatform(t)
	if p.NumMachines() != 2 || p.NumDatabanks() != 2 {
		t.Fatal("counts")
	}
	if got := p.Eligible(0); len(got) != 1 || got[0] != 0 {
		t.Fatalf("eligible(0) = %v", got)
	}
	if got := p.Eligible(1); len(got) != 2 {
		t.Fatalf("eligible(1) = %v", got)
	}
	if p.AggregateSpeed(0) != 2 || p.AggregateSpeed(1) != 5 {
		t.Fatal("aggregate speeds")
	}
	if p.TotalSpeed() != 5 {
		t.Fatal("total speed")
	}
	if p.IsUniform() {
		t.Fatal("restricted platform reported uniform")
	}
	if !p.Machine(0).Hosts(0) || p.Machine(1).Hosts(0) {
		t.Fatal("Hosts")
	}
}

func TestPlatformValidation(t *testing.T) {
	cases := []struct {
		name string
		ms   []Machine
		nb   int
	}{
		{"no machines", nil, 1},
		{"no banks", []Machine{{Speed: 1}}, 0},
		{"bad speed", []Machine{{Speed: -1, Databanks: []DatabankID{0}}}, 1},
		{"zero speed", []Machine{{Speed: 0, Databanks: []DatabankID{0}}}, 1},
		{"nan speed", []Machine{{Speed: math.NaN(), Databanks: []DatabankID{0}}}, 1},
		{"unknown bank", []Machine{{Speed: 1, Databanks: []DatabankID{7}}}, 1},
		{"dup bank", []Machine{{Speed: 1, Databanks: []DatabankID{0, 0}}}, 1},
		{"orphan bank", []Machine{{Speed: 1, Databanks: []DatabankID{0}}}, 2},
	}
	for _, c := range cases {
		if _, err := NewPlatform(c.ms, c.nb); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestUniformHelper(t *testing.T) {
	p, err := Uniform([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsUniform() {
		t.Fatal("Uniform not uniform")
	}
	if p.AggregateSpeed(0) != 6 {
		t.Fatal("aggregate")
	}
}

func TestInstanceSortsByRelease(t *testing.T) {
	p := twoSitePlatform(t)
	inst, err := NewInstance(p, []Job{
		{Release: 5, Size: 1, Databank: 0},
		{Release: 2, Size: 4, Databank: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if inst.Jobs[0].Release != 2 || inst.Jobs[1].Release != 5 {
		t.Fatal("not sorted by release")
	}
	if inst.Jobs[0].ID != 0 || inst.Jobs[1].ID != 1 {
		t.Fatal("not renumbered")
	}
	if inst.Jobs[0].Name == "" {
		t.Fatal("no default name")
	}
}

func TestInstanceValidation(t *testing.T) {
	p := twoSitePlatform(t)
	bad := []Job{
		{Release: 0, Size: 0, Databank: 0},
		{Release: -1, Size: 1, Databank: 0},
		{Release: 0, Size: 1, Databank: 5},
		{Release: 0, Size: math.Inf(1), Databank: 0},
		{Release: math.Inf(1), Size: 1, Databank: 0},
		{Release: math.NaN(), Size: 1, Databank: 0},
	}
	for i, j := range bad {
		if _, err := NewInstance(p, []Job{j}); err == nil {
			t.Errorf("job %d: expected error", i)
		}
	}
}

func TestAloneTimeAndWeight(t *testing.T) {
	p := twoSitePlatform(t)
	inst, err := NewInstance(p, []Job{
		{Release: 0, Size: 10, Databank: 0}, // only machine 0 (speed 2): alone = 5
		{Release: 0, Size: 10, Databank: 1}, // both (speed 5): alone = 2
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := inst.AloneTime(0); got != 5 {
		t.Fatalf("alone(0) = %v", got)
	}
	if got := inst.AloneTime(1); got != 2 {
		t.Fatalf("alone(1) = %v", got)
	}
	if got := inst.Weight(1); got != 0.5 {
		t.Fatalf("weight(1) = %v", got)
	}
	if got := inst.Delta(); got != 2.5 {
		t.Fatalf("delta = %v", got)
	}
	if inst.TotalWork() != 20 || inst.MaxRelease() != 0 {
		t.Fatal("totals")
	}
}

func TestMetrics(t *testing.T) {
	p, _ := Uniform([]float64{1})
	inst, err := NewInstance(p, []Job{
		{Release: 0, Size: 2, Databank: 0},
		{Release: 1, Size: 1, Databank: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := NewResult(inst)
	r.Completion[0] = 2 // flow 2, stretch 1
	r.Completion[1] = 3 // flow 2, stretch 2
	if got := r.Flow(inst, 1); got != 2 {
		t.Fatalf("flow = %v", got)
	}
	if got := r.Stretch(inst, 1); got != 2 {
		t.Fatalf("stretch = %v", got)
	}
	if r.MaxStretch(inst) != 2 || r.SumStretch(inst) != 3 {
		t.Fatal("stretch aggregates")
	}
	if r.MaxFlow(inst) != 2 || r.SumFlow(inst) != 4 || r.Makespan(inst) != 3 {
		t.Fatal("flow aggregates")
	}
	if err := r.Check(inst); err != nil {
		t.Fatal(err)
	}
}

func TestResultCheckFailures(t *testing.T) {
	p, _ := Uniform([]float64{1})
	inst, _ := NewInstance(p, []Job{{Release: 0, Size: 2, Databank: 0}})
	r := NewResult(inst)
	if err := r.Check(inst); err == nil {
		t.Fatal("unset completion not caught")
	}
	r.Completion[0] = 1 // before release+alone = 2
	if err := r.Check(inst); err == nil {
		t.Fatal("too-early completion not caught")
	}
}

func TestScheduleValidate(t *testing.T) {
	p := twoSitePlatform(t)
	inst, err := NewInstance(p, []Job{{Release: 0, Size: 10, Databank: 1}})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSchedule(inst)
	// Split across both machines: 2·t + 3·t = 10 → t = 2.
	s.AddSlice(Slice{Machine: 0, Job: 0, Start: 0, End: 2})
	s.AddSlice(Slice{Machine: 1, Job: 0, Start: 0, End: 2})
	s.Completion[0] = 2
	if err := s.Validate(inst, 0); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleValidateCatches(t *testing.T) {
	p := twoSitePlatform(t)
	inst, err := NewInstance(p, []Job{
		{Release: 1, Size: 4, Databank: 0},
		{Release: 0, Size: 6, Databank: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// After release-sorting, job 0 is (release 0, size 6, db1) and job 1 is
	// (release 1, size 4, db0).
	mk := func() *Schedule {
		s := NewSchedule(inst)
		s.AddSlice(Slice{Machine: 0, Job: 1, Start: 1, End: 3}) // 4 units on speed 2
		s.AddSlice(Slice{Machine: 1, Job: 0, Start: 0, End: 2}) // 6 units on speed 3
		s.Completion[1] = 3
		s.Completion[0] = 2
		return s
	}
	if err := mk().Validate(inst, 0); err != nil {
		t.Fatalf("baseline should validate: %v", err)
	}

	s := mk()
	s.Slices[0].Machine = 1 // machine 1 lacks databank 0 and overlaps job 1
	if err := s.Validate(inst, 0); err == nil {
		t.Fatal("ineligible machine not caught")
	}

	s = mk()
	s.Slices[0].Start = 0 // before release
	if err := s.Validate(inst, 0); err == nil {
		t.Fatal("pre-release start not caught")
	}

	s = mk()
	s.Slices[0].End = 2.5 // under-processed
	if err := s.Validate(inst, 0); err == nil {
		t.Fatal("work deficit not caught")
	}

	s = mk()
	s.Slices = append(s.Slices, Slice{Machine: 0, Job: 1, Start: 2, End: 2.5}) // overlap on machine 0
	if err := s.Validate(inst, 0); err == nil {
		t.Fatal("overlap not caught")
	}

	s = mk()
	s.Completion[0] = 4 // completion after last slice
	if err := s.Validate(inst, 0); err == nil {
		t.Fatal("completion mismatch not caught")
	}
}

func TestAddSliceMergesContiguousRuns(t *testing.T) {
	p, _ := Uniform([]float64{1})
	inst, _ := NewInstance(p, []Job{{Release: 0, Size: 2, Databank: 0}})
	s := NewSchedule(inst)
	s.AddSlice(Slice{Machine: 0, Job: 0, Start: 0, End: 1})
	s.AddSlice(Slice{Machine: 0, Job: 0, Start: 1, End: 2})
	if len(s.Slices) != 1 || s.Slices[0].End != 2 {
		t.Fatalf("merge failed: %+v", s.Slices)
	}
	s.AddSlice(Slice{Machine: 0, Job: 0, Start: 3, End: 3}) // empty: ignored
	if len(s.Slices) != 1 {
		t.Fatal("empty slice not ignored")
	}
}

func TestDeltaEmptyInstance(t *testing.T) {
	p, _ := Uniform([]float64{1})
	inst, err := NewInstance(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Delta() != 1 {
		t.Fatal("empty delta should be 1")
	}
}

// Package model defines the platform and application model of the paper
// (§2.2): n divisible jobs with release dates, sizes and a databank
// dependence; m machines (sites) with speeds and hosted databanks. A job is
// eligible on a machine iff the machine hosts the job's databank — the
// "uniform machines with restricted availabilities" model.
//
// Sizes are expressed in abstract work units (the paper uses Mflop) and
// speeds in work units per second, i.e. speed_i = 1/p_i in the paper's
// notation.
package model

import (
	"fmt"
	"math"
	"sort"
)

// MachineID identifies a machine (a site of the GriPPS platform).
type MachineID int

// DatabankID identifies a protein databank.
type DatabankID int

// JobID identifies a job; jobs are numbered 0..n-1 by increasing release.
type JobID int

// Machine is one computational site. The paper defines sites of 10 identical
// processors all hosting the same databanks; for divisible load with no
// communication such a site is exactly one machine with the aggregated
// speed, so Speed is the site-level aggregate.
type Machine struct {
	ID        MachineID
	Name      string
	Speed     float64      // work units per second (= 1/p_i), > 0
	Databanks []DatabankID // databanks replicated at this site
}

// Hosts reports whether the machine holds databank db.
func (m *Machine) Hosts(db DatabankID) bool {
	for _, d := range m.Databanks {
		if d == db {
			return true
		}
	}
	return false
}

// Job is one motif-comparison request.
type Job struct {
	ID       JobID
	Name     string
	Release  float64 // r_j, seconds
	Size     float64 // W_j, work units, > 0
	Databank DatabankID
}

// Platform is an immutable set of machines plus the databank→machines index.
type Platform struct {
	machines   []Machine
	numBanks   int
	hosting    [][]MachineID // databank -> machines hosting it
	aggSpeed   []float64     // databank -> Σ speeds of hosting machines
	totalSpeed float64
}

// NewPlatform validates machines and builds the eligibility index.
// Every machine speed must be positive and every databank in [0, numBanks)
// must be hosted by at least one machine.
func NewPlatform(machines []Machine, numBanks int) (*Platform, error) {
	if len(machines) == 0 {
		return nil, fmt.Errorf("model: platform needs at least one machine")
	}
	if numBanks <= 0 {
		return nil, fmt.Errorf("model: platform needs at least one databank")
	}
	p := &Platform{
		machines: append([]Machine(nil), machines...),
		numBanks: numBanks,
		hosting:  make([][]MachineID, numBanks),
		aggSpeed: make([]float64, numBanks),
	}
	for i := range p.machines {
		m := &p.machines[i]
		m.ID = MachineID(i)
		if m.Speed <= 0 || math.IsNaN(m.Speed) || math.IsInf(m.Speed, 0) {
			return nil, fmt.Errorf("model: machine %d has invalid speed %v", i, m.Speed)
		}
		p.totalSpeed += m.Speed
		seen := map[DatabankID]bool{}
		for _, db := range m.Databanks {
			if db < 0 || int(db) >= numBanks {
				return nil, fmt.Errorf("model: machine %d hosts unknown databank %d", i, db)
			}
			if seen[db] {
				return nil, fmt.Errorf("model: machine %d lists databank %d twice", i, db)
			}
			seen[db] = true
			p.hosting[db] = append(p.hosting[db], m.ID)
			p.aggSpeed[db] += m.Speed
		}
	}
	for db := 0; db < numBanks; db++ {
		if len(p.hosting[db]) == 0 {
			return nil, fmt.Errorf("model: databank %d is hosted nowhere", db)
		}
	}
	return p, nil
}

// Uniform returns a platform where every machine hosts the single databank 0
// — the unrestricted "uniform machines" model of Lemma 1.
func Uniform(speeds []float64) (*Platform, error) {
	ms := make([]Machine, len(speeds))
	for i, s := range speeds {
		ms[i] = Machine{Name: fmt.Sprintf("M%d", i+1), Speed: s, Databanks: []DatabankID{0}}
	}
	return NewPlatform(ms, 1)
}

// NumMachines returns the machine count m.
func (p *Platform) NumMachines() int { return len(p.machines) }

// NumDatabanks returns the databank count.
func (p *Platform) NumDatabanks() int { return p.numBanks }

// Machine returns machine i.
func (p *Platform) Machine(i MachineID) *Machine { return &p.machines[i] }

// Machines returns all machines (shared slice; treat as read-only).
func (p *Platform) Machines() []Machine { return p.machines }

// Eligible returns the machines hosting db (shared slice; read-only).
func (p *Platform) Eligible(db DatabankID) []MachineID { return p.hosting[db] }

// AggregateSpeed returns the summed speed of the machines hosting db.
func (p *Platform) AggregateSpeed(db DatabankID) float64 { return p.aggSpeed[db] }

// TotalSpeed returns the summed speed of all machines.
func (p *Platform) TotalSpeed() float64 { return p.totalSpeed }

// IsUniform reports whether every machine hosts every databank, in which
// case the instance reduces to the preemptive uni-processor model (Lemma 1).
func (p *Platform) IsUniform() bool {
	for db := 0; db < p.numBanks; db++ {
		if len(p.hosting[db]) != len(p.machines) {
			return false
		}
	}
	return true
}

// Instance couples a platform with a job stream.
type Instance struct {
	Platform *Platform
	Jobs     []Job

	alone []float64 // cached p*_j
}

// NewInstance validates jobs (positive sizes, known databanks, nonnegative
// releases), sorts them by release date and renumbers them, following the
// paper's convention that jobs are indexed by increasing release date.
func NewInstance(p *Platform, jobs []Job) (*Instance, error) {
	js := append([]Job(nil), jobs...)
	sort.SliceStable(js, func(a, b int) bool { return js[a].Release < js[b].Release })
	inst := &Instance{Platform: p, Jobs: js}
	for i := range inst.Jobs {
		j := &inst.Jobs[i]
		j.ID = JobID(i)
		if j.Name == "" {
			j.Name = fmt.Sprintf("J%d", i+1)
		}
		if err := ValidateJob(p, *j); err != nil {
			return nil, fmt.Errorf("model: job %d: %w", i, err)
		}
	}
	inst.alone = make([]float64, len(inst.Jobs))
	for i := range inst.Jobs {
		inst.alone[i] = inst.Jobs[i].Size / p.AggregateSpeed(inst.Jobs[i].Databank)
	}
	return inst, nil
}

// ValidateJob is the one job-validity rule: a positive finite size, a
// nonnegative finite release and a databank that platform p knows.
// NewInstance, NewClusterInstance, Stream and the serving daemon's
// admission all apply it. A job released at +Inf never arrives; the
// solvers do not terminate on one.
func ValidateJob(p *Platform, j Job) error {
	if j.Size <= 0 || math.IsNaN(j.Size) || math.IsInf(j.Size, 0) {
		return fmt.Errorf("invalid size %v", j.Size)
	}
	if j.Release < 0 || math.IsNaN(j.Release) || math.IsInf(j.Release, 1) {
		return fmt.Errorf("invalid release %v", j.Release)
	}
	if j.Databank < 0 || int(j.Databank) >= p.NumDatabanks() {
		return fmt.Errorf("unknown databank %d", j.Databank)
	}
	return nil
}

// NumJobs returns n.
func (inst *Instance) NumJobs() int { return len(inst.Jobs) }

// Eligible returns the machines that may process job j.
func (inst *Instance) Eligible(j JobID) []MachineID {
	return inst.Platform.Eligible(inst.Jobs[j].Databank)
}

// AloneTime returns p*_j: the duration of job j alone on its eligible
// machines, W_j / Σ_{i ∈ elig(j)} speed_i. It is the denominator of the
// job's stretch and the slope of its deadline d̄_j(F) = r_j + F·p*_j.
func (inst *Instance) AloneTime(j JobID) float64 { return inst.alone[j] }

// Weight returns w_j = 1/p*_j, the stretch weight of job j.
func (inst *Instance) Weight(j JobID) float64 { return 1 / inst.alone[j] }

// Delta returns ∆, the ratio of the largest to the smallest job size, as
// used by the Bender heuristics. Sizes are measured as alone times so that
// heterogeneous speeds are factored out; on a uni-processor this is the
// classical size ratio.
func (inst *Instance) Delta() float64 {
	if len(inst.Jobs) == 0 {
		return 1
	}
	lo, hi := math.Inf(1), 0.0
	for j := range inst.Jobs {
		a := inst.alone[j]
		lo = math.Min(lo, a)
		hi = math.Max(hi, a)
	}
	return hi / lo
}

// MaxRelease returns the latest release date (0 for empty instances).
func (inst *Instance) MaxRelease() float64 {
	r := 0.0
	for j := range inst.Jobs {
		r = math.Max(r, inst.Jobs[j].Release)
	}
	return r
}

// TotalWork returns ΣW_j.
func (inst *Instance) TotalWork() float64 {
	w := 0.0
	for j := range inst.Jobs {
		w += inst.Jobs[j].Size
	}
	return w
}

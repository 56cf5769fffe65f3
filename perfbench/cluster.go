package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"stretchsched/internal/cluster"
	"stretchsched/internal/core"
	"stretchsched/internal/fault"
	"stretchsched/internal/model"
	"stretchsched/internal/workload"
)

// The faults family's grid: clusters of 2 and 4 nodes under every balancer
// across four failure rates (expected failures per node over the arrival
// window); rate 0 is the fault-free batch path.
var (
	faultMachines  = []int{2, 4}
	faultBalancers = []string{"ideal", "random", "kchoices", "stretch"}
	faultRates     = []float64{0, 0.5, 1, 2}
)

// worldsPerPoint is the number of instances per grid point in one pass.
const worldsPerPoint = 100

// worldInput is one world's generated input.
type worldInput struct {
	balancer string
	ci       *model.ClusterInstance
	plan     *fault.Plan
	lbSeed   int64
	work     float64 // total job size
}

// clusterBench runs the faults family's worlds one at a time, each through
// cluster.New + SetFaults + Run: 30 jobs per machine at per-machine density
// 1.0, SWRPT on every node, the default retry backoff. A world is built
// when it runs, as the faults family builds it, so one world is live at a
// time; the node runners behind the local scheduler are shared by all.
type clusterBench struct {
	inputs []worldInput
	local  cluster.Local

	probe  *clusterProbe
	probed cluster.Local // local wrapped in probe, built for the first traced pass
	tr     *tracer       // the next pass's; nil when untraced
}

func (b *clusterBench) setup(seed int64) error {
	b.inputs = b.inputs[:0]
	for _, m := range faultMachines {
		for _, lb := range faultBalancers {
			for _, rate := range faultRates {
				for r := 0; r < worldsPerPoint; r++ {
					in, err := worldInputFor(seed, len(b.inputs), m, lb, rate)
					if err != nil {
						return err
					}
					b.inputs = append(b.inputs, in)
				}
			}
		}
	}
	var err error
	b.local, err = core.NewClusterRunner().Local("SWRPT")
	b.probe, b.tr = nil, nil
	return err
}

// jobsPerMachine is every world's exact job count per machine.
const jobsPerMachine = 30

// worldInputFor generates world k's instance, failure plan and balancer
// seed as the faults family does for one grid point and run, except that
// the instance holds exactly 30 jobs per machine: the first ones of a
// stream generated for twice as many, at the same per-machine density.
func worldInputFor(seed int64, k, machines int, balancer string, rate float64) (worldInput, error) {
	if _, ok := cluster.Balancers(balancer); !ok {
		return worldInput{}, fmt.Errorf("unknown balancer %q", balancer)
	}
	n := jobsPerMachine * machines
	inst, err := workload.Config{
		Sites: 1, ProcsPerSite: 1, Databanks: 12, Availability: 1,
		Density: 1.0 * float64(machines), TargetJobs: 2 * n,
		SizeRange: [2]float64{10, 200}, Seed: subSeed(seed, tagWorld, k),
	}.Generate()
	if err != nil {
		return worldInput{}, err
	}
	if inst.NumJobs() < n {
		return worldInput{}, fmt.Errorf("world %d: generated %d jobs, want at least %d", k, inst.NumJobs(), n)
	}
	jobs := inst.Jobs[:n] // release order
	ci, err := model.Replicate(inst.Platform, machines, jobs)
	if err != nil {
		return worldInput{}, err
	}
	horizon, work := 0.0, 0.0
	for _, j := range jobs {
		horizon = max(horizon, j.Release)
		work += j.Size
	}
	plan, err := fault.New(fault.Config{Nodes: machines, Horizon: horizon, Rate: rate, Seed: subSeed(seed, tagFaults, k)})
	if err != nil {
		return worldInput{}, err
	}
	return worldInput{balancer: balancer, ci: ci, plan: plan, lbSeed: subSeed(seed, tagBalancer, k), work: work}, nil
}

func (b *clusterBench) prepare(tr *tracer) error {
	b.tr = tr
	if tr == nil {
		return nil
	}
	if b.probe == nil {
		b.probe = &clusterProbe{}
		b.probed = probeLocal(b.local, b.probe)
	}
	*b.probe = clusterProbe{tr: tr}
	return nil
}

// run builds world in and runs it, with probes on traced passes.
func (b *clusterBench) run(in worldInput) (*model.ClusterSchedule, cluster.FaultStats, error) {
	lb, _ := cluster.Balancers(in.balancer) // known: worldInputFor checked it
	loc := b.local
	if b.tr != nil {
		lb, loc = probeLB(lb, b.probe), b.probed
	}
	w, err := cluster.New(in.ci, lb, loc, in.lbSeed)
	if err == nil {
		err = w.SetFaults(in.plan, fault.DefaultBackoff())
	}
	if err != nil {
		return nil, cluster.FaultStats{}, err
	}
	cs, err := w.Run()
	return cs, w.FaultStats(), err
}

func (b *clusterBench) pass() passOut {
	out := passOut{latMs: make([]float64, 0, len(b.inputs))}
	tr := b.tr
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	var fs cluster.FaultStats
	var maxSum, meanSum, work float64
	errs := 0
	for wi, in := range b.inputs {
		tr.setReq(wi)
		t0 := time.Now()
		si := tr.begin("cluster.run")
		cs, wfs, err := b.run(in)
		tr.end(si)
		d := time.Since(t0)
		out.dur += d
		out.latMs = append(out.latMs, float64(d.Nanoseconds())/1e6)
		out.attempted++
		if err != nil {
			errs++
			out.fail("world %d: %v", wi, err)
			continue
		}
		checkWorld(&out, wi, in.ci, cs, wfs)
		n := in.ci.NumJobs()
		out.jobs += n
		maxSum += cs.MaxStretch(in.ci)
		meanSum += cs.SumStretch(in.ci) / float64(n)
		for j := range cs.Completion {
			word(uint64(cs.Placement[j]))
			word(math.Float64bits(cs.Completion[j]))
		}
		fs.MachineFailures += wfs.MachineFailures
		fs.JobFailures += wfs.JobFailures
		fs.Replacements += wfs.Replacements
		fs.LostWork += wfs.LostWork
		work += in.work
	}
	worlds := float64(len(b.inputs))
	out.stretch = [2]float64{maxSum / worlds, meanSum / worlds}
	out.digest = h.Sum64()
	if tr != nil {
		out.layers = b.layers(tr.spans, errs, fs, work)
	}
	return out
}

// checkWorld checks one world's schedule. A batch-path schedule must pass
// ClusterSchedule.Validate. The fault loop's schedule carries placements,
// completions and per-node job lists but no slice timetables (a job
// interrupted and re-placed has no single timetable), so its partition of
// the jobs over the nodes is checked directly.
func checkWorld(out *passOut, wi int, ci *model.ClusterInstance, cs *model.ClusterSchedule, fs cluster.FaultStats) {
	batch := true
	for _, s := range cs.NodeSched {
		batch = batch && s != nil
	}
	if batch {
		err := cs.Validate(ci, 1e-9)
		out.check(err == nil, "world %d: %v", wi, err)
	} else {
		out.check(partitioned(ci, cs), "world %d: jobs not partitioned over the nodes", wi)
	}
	low := math.Inf(1)
	for j := range ci.Jobs {
		low = min(low, cs.Stretch(ci, model.JobID(j)))
	}
	out.check(low >= 1-1e-9, "world %d: a job has stretch %v < 1", wi, low)
	out.check(fs.Replacements == fs.JobFailures,
		"world %d: %d replacements for %d job failures", wi, fs.Replacements, fs.JobFailures)
}

// partitioned reports whether every job is listed once, on the node it was
// placed on, with a finite completion.
func partitioned(ci *model.ClusterInstance, cs *model.ClusterSchedule) bool {
	seen := make([]bool, ci.NumJobs())
	for ni, ids := range cs.NodeJobs {
		for _, g := range ids {
			if int(g) >= len(seen) || seen[g] || cs.Placement[g] != ni {
				return false
			}
			seen[g] = true
		}
	}
	for j, ok := range seen {
		if !ok || math.IsNaN(cs.Completion[j]) || math.IsInf(cs.Completion[j], 0) {
			return false
		}
	}
	return true
}

// layers reads one traced pass: span times in ms per pass, probe counts and
// the summed fault counters.
func (b *clusterBench) layers(spans []span, errs int, fs cluster.FaultStats, work float64) map[string]float64 {
	total, self := layerTimes(spans)
	p := b.probe
	m := map[string]float64{
		"cluster.run_ms":          total["cluster.run"],
		"cluster.self_ms":         self["cluster.run"],
		"cluster.worlds":          float64(len(b.inputs)),
		"cluster.world_errors":    float64(errs),
		"cluster.place_calls":     float64(p.placeCalls),
		"cluster.local_run_ms":    total["cluster.local_run"],
		"cluster.local_run_calls": float64(p.localRuns),
		"cluster.less_calls":      float64(p.lessCalls),
		"fault.machine_failures":  float64(fs.MachineFailures),
		"fault.job_failures":      float64(fs.JobFailures),
		"fault.replacements":      float64(fs.Replacements),
		"fault.lost_work":         fs.LostWork,
		"fault.useful_work_ratio": work / (work + fs.LostWork),
	}
	for _, lb := range faultBalancers {
		m["cluster.place_ms."+lb] = total["cluster.place."+lb]
	}
	return m
}

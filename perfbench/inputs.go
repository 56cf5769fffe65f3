package main

import (
	"fmt"
	"math/rand"
	"sort"

	"stretchsched/internal/model"
	"stretchsched/internal/serve"
	"stretchsched/internal/workload"
)

// Every input derives from the run seed through subSeed, so one seed
// always yields the same inputs and two seeds share none: stream tags keep
// the draws of different input kinds apart.
const (
	tagStream = iota + 1
	tagBurst
	tagWorld
	tagBalancer
	tagFaults
)

// subSeed derives the seed of input k of kind tag from the run seed with
// the SplitMix64 finaliser.
func subSeed(seed int64, tag, k int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(tag)*0xbf58476d1ce4e5b9 + uint64(k)*0x94d049bb133111eb
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1)
}

// The serving daemon's platform is part of its configuration, not of its
// traffic: stretchd generates it from its workload flags. The serve
// workloads therefore run on fixed platforms and draw only the requests
// from the run seed.
var (
	// grippsShape is stretchd's default platform (6 sites, 12 databanks,
	// availability 0.5, density 0.8, -seed 1).
	grippsShape = workload.Config{Sites: 6, Databanks: 12, Availability: 0.5, Density: 0.8, Seed: 1}
	// paperShape is the paper's 3-site instance shape of the online
	// event-solve benchmark (seed 2006, sizes 10–200 MB).
	paperShape = workload.Config{Sites: 3, Databanks: 3, Availability: 0.6, Density: 1.5,
		SizeRange: [2]float64{10, 200}, Seed: 20_06}
)

// platformOf generates shape's platform and the databank sizes its
// generator drew, read back from the jobs of a large instance (the
// generator draws the platform before the jobs, so the platform does not
// depend on the number of jobs).
func platformOf(shape workload.Config) (*model.Platform, []float64, error) {
	shape.TargetJobs = 5000
	inst, err := shape.Generate()
	if err != nil {
		return nil, nil, err
	}
	sizes := make([]float64, inst.Platform.NumDatabanks())
	for _, j := range inst.Jobs {
		sizes[j.Databank] = j.Size
	}
	for d, s := range sizes {
		if s == 0 {
			return nil, nil, fmt.Errorf("databank %d has no job to read its size from", d)
		}
	}
	return inst.Platform, sizes, nil
}

// arrivals draws exactly n jobs of the arrival process the workload
// generator uses on platform p — per-databank Poisson arrivals at rate
// density·aggregate speed/size, each job as large as its databank — over
// the window in which n jobs are expected. Conditioning the Poisson process
// on its count keeps the amount of work the same for every seed: each job
// picks its databank with probability proportional to the databank's rate
// and its release uniformly in the window. Jobs come back in release order.
func arrivals(p *model.Platform, sizes []float64, density float64, n int, rng *rand.Rand) []model.Job {
	rates := make([]float64, len(sizes))
	total := 0.0
	for d, w := range sizes {
		rates[d] = density * p.AggregateSpeed(model.DatabankID(d)) / w
		total += rates[d]
	}
	horizon := float64(n) / total
	jobs := make([]model.Job, n)
	for i := range jobs {
		u, d := rng.Float64()*total, 0
		for d < len(rates)-1 && u >= rates[d] {
			u -= rates[d]
			d++
		}
		jobs[i] = model.Job{Release: rng.Float64() * horizon, Size: sizes[d], Databank: model.DatabankID(d)}
	}
	sort.SliceStable(jobs, func(a, b int) bool { return jobs[a].Release < jobs[b].Release })
	return jobs
}

// sustainedStream is one stream of n jobs on platform p.
func sustainedStream(p *model.Platform, sizes []float64, density float64, n int, seed int64) []serve.SubmitRequest {
	return requests(arrivals(p, sizes, density, n, rand.New(rand.NewSource(seed))), 0)
}

// burstStream concatenates bursts of perBurst jobs on platform p, burst k
// drawn from its own derived seed. A burst is released once the previous
// one has certainly drained: the top-priority job always holds at least
// one machine, so a burst's total work over the slowest machine's speed
// bounds its drain time. starts holds each burst's first request index.
func burstStream(p *model.Platform, sizes []float64, density float64, bursts, perBurst int, seed int64) (reqs []serve.SubmitRequest, starts []int) {
	slowest := p.Machines()[0].Speed
	for _, m := range p.Machines() {
		slowest = min(slowest, m.Speed)
	}
	offset := 0.0
	for k := 0; k < bursts; k++ {
		jobs := arrivals(p, sizes, density, perBurst, rand.New(rand.NewSource(subSeed(seed, tagBurst, k))))
		starts = append(starts, len(reqs))
		reqs = append(reqs, requests(jobs, offset)...)
		work := 0.0
		for _, j := range jobs {
			work += j.Size
		}
		offset += jobs[len(jobs)-1].Release + work/slowest
	}
	return reqs, starts
}

func requests(jobs []model.Job, offset float64) []serve.SubmitRequest {
	out := make([]serve.SubmitRequest, len(jobs))
	for i, j := range jobs {
		out[i] = serve.SubmitRequest{Name: j.Name, Size: j.Size, Databank: j.Databank, Release: offset + j.Release}
	}
	return out
}

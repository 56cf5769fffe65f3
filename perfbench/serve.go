package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"stretchsched/internal/core"
	"stretchsched/internal/model"
	"stretchsched/internal/offline"
	"stretchsched/internal/online"
	"stretchsched/internal/serve"
	"stretchsched/internal/workload"
)

// serveBench drives a serve.Loop configured as stretchd configures it,
// in-process: one client goroutine submits the stream in release order,
// waiting for each call to return (a closed loop with one client), then
// drains the loop.
type serveBench struct {
	name     string
	policy   string
	exact    bool // exact rational step-2 solves (stretchd -exact)
	operator bool // status polls, scrapes, schedule reads and checkpoints
	gen      func(seed int64) (*model.Platform, []serve.SubmitRequest, []int, error)
	dir      string

	platform *model.Platform
	reqs     []serve.SubmitRequest
	starts   []int // first request of each burst; nil for one stream

	loop  *serve.Loop
	log   *serve.LogFile
	probe *serveProbe
	tr    *tracer
}

// Operator traffic per submission count.
const (
	scrapeEvery     = 100  // Snapshot + Prometheus, and a Schedule read
	checkpointEvery = 1000 // Checkpoint + WriteFile
)

func (b *serveBench) logPath() string { return filepath.Join(b.dir, b.name+"-decisions.log") }

func (b *serveBench) checkpointPath(i int) string {
	return filepath.Join(b.dir, fmt.Sprintf("%s-checkpoint-%d.json", b.name, i))
}

func (b *serveBench) setup(seed int64) error {
	p, reqs, starts, err := b.gen(seed)
	if err != nil {
		return err
	}
	b.platform, b.reqs, b.starts = p, reqs, starts
	return b.prepare(nil)
}

func (b *serveBench) prepare(tr *tracer) error {
	if b.log != nil {
		b.log.Close()
		b.log = nil
	}
	if err := os.Remove(b.logPath()); err != nil && !os.IsNotExist(err) {
		return err
	}
	ws := offline.NewWorkspace()
	sched, err := core.New(b.policy, core.WithWorkspace(ws))
	if err != nil {
		return err
	}
	if b.exact {
		sched.(core.PolicyBacked).Policy().(*online.EGDF).Solver.Exact = true
	}
	lf, err := serve.OpenLogFile(b.logPath())
	if err != nil {
		return err
	}
	var logw io.Writer = lf
	b.probe, b.tr = nil, tr
	if tr != nil {
		b.probe = newServeProbe(tr)
		sched = probeScheduler(sched, b.probe)
		logw = &probedLog{inner: lf, p: b.probe}
	}
	loop, err := serve.New(serve.Config{Platform: b.platform, Scheduler: sched, Workspace: ws, DecisionLog: logw})
	if err != nil {
		lf.Close()
		return err
	}
	b.loop, b.log = loop, lf
	return nil
}

// request brackets one client call in a span; the replan interval a
// request leaves open ends with it.
func (b *serveBench) request(name string, call func() error) error {
	i := b.tr.begin(name)
	err := call()
	if b.probe != nil {
		b.probe.closeReplan()
	}
	b.tr.end(i)
	return err
}

// sink keeps scrape output alive.
var sink int

func (b *serveBench) pass() passOut {
	out := passOut{latMs: make([]float64, 0, len(b.reqs))}
	var ckPaths []string
	var prev uint64
	t0 := time.Now()
	for i, r := range b.reqs {
		b.tr.setReq(i)
		var res serve.SubmitResult
		s := time.Now()
		err := b.request("serve.submit", func() (err error) {
			res, err = b.loop.Submit(r)
			return err
		})
		out.latMs = append(out.latMs, msSince(s))
		out.attempted++
		if err != nil {
			out.fail("submit %d: %v", i, err)
			continue
		}
		if !b.operator {
			continue
		}
		// A status poll on the previous submission; the first polls itself.
		if i == 0 {
			prev = res.Seq
		}
		out.attempted++
		if err := b.request("serve.read", func() error { _, err := b.loop.Job(prev); return err }); err != nil {
			out.fail("status poll of job %d: %v", prev, err)
		}
		prev = res.Seq
		if (i+1)%scrapeEvery == 0 {
			out.attempted += 2
			if err := b.request("serve.read", func() error {
				snap, err := b.loop.Snapshot()
				sink += len(snap.Prometheus())
				return err
			}); err != nil {
				out.fail("scrape: %v", err)
			}
			if err := b.request("serve.read", func() error { _, err := b.loop.Schedule(); return err }); err != nil {
				out.fail("schedule read: %v", err)
			}
		}
		if (i+1)%checkpointEvery == 0 {
			path := b.checkpointPath(len(ckPaths))
			out.attempted++
			if err := b.request("serve.checkpoint", func() error {
				ck, err := b.loop.Checkpoint()
				if err != nil {
					return err
				}
				return ck.WriteFile(path)
			}); err != nil {
				out.fail("checkpoint: %v", err)
			} else {
				ckPaths = append(ckPaths, path)
			}
		}
	}
	out.attempted++
	if err := b.request("serve.drain", b.loop.Drain); err != nil {
		out.fail("drain: %v", err)
	}
	out.dur = time.Since(t0)
	var spans []span
	if b.tr != nil {
		spans = b.tr.spans
	}
	b.verify(&out, ckPaths, spans)
	return out
}

// verify checks one pass's outputs: the loop's own accounting, the framed
// decision log, and every checkpoint it persisted.
func (b *serveBench) verify(out *passOut, ckPaths []string, spans []span) {
	n := uint64(len(b.reqs))
	snap, err := b.loop.Snapshot()
	out.check(err == nil, "snapshot: %v", err)
	c := snap.Counters
	out.check(c.Submitted == n && c.CompletedN == n,
		"submitted %d and completed %d of %d jobs", c.Submitted, c.CompletedN, n)
	rejected := uint64(0)
	for _, v := range c.Rejected {
		rejected += v
	}
	out.check(rejected == 0, "typed rejections: %v", c.Rejected)
	out.check(snap.LogErrs == 0, "%d decision-log write errors", snap.LogErrs)
	out.jobs = int(c.CompletedN)

	// A checkpoint attests exactly the records the loop emitted so far.
	ck, err := b.loop.Checkpoint()
	out.check(err == nil, "final checkpoint: %v", err)
	err = b.log.Close()
	b.log = nil
	out.check(err == nil, "closing decision log: %v", err)
	data, err := os.ReadFile(b.logPath())
	out.check(err == nil, "reading decision log: %v", err)
	payload, records, err := serve.ReadLogPayloads(data)
	out.check(err == nil, "decision log: %v", err)
	if ck != nil {
		out.check(records == ck.LogRecords, "decision log holds %d records, the loop emitted %d", records, ck.LogRecords)
	}
	h := fnv.New64a()
	h.Write(payload)
	out.digest = h.Sum64()
	out.stretch = [2]float64{b.checkLog(out, payload, snap), snap.StretchMean}

	ckBytes := 0
	for _, p := range ckPaths {
		data, err := os.ReadFile(p)
		if err == nil {
			_, err = serve.DecodeCheckpoint(data)
		}
		out.check(err == nil, "checkpoint %s: %v", p, err)
		ckBytes += len(data)
	}
	if b.probe != nil {
		out.layers = b.layers(snap, spans, rejected, ckBytes)
	}
}

// checkLog replays the decision log's arrivals and completions: every job
// arrives and completes once, each burst arrives to an empty loop, and the
// logged stretches agree with the loop's own accounting. It returns the
// stretch the workload reports as its maximum: over all jobs for one
// stream, and the mean over bursts of each burst's maximum for a burst
// stream — bursts are independent paper-scale instances, and the maximum
// over all of them would rest on the single worst burst a seed happens to
// draw.
func (b *serveBench) checkLog(out *passOut, payload []byte, snap serve.Snapshot) float64 {
	burstOf := make([]int, len(b.reqs))
	k := 0
	for i := range burstOf {
		for k+1 < len(b.starts) && b.starts[k+1] <= i {
			k++
		}
		burstOf[i] = k
	}
	burstMax := make([]float64, max(len(b.starts), 1))
	active, arrivals, completions, early, bad := 0, 0, 0, 0, 0
	maxAll, sum := 0.0, 0.0
	for _, line := range strings.Split(string(payload), "\n") {
		f := strings.Fields(line)
		if len(f) < 6 || (f[0] != "arrive" && f[0] != "complete") {
			continue
		}
		seq, err := strconv.Atoi(strings.TrimPrefix(f[2], "seq="))
		if err != nil || seq < 0 || seq >= len(b.reqs) {
			bad++
			continue
		}
		k := burstOf[seq]
		if f[0] == "arrive" {
			if len(b.starts) > 0 && b.starts[k] == seq && active != 0 {
				early++
			}
			active++
			arrivals++
			continue
		}
		st, err := strconv.ParseFloat(strings.TrimPrefix(f[5], "stretch="), 64)
		if err != nil {
			bad++
			continue
		}
		active--
		completions++
		sum += st
		maxAll = max(maxAll, st)
		burstMax[k] = max(burstMax[k], st)
	}
	n := len(b.reqs)
	out.check(bad == 0, "decision log: %d malformed arrival or completion lines", bad)
	out.check(arrivals == n && completions == n, "decision log: %d arrivals, %d completions of %d jobs", arrivals, completions, n)
	out.check(early == 0, "decision log: %d bursts arrived before the previous one drained", early)
	out.check(maxAll == snap.StretchMax && math.Abs(sum/float64(n)-snap.StretchMean) <= 1e-12*snap.StretchMean,
		"decision log stretch max %v mean %v, loop reports %v and %v", maxAll, sum/float64(n), snap.StretchMax, snap.StretchMean)
	mean := 0.0
	for _, m := range burstMax {
		mean += m
	}
	return mean / float64(len(burstMax))
}

// layers reads one traced pass: span times in ms per pass, probe counts,
// and the solver counters the loop's snapshot carries.
func (b *serveBench) layers(snap serve.Snapshot, spans []span, rejected uint64, ckBytes int) map[string]float64 {
	total, self := layerTimes(spans)
	p := b.probe
	m := map[string]float64{
		"serve.submit_ms":        total["serve.submit"],
		"serve.drain_ms":         total["serve.drain"],
		"serve.self_ms":          self["serve.submit"] + self["serve.drain"],
		"serve.declog_write_ms":  total["serve.declog_write"],
		"serve.declog_records":   float64(p.records),
		"serve.declog_bytes":     float64(p.bytes),
		"serve.rejected":         float64(rejected),
		"serve.read_ms":          total["serve.read"],
		"serve.checkpoint_ms":    total["serve.checkpoint"],
		"serve.checkpoint_bytes": float64(ckBytes),
		"sim.replan_ms":          total["sim.replan"],
		"sim.active_max":         float64(p.activeMax),
		"policy.on_event_ms":     total["policy.on_event"],
		"policy.on_event_calls":  float64(p.onEvents),
		"policy.less_calls":      float64(p.lessCalls),
	}
	if p.onEvents > 0 {
		m["policy.less_per_event"] = float64(p.lessCalls) / float64(p.onEvents)
		m["sim.active_mean"] = float64(p.activeSum) / float64(p.onEvents)
	}
	st := snap.Solver
	if s, ok := st.Solve[b.policy]; ok {
		m["online.stretch_errs"] = float64(s.StretchErrs)
		m["online.refine_errs"] = float64(s.RefineErrs)
	}
	if st.HasIncremental {
		inc := st.Incremental
		m["lp.cold_solves"] = float64(inc.Cold)
		m["lp.warm_solves"] = float64(inc.Warm)
		m["lp.fallbacks"] = float64(inc.Fallback)
		m["lp.dual_steps"] = float64(inc.DualSteps)
		m["lp.max_eta_len"] = float64(inc.MaxEtaLen)
		if inc.Warm+inc.Fallback > 0 {
			m["lp.warm_ratio"] = float64(inc.Warm) / float64(inc.Warm+inc.Fallback)
		}
		if solves := inc.Cold + inc.Warm + inc.Fallback; solves > 0 {
			m["lp.iters_per_solve"] = float64(inc.ColdIters+inc.WarmIters) / float64(solves)
		}
	}
	if st.HasTiers {
		t := st.Tiers
		m["rat.ops_small"] = float64(t.Ops[0])
		m["rat.ops_medium"] = float64(t.Ops[1])
		m["rat.ops_big"] = float64(t.Ops[2])
		m["rat.promotions"] = float64(t.Promotions[0] + t.Promotions[1] + t.Promotions[2])
		m["rat.demotions"] = float64(t.Demotions[0] + t.Demotions[1] + t.Demotions[2])
	}
	return m
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// The serve workloads' inputs.

const (
	sustainedJobs = 5000 // jobs of the SWRPT overload stream
	burstJobs     = 25   // jobs per burst of the EGDF workloads
	floatBursts   = 150  // bursts per pass of serve-egdf
	exactBursts   = 90   // bursts per pass of serve-egdf-exact
)

// sustainedInputs is stretchd's default platform under one 5000-job stream
// at the generator's density: the platform's databank replication
// overloads its machines, so the active set climbs into the thousands.
func sustainedInputs(seed int64) (*model.Platform, []serve.SubmitRequest, []int, error) {
	p, sizes, err := platformOf(grippsShape)
	if err != nil {
		return nil, nil, nil, err
	}
	return p, sustainedStream(p, sizes, grippsShape.Density, sustainedJobs, subSeed(seed, tagStream, 0)), nil, nil
}

// burstInputs is n paper-scale bursts on shape's platform.
func burstInputs(shape workload.Config, n int) func(int64) (*model.Platform, []serve.SubmitRequest, []int, error) {
	return func(seed int64) (*model.Platform, []serve.SubmitRequest, []int, error) {
		p, sizes, err := platformOf(shape)
		if err != nil {
			return nil, nil, nil, err
		}
		reqs, starts := burstStream(p, sizes, shape.Density, n, burstJobs, seed)
		return p, reqs, starts, nil
	}
}

package serve

import (
	"bytes"
	"io"
	"math"
	"testing"

	"stretchsched/internal/core"
	"stretchsched/internal/model"
	"stretchsched/internal/workload"
)

// step is one client call of a restore script: the submission of job or,
// when job is nil, a Schedule read with the fake clock set to at.
type step struct {
	job *model.Job
	at  float64
}

// readScript submits jobs in order and, between two submissions with
// distinct releases, reads the schedule frac of the way from the first
// release to the second. On a fake clock that read commits the
// completions due by then and leaves the loop between two events.
func readScript(jobs []model.Job, frac float64) []step {
	var s []step
	for k := range jobs {
		s = append(s, step{job: &jobs[k]})
		if k+1 < len(jobs) && jobs[k+1].Release > jobs[k].Release {
			s = append(s, step{at: jobs[k].Release + frac*(jobs[k+1].Release-jobs[k].Release)})
		}
	}
	return s
}

func play(t testing.TB, l *Loop, clk *fakeClock, s step) {
	t.Helper()
	if s.job != nil {
		submitAll(t, l, []model.Job{*s.job})
		return
	}
	clk.Set(s.at)
	if _, err := l.Schedule(); err != nil {
		t.Fatal(err)
	}
}

// cutConfig serves the named registry scheduler on p with the backlog
// guard armed at threshold (0 = off) on a fresh fake clock. The guard
// falls back to ST14, which keeps state of its own, or to SWRPT for ST14.
func cutConfig(t testing.TB, p *model.Platform, name string, threshold int) func(io.Writer) (Config, *fakeClock) {
	return func(log io.Writer) (Config, *fakeClock) {
		t.Helper()
		cfg := Config{Platform: p, Scheduler: mustNew(t, name), DecisionLog: log, Clock: &fakeClock{}}
		if threshold > 0 {
			cfg.BacklogThreshold, cfg.Fallback = threshold, mustNew(t, "ST14")
			if name == "ST14" {
				cfg.Fallback = mustNew(t, "SWRPT")
			}
		}
		return cfg, cfg.Clock.(*fakeClock)
	}
}

func mustNew(t testing.TB, name string) core.Scheduler {
	t.Helper()
	s, err := core.New(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// divergedCuts plays script on a loop built by mk without interruption,
// checkpointing after every step i with cut(i), and drains. Then for each
// checkpoint it restores a fresh loop from the encoded bytes, plays the
// rest of the script and drains. It returns the number of checkpoints and
// the steps whose restored decision log differs from the uninterrupted one.
func divergedCuts(t testing.TB, mk func(io.Writer) (Config, *fakeClock), script []step, cut func(i int) bool) (cuts int, diverged []int) {
	t.Helper()
	type snap struct {
		step    int
		ck      []byte
		logSize int
	}
	var logA bytes.Buffer
	cfg, clk := mk(&logA)
	loopA, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var snaps []snap
	for i, s := range script {
		play(t, loopA, clk, s)
		if !cut(i) {
			continue
		}
		ck, err := loopA.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		enc, err := ck.Encode()
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, snap{i, enc, logA.Len()})
	}
	if err := loopA.Drain(); err != nil {
		t.Fatal(err)
	}
	for _, c := range snaps {
		logB := bytes.NewBuffer(append([]byte(nil), logA.Bytes()[:c.logSize]...))
		cfg, clk := mk(logB)
		ck, err := DecodeCheckpoint(c.ck)
		if err != nil {
			t.Fatal(err)
		}
		loopB, err := Restore(cfg, ck)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range script[c.step+1:] {
			play(t, loopB, clk, s)
		}
		if err := loopB.Drain(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(logB.Bytes(), logA.Bytes()) {
			diverged = append(diverged, c.step)
		}
	}
	return len(snaps), diverged
}

// cutWorkload is the stream the every-cut test and FuzzServeRestore cut:
// 3 sites, 8 databanks, density 0.7, about 20 jobs. A job's size is its
// databank's, and with 8 sizes the smallest job seen is often not live.
func cutWorkload(t testing.TB, seed int64) *model.Instance {
	t.Helper()
	inst, err := workload.Config{
		Sites: 3, Databanks: 8, Availability: 0.6, Density: 0.7,
		TargetJobs: 20, Seed: seed,
	}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// policyBacked returns the registry schedulers the loop serves.
func policyBacked(t testing.TB) []string {
	var names []string
	for _, name := range core.Names() {
		if _, ok := mustNew(t, name).(core.PolicyBacked); ok {
			names = append(names, name)
		}
	}
	return names
}

// TestEveryCutRestore: for every policy-backed registry scheduler, with
// the backlog guard off and on, a daemon checkpointed after any submission
// or between two events, restored and fed the rest of the stream must
// write the uninterrupted decision log byte for byte. The cuts between
// events sit at the midpoints of consecutive releases, reached by a
// Schedule read on the fake clock. A policy's cross-event state is not a
// function of the live jobs: Online-EGDF and Bender98 keep the ranks and
// deadlines of the last arrival, Bender02 and ST14 the alone times of
// completed jobs, and under the guard a policy sits out degraded events.
// Seeds 3–6 keep the test near 2 s: seed 2 alone, a 32-job stream with a
// deep backlog, takes 4 s under Online-EGDF.
func TestEveryCutRestore(t *testing.T) {
	for _, name := range policyBacked(t) {
		t.Run(name, func(t *testing.T) {
			cuts, diverged := 0, 0
			for seed := int64(3); seed <= 6; seed++ {
				inst := cutWorkload(t, seed)
				script := readScript(inst.Jobs, 0.5)
				for _, threshold := range []int{0, 3} {
					n, bad := divergedCuts(t, cutConfig(t, inst.Platform, name, threshold), script,
						func(int) bool { return true })
					cuts += n
					diverged += len(bad)
					if len(bad) > 0 {
						t.Errorf("seed %d, threshold %d: restores after steps %v diverge", seed, threshold, bad)
					}
				}
			}
			t.Logf("%d cuts, %d diverge", cuts, diverged)
		})
	}
}

// TestST14RestoreKeepsSmallestAlone: ST14's size classes are relative to
// the smallest alone time it has seen. Job A (size 1) completes before B
// and C arrive, so a restored ST14 that rebuilt that minimum from the live
// jobs alone (1.5) would put C in B's class, ahead of D, and complete C
// at 6.4 where the uninterrupted loop completes D at 5.6.
func TestST14RestoreKeepsSmallestAlone(t *testing.T) {
	p, err := model.Uniform([]float64{1})
	if err != nil {
		t.Fatal(err)
	}
	jobs := []model.Job{
		{Name: "A", Size: 1, Release: 0},
		{Name: "D", Size: 3.1, Release: 0},
		{Name: "B", Size: 1.5, Release: 2},
		{Name: "C", Size: 2.9, Release: 2},
	}
	cfg := func(log io.Writer) Config {
		return Config{Platform: p, Scheduler: mustNew(t, "ST14"), DecisionLog: log}
	}
	var logA bytes.Buffer
	loop, err := New(cfg(&logA))
	if err != nil {
		t.Fatal(err)
	}
	submitAll(t, loop, jobs)
	ck, err := loop.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	enc, err := ck.Encode()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeCheckpoint(enc)
	if err != nil {
		t.Fatal(err)
	}
	var logB bytes.Buffer
	restored, err := Restore(cfg(&logB), dec)
	if err != nil {
		t.Fatal(err)
	}
	cut := logA.Len()
	if err := loop.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := restored.Drain(); err != nil {
		t.Fatal(err)
	}
	if want := logA.String()[cut:]; logB.String() != want {
		t.Fatalf("restored drain diverges at %s", firstDiff(logB.String(), want))
	}
}

// FuzzServeRestore is the every-cut restore check under the fuzzer: the
// inputs pick a policy-backed scheduler, a workload seed, a guard
// threshold (0 = off), the step after which to checkpoint, and how far
// between two releases the script's schedule reads fall. The restored
// decision log must equal the uninterrupted one.
func FuzzServeRestore(f *testing.F) {
	// Restores that diverged before the checkpoint carried policy state and
	// the running order. policyBacked sorts Bender02 first and ST14 seventh.
	f.Add(uint8(0), uint8(1), uint8(0), uint16(3), 0.5)  // Bender02
	f.Add(uint8(6), uint8(4), uint8(0), uint16(23), 0.5) // ST14
	f.Fuzz(func(t *testing.T, pick, seed, threshold uint8, cut uint16, frac float64) {
		names := policyBacked(t)
		name := names[int(pick)%len(names)]
		frac = math.Abs(math.Mod(frac, 1))
		if math.IsNaN(frac) {
			frac = 0.5
		}
		inst := cutWorkload(t, int64(seed%32))
		script := readScript(inst.Jobs, frac)
		at := int(cut) % len(script)
		_, bad := divergedCuts(t, cutConfig(t, inst.Platform, name, int(threshold)%8), script,
			func(i int) bool { return i == at })
		if len(bad) > 0 {
			t.Fatalf("%s, threshold %d: the restore after step %d diverges", name, int(threshold)%8, at)
		}
	})
}

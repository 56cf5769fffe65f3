package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"stretchsched/internal/core"
	"stretchsched/internal/model"
	"stretchsched/internal/offline"
	"stretchsched/internal/online"
	"stretchsched/internal/workload"
)

// testWorkload generates the small deterministic instance the serve tests
// replay: paper-shaped, with enough concurrency to exercise preemption.
func testWorkload(t testing.TB) *model.Instance {
	t.Helper()
	inst, err := workload.Config{
		Sites: 3, Databanks: 4, Availability: 0.6, Density: 0.7,
		Seed: 11, TargetJobs: 18,
	}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// egdfExactConfig builds a serving config on the exact path: Online-EGDF
// with rational step-2 solves.
func egdfExactConfig(t testing.TB, inst *model.Instance, log io.Writer) Config {
	t.Helper()
	ws := offline.NewWorkspace()
	sched, err := core.New("Online-EGDF", core.WithWorkspace(ws))
	if err != nil {
		t.Fatal(err)
	}
	sched.(core.PolicyBacked).Policy().(*online.EGDF).Solver.Exact = true
	return Config{
		Platform: inst.Platform, Scheduler: sched, Workspace: ws,
		DecisionLog: log,
	}
}

func submitAll(t testing.TB, l *Loop, jobs []model.Job) {
	t.Helper()
	for _, j := range jobs {
		if _, err := l.Submit(SubmitRequest{
			Name: j.Name, Size: j.Size, Databank: j.Databank, Release: j.Release,
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestServeEveryPolicy serves and drains a short stream under every
// registry policy the loop accepts. A stream grows its job slots after the
// policy's Init, which batch runs never do.
func TestServeEveryPolicy(t *testing.T) {
	jobs := testWorkload(t).Jobs[:8]
	names := policyBacked(t)
	if len(names) == 0 {
		t.Fatal("no registry policy is policy-backed")
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			loop, err := New(Config{Platform: testWorkload(t).Platform, Scheduler: mustNew(t, name)})
			if err != nil {
				t.Fatal(err)
			}
			submitAll(t, loop, jobs)
			if err := loop.Drain(); err != nil {
				t.Fatal(err)
			}
			snap, err := loop.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if c := snap.Counters; c.CompletedN != uint64(len(jobs)) || c.Panics != 0 {
				t.Fatalf("%d of %d jobs completed, %d panics", c.CompletedN, len(jobs), c.Panics)
			}
		})
	}
}

// TestCheckpointRestoreDeterminism is the tentpole acceptance test: a
// daemon checkpointed mid-stream and restored in a fresh process image
// must produce a byte-identical decision log to the uninterrupted run, on
// the exact-mode serving path.
func TestCheckpointRestoreDeterminism(t *testing.T) {
	inst := testWorkload(t)
	jobs := inst.Jobs
	cut := len(jobs) / 2

	// Uninterrupted run.
	var logA bytes.Buffer
	loopA, err := New(egdfExactConfig(t, inst, &logA))
	if err != nil {
		t.Fatal(err)
	}
	submitAll(t, loopA, jobs)
	if err := loopA.Drain(); err != nil {
		t.Fatal(err)
	}
	if snap, err := loopA.Snapshot(); err != nil {
		t.Fatal(err)
	} else if st := snap.Solver; !st.HasTiers || st.Tiers.Total() == 0 {
		t.Fatalf("exact serving counted no rational operations: %+v", st.Tiers)
	}

	// Interrupted run: first half, checkpoint, discard the loop.
	var logB bytes.Buffer
	loopB, err := New(egdfExactConfig(t, inst, &logB))
	if err != nil {
		t.Fatal(err)
	}
	submitAll(t, loopB, jobs[:cut])
	ck, err := loopB.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	enc, err := ck.Encode()
	if err != nil {
		t.Fatal(err)
	}

	// Restored runs: decode from bytes (the full serialisation round trip),
	// fresh workspace and scheduler, replay the second half. The second
	// input carries the Session object of the warm-started solve session
	// that exact serving used to checkpoint; decoding must ignore it. The
	// third lacks the running order and policy state, as older checkpoints
	// do: right after a submission, a fresh policy's replan takes the
	// decision the interrupted one took.
	for _, in := range []struct {
		name string
		enc  []byte
	}{{"current", enc}, {"with-Session", withSession(t, enc)}, {"without-policy-state", without(t, enc, "Running", "PolicyState")}} {
		t.Run(in.name, func(t *testing.T) {
			dec, err := DecodeCheckpoint(in.enc)
			if err != nil {
				t.Fatal(err)
			}
			var logC bytes.Buffer
			loopC, err := Restore(egdfExactConfig(t, inst, &logC), dec)
			if err != nil {
				t.Fatal(err)
			}
			submitAll(t, loopC, jobs[cut:])
			if err := loopC.Drain(); err != nil {
				t.Fatal(err)
			}

			joined := logB.String() + logC.String()
			if joined != logA.String() {
				t.Fatalf("restored decision log diverged from uninterrupted run:\n--- uninterrupted ---\n%s\n--- interrupted+restored ---\n%s",
					firstDiff(logA.String(), joined), firstDiff(joined, logA.String()))
			}

			// The restored daemon's own metrics must agree with the uninterrupted
			// run's (same completions, same quantile stream).
			sa, err := loopA.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			sc, err := loopC.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if sa.StretchMax != sc.StretchMax || sa.StretchP99 != sc.StretchP99 ||
				sa.Counters.CompletedN != sc.Counters.CompletedN {
				t.Fatalf("restored metrics diverged: max %v vs %v, p99 %v vs %v, completed %d vs %d",
					sa.StretchMax, sc.StretchMax, sa.StretchP99, sc.StretchP99,
					sa.Counters.CompletedN, sc.Counters.CompletedN)
			}
		})
	}
}

// withSession returns the encoded checkpoint with a Session object put
// back, shaped as the solve session wrote it: a slot table naming the
// checkpoint's slots, their liveness, an empty free-list and the per-slot
// PrevWork array of older checkpoints.
func withSession(t *testing.T, enc []byte) []byte {
	t.Helper()
	var top map[string]json.RawMessage
	var slots []SlotCk
	if err := json.Unmarshal(enc, &top); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(top["Slots"], &slots); err != nil {
		t.Fatal(err)
	}
	sess := struct {
		Slots    []int
		Live     []bool
		Free     []int
		PrevWork []float64
	}{Free: []int{}}
	for i, sc := range slots {
		sess.Slots = append(sess.Slots, i)
		sess.Live = append(sess.Live, sc.Live)
		sess.PrevWork = append(sess.PrevWork, float64(i)+0.5)
	}
	var err error
	if top["Session"], err = json.Marshal(sess); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(top)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// without returns the encoded checkpoint with the named top-level fields
// deleted; it fails the test when one is absent.
func without(t *testing.T, enc []byte, fields ...string) []byte {
	t.Helper()
	var top map[string]json.RawMessage
	if err := json.Unmarshal(enc, &top); err != nil {
		t.Fatal(err)
	}
	for _, f := range fields {
		if _, ok := top[f]; !ok {
			t.Fatalf("checkpoint has no %s field", f)
		}
		delete(top, f)
	}
	out, err := json.Marshal(top)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRestoreRefusesUnreachableState edits one field of a real 6-job
// checkpoint at a time, of SWRPT unless the row names a stateful policy.
// Each edit is a state no daemon reaches, and Restore must refuse it with
// CodeBadState; every unedited checkpoint restores.
func TestRestoreRefusesUnreachableState(t *testing.T) {
	inst := testWorkload(t)
	cfg := func(name string) Config {
		return Config{Platform: inst.Platform, Scheduler: mustNew(t, name)}
	}
	encoded := map[string][]byte{}
	decode := func(name string) *Checkpoint {
		if encoded[name] == nil {
			loop, err := New(cfg(name))
			if err != nil {
				t.Fatal(err)
			}
			submitAll(t, loop, inst.Jobs[:6])
			ck, err := loop.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if encoded[name], err = ck.Encode(); err != nil {
				t.Fatal(err)
			}
		}
		ck, err := DecodeCheckpoint(encoded[name])
		if err != nil {
			t.Fatal(err)
		}
		return ck
	}
	for _, name := range []string{"SWRPT", "Online-EGDF", "Bender98", "Bender02", "ST14"} {
		ck := decode(name)
		if _, ok := ck.PolicyState[name]; !ok && name != "SWRPT" {
			t.Fatalf("%s checkpoint carries no policy state", name)
		}
		if _, err := Restore(cfg(name), ck); err != nil {
			t.Fatalf("unedited %s checkpoint: %v", name, err)
		}
	}
	ck := decode("SWRPT")
	// a and b are two live slots, b the one released last.
	a, b := -1, -1
	for i, sc := range ck.Slots {
		if !sc.Live {
			continue
		}
		if a == -1 {
			a = i
		} else if b == -1 || sc.Release > ck.Slots[b].Release {
			b = i
		}
	}
	if b == -1 || !(ck.Slots[b].Release > 0) {
		t.Fatalf("checkpoint needs two live slots, one released after 0: %+v", ck.Slots)
	}
	// state edits the named policy's state as a generic JSON object, then
	// replaces each "NaN" string in it by a bare NaN, which JSON lacks.
	state := func(name string, edit func(st map[string]any)) func(ck *Checkpoint) {
		return func(ck *Checkpoint) {
			var st map[string]any
			if err := json.Unmarshal(ck.PolicyState[name], &st); err != nil {
				t.Fatal(err)
			}
			edit(st)
			b, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			ck.PolicyState[name] = bytes.ReplaceAll(b, []byte(`"NaN"`), []byte("NaN"))
		}
	}
	for _, row := range []struct {
		name  string
		sched string // "" = SWRPT
		edit  func(ck *Checkpoint)
	}{
		{"negative clock", "", func(ck *Checkpoint) { ck.Now = -100 }},
		{"infinite clock", "", func(ck *Checkpoint) { ck.Now = math.Inf(1) }},
		{"clock before a live release", "", func(ck *Checkpoint) { ck.Now = ck.Slots[b].Release / 2 }},
		{"remaining above size", "", func(ck *Checkpoint) { ck.Slots[a].Remaining = 1000 * ck.Slots[a].Size }},
		{"negative remaining", "", func(ck *Checkpoint) { ck.Slots[a].Remaining = -1 }},
		{"repeated seq", "", func(ck *Checkpoint) { ck.Slots[b].Seq = ck.Slots[a].Seq }},
		{"seq at NextSeq", "", func(ck *Checkpoint) { ck.Slots[a].Seq = ck.NextSeq }},
		{"stretch quantile target", "", func(ck *Checkpoint) { ck.QStretch[1].P = 0.5 }},
		{"flow quantile target", "", func(ck *Checkpoint) { ck.QFlow[2].P = 0.9 }},
		{"running slot repeated", "", func(ck *Checkpoint) { ck.Running = append(ck.Running, ck.Running[0]) }},
		{"running slot outside the slot table", "", func(ck *Checkpoint) { ck.Running[0] = model.JobID(len(ck.Slots)) }},
		{"running slot not live", "", func(ck *Checkpoint) {
			tomb := model.JobID(len(ck.Slots))
			ck.Slots = append(ck.Slots, SlotCk{Name: "done", Size: 1})
			ck.Free = append(ck.Free, tomb)
			ck.Running = []model.JobID{tomb}
		}},
		{"running slot without a machine", "", func(ck *Checkpoint) {
			// A live job the greedy rule starved: the running ones hold
			// every machine it could use.
			for i, sc := range ck.Slots {
				if sc.Live && !slices.Contains(ck.Running, model.JobID(i)) {
					ck.Running = append(ck.Running, model.JobID(i))
					return
				}
			}
			t.Fatal("checkpoint has no starved live job")
		}},
		{"state of a stateless policy", "", func(ck *Checkpoint) {
			ck.PolicyState = map[string]json.RawMessage{"SWRPT": json.RawMessage(`{}`)}
		}},
		{"EGDF rank repeats a slot", "Online-EGDF", state("Online-EGDF", func(st map[string]any) {
			rank := st["Rank"].([]any)
			st["Rank"] = append(rank, rank[0])
		})},
		{"EGDF rank outside the slot table", "Online-EGDF", state("Online-EGDF", func(st map[string]any) {
			st["Rank"].([]any)[0] = 1 << 20
		})},
		{"Bender98 NaN deadline", "Bender98", state("Bender98", func(st map[string]any) {
			st["Deadline"].([]any)[0] = "NaN"
		})},
		{"Bender98 deadlines beyond the slot table", "Bender98", state("Bender98", func(st map[string]any) {
			st["Deadline"] = append(st["Deadline"].([]any), make([]any, 1<<10)...)
		})},
		{"Bender02 alone time zero", "Bender02", state("Bender02", func(st map[string]any) { st["MinAlone"] = 0 })},
		{"Bender02 min above max", "Bender02", state("Bender02", func(st map[string]any) {
			st["MinAlone"] = 2 * st["MaxAlone"].(float64)
		})},
		{"ST14 alone time negative", "ST14", state("ST14", func(st map[string]any) { st["MinAlone"] = -1 })},
	} {
		t.Run(row.name, func(t *testing.T) {
			sched := row.sched
			if sched == "" {
				sched = "SWRPT"
			}
			ck := decode(sched)
			row.edit(ck)
			_, err := Restore(cfg(sched), ck)
			var rej *Rejection
			if !errors.As(err, &rej) || rej.Code != CodeBadState {
				t.Fatalf("err = %v, want %s", err, CodeBadState)
			}
		})
	}
}

// TestRestoreAcceptsClockOneUlpBehindRelease restores a checkpoint whose
// clock a daemon leaves one ulp behind a live release. An idle loop takes a
// long job at 1+2⁻⁵², then a second job arrives at 3+2⁻⁵¹: the driver moves
// the clock by Now + (r − Now), where r − Now = 2+2⁻⁵² rounds to 2 and the
// sum 3+2⁻⁵² rounds to 3. The restored loop must drain exactly as the loop
// it was taken from.
func TestRestoreAcceptsClockOneUlpBehindRelease(t *testing.T) {
	inst := testWorkload(t)
	cfg := func(log io.Writer) Config {
		sched, err := core.New("SWRPT")
		if err != nil {
			t.Fatal(err)
		}
		return Config{Platform: inst.Platform, Scheduler: sched, DecisionLog: log}
	}
	var logA bytes.Buffer
	loop, err := New(cfg(&logA))
	if err != nil {
		t.Fatal(err)
	}
	long, second := inst.Jobs[0], inst.Jobs[1]
	long.Release, long.Size = 1+0x1p-52, 1e6*long.Size
	second.Release = 3 + 0x1p-51
	submitAll(t, loop, []model.Job{long, second})
	ck, err := loop.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	live := 0
	for _, sc := range ck.Slots {
		if sc.Live {
			live++
		}
	}
	if ck.Now != 3 || live != 2 {
		t.Fatalf("checkpoint clock %v with %d live jobs, want 3 with the long job still running", ck.Now, live)
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
		t.Fatalf("restoring a checkpoint the daemon wrote: %v", err)
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

// firstDiff returns a window around the first differing line.
func firstDiff(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range la {
		if i >= len(lb) || la[i] != lb[i] {
			lo := i - 2
			if lo < 0 {
				lo = 0
			}
			hi := i + 3
			if hi > len(la) {
				hi = len(la)
			}
			return fmt.Sprintf("line %d:\n%s", i+1, strings.Join(la[lo:hi], "\n"))
		}
	}
	return a
}

// fakeClock is a test Clock settable from the test goroutine while HTTP
// handlers read it from the server's.
type fakeClock struct {
	mu sync.Mutex
	t  float64
}

func (c *fakeClock) Now() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Set(t float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = t
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(b, out); err != nil {
			t.Fatalf("parsing %s: %v\n%s", url, err, b)
		}
	}
	return resp.StatusCode
}

func postJSON(t *testing.T, url string, body string, out any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(b, out); err != nil {
			t.Fatalf("parsing %s response: %v\n%s", url, err, b)
		}
	}
	return resp.StatusCode
}

// TestHTTPFakeClock drives arrivals and completions over the HTTP API
// against a fake wall clock: jobs complete exactly when the clock passes
// their predicted completion instants.
func TestHTTPFakeClock(t *testing.T) {
	p, err := model.Uniform([]float64{2})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := core.New("SWRPT")
	if err != nil {
		t.Fatal(err)
	}
	clk := &fakeClock{}
	loop, err := New(Config{Platform: p, Scheduler: sched, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(loop.Handler())
	defer srv.Close()

	var sub struct {
		Seq  uint64 `json:"seq"`
		Slot int    `json:"slot"`
	}
	if code := postJSON(t, srv.URL+"/jobs", `{"name":"a","size":4,"databank":0}`, &sub); code != 200 {
		t.Fatalf("POST /jobs = %d", code)
	}
	if sub.Seq != 0 {
		t.Fatalf("first seq = %d", sub.Seq)
	}
	if code := postJSON(t, srv.URL+"/jobs", `{"name":"b","size":2,"databank":0}`, nil); code != 200 {
		t.Fatal("second submit failed")
	}

	var sched1 Schedule
	if code := getJSON(t, srv.URL+"/schedule", &sched1); code != 200 {
		t.Fatalf("GET /schedule = %d", code)
	}
	if len(sched1.Active) != 2 {
		t.Fatalf("active = %d, want 2", len(sched1.Active))
	}

	// Job b (size 2, SWRPT prefers it) runs first at speed 2 → done at t=1;
	// then a (size 4) → done at t=3. Advance past b only.
	clk.Set(2)
	var jb JobState
	if code := getJSON(t, srv.URL+"/jobs/1", &jb); code != 200 {
		t.Fatalf("GET /jobs/1 = %d", code)
	}
	if jb.State != "completed" || jb.Completion != 1 {
		t.Fatalf("job b = %+v, want completed at 1", jb)
	}
	var ja JobState
	if code := getJSON(t, srv.URL+"/jobs/0", &ja); code != 200 {
		t.Fatal("GET /jobs/0 failed")
	}
	if ja.State != "active" {
		t.Fatalf("job a = %+v, want active", ja)
	}

	clk.Set(5)
	if getJSON(t, srv.URL+"/jobs/0", &ja); ja.State != "completed" || ja.Completion != 3 {
		t.Fatalf("job a = %+v, want completed at 3", ja)
	}

	// Metrics reflect both completions.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(mb), "stretchd_jobs_completed_total 2") {
		t.Fatalf("metrics missing completion count:\n%s", mb)
	}

	// Typed rejections: invalid job, unknown job, bad route.
	var he httpError
	if code := postJSON(t, srv.URL+"/jobs", `{"size":-1}`, &he); code != 400 || he.Error.Code != CodeInvalid {
		t.Fatalf("invalid submit: code=%d err=%+v", code, he)
	}
	if code := getJSON(t, srv.URL+"/jobs/99", &he); code != 404 || he.Error.Code != CodeUnknown {
		t.Fatalf("unknown job: code=%d err=%+v", code, he)
	}
	if code := getJSON(t, srv.URL+"/nope", &he); code != 404 {
		t.Fatalf("bad route: code=%d", code)
	}

	// Checkpoint over HTTP parses and round-trips.
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/checkpoint", nil)
	if err != nil {
		t.Fatal(err)
	}
	cresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	cb, _ := io.ReadAll(cresp.Body)
	cresp.Body.Close()
	if cresp.StatusCode != 200 {
		t.Fatalf("POST /checkpoint = %d: %s", cresp.StatusCode, cb)
	}
	if _, err := DecodeCheckpoint(cb); err != nil {
		t.Fatal(err)
	}
}

// TestDrainRejectsAndCompletes: drain finishes pending work and later
// submissions get the typed draining rejection, counted in metrics.
func TestDrainRejectsAndCompletes(t *testing.T) {
	p, err := model.Uniform([]float64{1})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := core.New("FCFS")
	if err != nil {
		t.Fatal(err)
	}
	loop, err := New(Config{Platform: p, Scheduler: sched})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loop.Submit(SubmitRequest{Size: 3}); err != nil {
		t.Fatal(err)
	}
	if err := loop.Drain(); err != nil {
		t.Fatal(err)
	}
	_, err = loop.Submit(SubmitRequest{Size: 1})
	var rej *Rejection
	if !errors.As(err, &rej) || rej.Code != CodeDraining {
		t.Fatalf("post-drain submit error = %v, want %s", err, CodeDraining)
	}
	snap, err := loop.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Counters.CompletedN != 1 || snap.Active != 0 {
		t.Fatalf("after drain: completed=%d active=%d", snap.Counters.CompletedN, snap.Active)
	}
	if snap.Counters.Rejected[CodeDraining] != 1 {
		t.Fatalf("draining rejections = %d, want 1", snap.Counters.Rejected[CodeDraining])
	}
}

// TestRejectedSubmitLeavesLoopUnchanged: an invalid submission is refused
// before the loop moves. A far-future release must not advance the clock,
// commit completions or write decisions on the way to its refusal.
func TestRejectedSubmitLeavesLoopUnchanged(t *testing.T) {
	inst := testWorkload(t)
	var log bytes.Buffer
	loop, err := New(egdfExactConfig(t, inst, &log))
	if err != nil {
		t.Fatal(err)
	}
	submitAll(t, loop, inst.Jobs[:6])
	before, err := loop.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	logBefore := append([]byte(nil), log.Bytes()...)
	for _, req := range []SubmitRequest{
		{Size: 10, Databank: 999, Release: before.Now + 1e6},
		{Size: -1, Databank: 0, Release: before.Now + 1e6},
		{Size: 10, Databank: 0, Release: math.NaN()},
		{Size: 10, Databank: 0, Release: math.Inf(1)},
	} {
		_, err := loop.Submit(req)
		var rej *Rejection
		if !errors.As(err, &rej) || rej.Code != CodeInvalid {
			t.Fatalf("Submit(%+v) error = %v, want %s", req, err, CodeInvalid)
		}
	}
	after, err := loop.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if after.Now != before.Now || after.Counters.CompletedN != before.Counters.CompletedN {
		t.Fatalf("rejected submissions moved the loop: now %v -> %v, completed %d -> %d",
			before.Now, after.Now, before.Counters.CompletedN, after.Counters.CompletedN)
	}
	if !bytes.Equal(log.Bytes(), logBefore) {
		t.Fatalf("rejected submissions appended %d decision-log bytes", log.Len()-len(logBefore))
	}
	if after.Counters.Rejected[CodeInvalid] != 4 {
		t.Fatalf("invalid rejections = %d, want 4", after.Counters.Rejected[CodeInvalid])
	}
}

// failWriter fails after n writes.
type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("disk full")
	}
	w.n--
	return len(p), nil
}

// TestDecisionLogErrorsSurface: a failing decision-log sink must turn the
// drain into a typed error — write failures are never swallowed.
func TestDecisionLogErrorsSurface(t *testing.T) {
	p, err := model.Uniform([]float64{1})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := core.New("FCFS")
	if err != nil {
		t.Fatal(err)
	}
	loop, err := New(Config{Platform: p, Scheduler: sched, DecisionLog: &failWriter{n: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loop.Submit(SubmitRequest{Size: 2}); err != nil {
		t.Fatal(err)
	}
	err = loop.Drain()
	var rej *Rejection
	if !errors.As(err, &rej) || rej.Code != CodeLogWrite {
		t.Fatalf("drain with failing log = %v, want %s", err, CodeLogWrite)
	}
}

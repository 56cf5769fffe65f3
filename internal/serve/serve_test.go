package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
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
	served := 0
	for _, name := range core.Names() {
		sched, err := core.New(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := sched.(core.PolicyBacked); !ok {
			continue
		}
		t.Run(name, func(t *testing.T) {
			loop, err := New(Config{Platform: testWorkload(t).Platform, Scheduler: sched})
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
		served++
	}
	if served == 0 {
		t.Fatal("no registry policy is policy-backed")
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
	// that exact serving used to checkpoint; decoding must ignore it.
	for _, in := range []struct {
		name string
		enc  []byte
	}{{"current", enc}, {"with-Session", withSession(t, enc)}} {
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

// Package serve is the long-running scheduler daemon behind cmd/stretchd:
// a single event loop over the library's online scheduling stack (a
// core-constructed policy on a sim.Driver over a model.Stream), admitting
// job submissions, emitting placement and preemption decisions at every
// arrival and completion, and keeping bounded-memory accounting of
// completed jobs (ring-buffer recents plus P² streaming quantiles).
//
// The loop is deterministic by construction: virtual time advances only to
// event instants, completions are committed at exactly the predicted
// instants (ties in priority order), and every decision is appended to a
// decision log whose byte content a checkpoint-restored daemon reproduces
// exactly (see Checkpoint). Some policies decide by state that is not a
// function of the live jobs: Online-EGDF and Bender98 re-solve only at
// arrivals and keep their ranks and deadlines across completions, and
// Bender02 and ST14 remember the alone times of completed jobs. A
// checkpoint carries that state (sim.StatefulPolicy) and the running order
// in effect, so a restored daemon takes identical decisions without
// re-solving, also when the checkpoint falls between two events.
package serve

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"stretchsched/internal/core"
	"stretchsched/internal/model"
	"stretchsched/internal/offline"
	"stretchsched/internal/sim"
	"stretchsched/internal/stats"
)

// Rejection is the typed refusal the daemon returns instead of silently
// dropping work — the serving counterpart of the noswallow discipline.
type Rejection struct {
	Code   string // stable machine-readable reason
	Reason string // human detail
}

// Rejection codes.
const (
	CodeDraining  = "draining"
	CodeDeadline  = "deadline_exceeded"
	CodeInvalid   = "invalid_job"
	CodeUnknown   = "unknown_job"
	CodeBadState  = "bad_checkpoint"
	CodeLogWrite  = "log_write"
	CodeExhausted = "drain_stalled"
	CodePanic     = "loop_panic"
	CodePoisoned  = "loop_poisoned"
)

func (r *Rejection) Error() string { return fmt.Sprintf("serve: %s: %s", r.Code, r.Reason) }

func reject(code, format string, args ...any) *Rejection {
	return &Rejection{Code: code, Reason: fmt.Sprintf(format, args...)}
}

// Clock supplies the daemon's notion of "now" in wall-clock mode. The
// default (nil) is the event clock: time advances only to submission
// releases and predicted completions, which is what replay, benchmarks and
// the determinism tests use.
type Clock interface {
	Now() float64
}

// Config assembles a Loop.
type Config struct {
	Platform    *model.Platform
	Scheduler   core.Scheduler     // must be core.PolicyBacked (list policies serve; planners do not)
	Workspace   *offline.Workspace // the scheduler's workspace; feeds /metrics and checkpoints
	Clock       Clock              // nil = virtual event clock
	Deadline    time.Duration      // per-request admission deadline (0 = 2s default)
	RecentCap   int                // completed-job ring capacity (0 = 1024)
	DecisionLog io.Writer          // decision sink; nil discards

	// BacklogThreshold arms the backlog guard: at every decision instant
	// where the active set exceeds it, the loop schedules with the cheap
	// Fallback policy instead of the configured scheduler, reverting as soon
	// as the backlog is back within bounds. Degraded mode is a pure function
	// of the current active count — no hysteresis state — so a restored
	// daemon recomputes it instead of trusting the checkpoint. 0 disables.
	BacklogThreshold int
	// Fallback is the guard's degraded-mode scheduler; it must be
	// policy-backed. Nil defaults to SWRPT.
	Fallback core.Scheduler

	// CheckpointPath, when non-empty, makes POST /checkpoint persist the
	// encoded checkpoint to this path (atomic temp+rename write) before
	// returning it — the crash-safe server-side variant of client-side
	// checkpoint capture.
	CheckpointPath string
}

// defaultDeadline bounds how long a request may wait for the loop.
const defaultDeadline = 2 * time.Second

// Completed is the bounded-memory record of a finished job.
type Completed struct {
	Seq        uint64
	Name       string
	Release    float64
	Size       float64
	Databank   model.DatabankID
	Completion float64
	Flow       float64
	Stretch    float64
}

// Counters are the daemon's monotone event counters.
type Counters struct {
	Submitted   uint64
	CompletedN  uint64
	Events      uint64
	Checkpoints uint64
	Switches    uint64            // backlog-guard policy switches (both directions)
	Panics      uint64            // panics recovered in loop entry points
	Rejected    map[string]uint64 // by rejection code
}

// Loop is the daemon state machine. All state is owned by whichever
// goroutine holds the admission token (a one-slot channel used as a lock
// with deadline), so handlers time out with a typed rejection instead of
// queueing unboundedly.
type Loop struct {
	cfg    Config
	name   string
	pol    sim.Policy
	stream *model.Stream
	drv    *sim.Driver

	fbName   string     // backlog-guard fallback policy name ("" = guard off)
	fbPol    sim.Policy // fallback policy instance
	degraded bool       // last evaluated guard mode

	tok chan struct{} // one-slot admission token

	seq      uint64                 // next daemon job sequence number
	slotSeq  []uint64               // slot → daemon sequence of its live job
	activeAt map[uint64]model.JobID // daemon sequence → slot, live jobs only

	recents *stats.Ring[Completed]
	qs      quantiles // stretch
	qf      quantiles // flow time

	counters Counters
	draining bool
	poisoned bool // a recovered panic may have left half-applied state

	logw       io.Writer
	logErrs    int
	lastLogErr error
	logBuf     []byte
	logLines   uint64 // decision lines emitted; checkpoints attest this count
}

// quantiles bundles the streaming estimators of one metric.
type quantiles struct {
	p50, p90, p99 *stats.P2Quantile
	sum, max      float64
	n             uint64
}

// quantileLevels are the targets of p50, p90 and p99, in checkpoint order.
var quantileLevels = [3]float64{0.5, 0.9, 0.99}

func newQuantiles() quantiles {
	return quantiles{
		p50: stats.NewP2Quantile(quantileLevels[0]),
		p90: stats.NewP2Quantile(quantileLevels[1]),
		p99: stats.NewP2Quantile(quantileLevels[2]),
	}
}

func (q *quantiles) add(x float64) {
	q.p50.Add(x)
	q.p90.Add(x)
	q.p99.Add(x)
	q.sum += x
	if q.n == 0 || x > q.max {
		q.max = x
	}
	q.n++
}

func (q *quantiles) mean() float64 {
	if q.n == 0 {
		return 0
	}
	return q.sum / float64(q.n)
}

// New builds a loop from cfg. The scheduler must be policy-backed: the
// daemon drives the greedy spatial rule itself and has no use for planner
// timetables it cannot re-enter mid-interval.
func New(cfg Config) (*Loop, error) {
	if cfg.Platform == nil {
		return nil, fmt.Errorf("serve: config needs a platform")
	}
	pb, ok := cfg.Scheduler.(core.PolicyBacked)
	if !ok {
		name := "<nil>"
		if cfg.Scheduler != nil {
			name = cfg.Scheduler.Name()
		}
		return nil, fmt.Errorf("serve: scheduler %s is not policy-backed; the daemon serves list policies", name)
	}
	if cfg.Deadline <= 0 {
		cfg.Deadline = defaultDeadline
	}
	if cfg.RecentCap <= 0 {
		cfg.RecentCap = 1024
	}
	l := &Loop{
		cfg:      cfg,
		name:     cfg.Scheduler.Name(),
		pol:      pb.Policy(),
		stream:   model.NewStream(cfg.Platform),
		tok:      make(chan struct{}, 1),
		activeAt: map[uint64]model.JobID{},
		recents:  stats.NewRing[Completed](cfg.RecentCap),
		qs:       newQuantiles(),
		qf:       newQuantiles(),
		logw:     cfg.DecisionLog,
	}
	l.counters.Rejected = map[string]uint64{}
	l.drv = sim.NewDriver(l.stream.Instance())
	l.pol.Init(l.stream.Instance())
	if cfg.BacklogThreshold > 0 {
		fb := cfg.Fallback
		if fb == nil {
			def, err := core.New("SWRPT")
			if err != nil {
				return nil, fmt.Errorf("serve: building default fallback: %w", err)
			}
			fb = def
		}
		fpb, ok := fb.(core.PolicyBacked)
		if !ok {
			return nil, fmt.Errorf("serve: fallback scheduler %s is not policy-backed", fb.Name())
		}
		if fb.Name() == l.name {
			return nil, fmt.Errorf("serve: fallback scheduler %s is the primary scheduler; the guard would be a no-op", fb.Name())
		}
		l.fbName = fb.Name()
		l.fbPol = fpb.Policy()
		l.fbPol.Init(l.stream.Instance())
	}
	l.tok <- struct{}{}
	return l, nil
}

// guardMode reports whether the backlog guard calls for degraded mode at
// this instant — a pure function of the live active count, so restored
// daemons recompute it rather than decode it.
func (l *Loop) guardMode() bool {
	return l.cfg.BacklogThreshold > 0 && l.drv.NumActive() > l.cfg.BacklogThreshold
}

// activePolicy evaluates the guard at a decision instant, counting and
// logging mode transitions, and returns the policy this decision must use.
func (l *Loop) activePolicy() sim.Policy {
	if want := l.guardMode(); want != l.degraded {
		l.degraded = want
		l.counters.Switches++
		mode, pol := "normal", l.name
		if want {
			mode, pol = "degraded", l.fbName
		}
		l.logf("guard t=%s mode=%s policy=%s active=%d threshold=%d",
			ftoa(l.drv.Now()), mode, pol, l.drv.NumActive(), l.cfg.BacklogThreshold)
	}
	if l.degraded {
		return l.fbPol
	}
	return l.pol
}

// acquire takes the admission token within d, or returns the typed
// deadline rejection. Callers must release() on every success path.
func (l *Loop) acquire(d time.Duration) error {
	if d <= 0 {
		d = l.cfg.Deadline
	}
	select {
	case <-l.tok:
		return nil
	default:
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-l.tok:
		return nil
	case <-t.C:
		// Counters are owned by the token holder, which this goroutine never
		// became — the rejection is typed and returned, not tallied.
		return reject(CodeDeadline, "loop busy for %v", d)
	}
}

func (l *Loop) release() { l.tok <- struct{}{} }

// recoverPanic converts a panic inside a loop entry point into a typed
// 500 rejection instead of killing the daemon: the panic is counted,
// logged as a decision-stream event, and the caller's error is replaced.
// It must be deferred AFTER the release defer, so it runs first and the
// token is returned with the loop's state settled.
//
// A panic may have unwound mid-mutation (slot added but sequence
// bookkeeping not yet applied, completion committed but not logged), so
// the loop is poisoned: every subsequent mutating entry point — Submit,
// Drain, Checkpoint — is refused with CodePoisoned until the operator
// restarts or restores from the last good checkpoint. Read paths keep
// serving (with the clock frozen) so /metrics can report the poisoning.
func (l *Loop) recoverPanic(err *error) {
	rec := recover()
	if rec == nil {
		return
	}
	l.poisoned = true
	l.counters.Panics++
	l.countReject(CodePanic)
	l.logf("panic t=%s n=%d: %v", ftoa(l.drv.Now()), l.counters.Panics, rec)
	*err = reject(CodePanic, "recovered: %v", rec)
}

// checkPoisoned refuses a mutating entry point on a poisoned loop. The
// caller must hold the token.
func (l *Loop) checkPoisoned() error {
	if !l.poisoned {
		return nil
	}
	l.countReject(CodePoisoned)
	return reject(CodePoisoned, "a recovered panic left the loop state suspect; restart or restore from the last checkpoint")
}

// SubmitRequest is one job submission.
type SubmitRequest struct {
	Name     string
	Size     float64
	Databank model.DatabankID
	Release  float64 // virtual release; clamped to ≥ now (event clock)
}

// SubmitResult acknowledges an admitted job.
type SubmitResult struct {
	Seq     uint64
	Slot    model.JobID
	Release float64
}

// Submit admits one job: the loop validates it, advances virtual time to
// the effective release (committing any completions due by then), assigns
// a stream slot, logs the arrival, and replans. A rejected job leaves the
// loop as it was.
func (l *Loop) Submit(req SubmitRequest) (res SubmitResult, err error) {
	if err := l.acquire(0); err != nil {
		return SubmitResult{}, err
	}
	defer l.release()
	defer l.recoverPanic(&err)
	if err := l.checkPoisoned(); err != nil {
		return SubmitResult{}, err
	}
	if l.draining {
		l.countReject(CodeDraining)
		return SubmitResult{}, reject(CodeDraining, "daemon is draining")
	}
	l.syncClock()
	rel := req.Release
	if rel < l.drv.Now() {
		rel = l.drv.Now()
	}
	job := model.Job{Name: req.Name, Release: rel, Size: req.Size, Databank: req.Databank}
	if err := model.ValidateJob(l.cfg.Platform, job); err != nil {
		l.countReject(CodeInvalid)
		return SubmitResult{}, reject(CodeInvalid, "%v", err)
	}
	if err := l.advanceTo(rel); err != nil {
		return SubmitResult{}, err
	}
	id, err := l.stream.Add(job)
	if err != nil {
		return SubmitResult{}, fmt.Errorf("serve: admitting a validated job: %w", err)
	}
	seq := l.seq
	l.seq++
	for int(id) >= len(l.slotSeq) {
		l.slotSeq = append(l.slotSeq, 0)
	}
	l.slotSeq[id] = seq
	l.activeAt[seq] = id
	l.drv.Arrive(id, req.Size)
	l.counters.Submitted++
	l.counters.Events++
	l.logf("arrive t=%s seq=%d slot=%d size=%s bank=%d",
		ftoa(rel), seq, id, ftoa(req.Size), req.Databank)
	l.replan()
	return SubmitResult{Seq: seq, Slot: id, Release: rel}, nil
}

// syncClock advances to the wall clock in wall-clock mode. A poisoned
// loop's clock is frozen: advancing commits completions, which is a
// mutation the poison gate must not let read paths smuggle in.
func (l *Loop) syncClock() {
	if l.cfg.Clock == nil || l.poisoned {
		return
	}
	if t := l.cfg.Clock.Now(); t > l.drv.Now() {
		// Clock regressions are ignored; time is monotone.
		_ = l.advanceTo(t)
	}
}

// advanceTo moves virtual time to t, committing every completion predicted
// at or before it (ties in priority order, one replan per completion).
func (l *Loop) advanceTo(t float64) error {
	for {
		id, _, ok := l.drv.AdvanceToNext(t)
		if !ok {
			return nil
		}
		if err := l.complete(id); err != nil {
			return err
		}
		l.replan()
	}
}

// complete retires slot id at the current instant.
func (l *Loop) complete(id model.JobID) error {
	j := l.stream.Instance().Jobs[id]
	now := l.drv.Now()
	flow := now - j.Release
	alone := l.stream.Instance().AloneTime(id)
	stretch := flow / alone
	seq := l.slotSeq[id]
	rec := Completed{
		Seq: seq, Name: j.Name, Release: j.Release, Size: j.Size,
		Databank: j.Databank, Completion: now, Flow: flow, Stretch: stretch,
	}
	l.drv.Complete(id)
	if err := l.stream.Remove(id); err != nil {
		return fmt.Errorf("serve: completing slot %d: %w", id, err)
	}
	delete(l.activeAt, seq)
	l.recents.Push(rec)
	l.qs.add(stretch)
	l.qf.add(flow)
	l.counters.CompletedN++
	l.counters.Events++
	l.logf("complete t=%s seq=%d slot=%d flow=%s stretch=%s",
		ftoa(now), seq, id, ftoa(flow), ftoa(stretch))
	return nil
}

// replan runs one decision step and logs the resulting placement.
func (l *Loop) replan() {
	if l.drv.NumActive() == 0 {
		l.logf("plan t=%s idle", ftoa(l.drv.Now()))
		return
	}
	l.drv.Replan(l.activePolicy())
	var b strings.Builder
	b.WriteString("plan t=")
	b.WriteString(ftoa(l.drv.Now()))
	b.WriteString(" assign=[")
	for m, j := range l.drv.Assign() {
		if m > 0 {
			b.WriteByte(' ')
		}
		if j < 0 {
			b.WriteByte('-')
		} else {
			fmt.Fprintf(&b, "%d", l.slotSeq[j])
		}
	}
	b.WriteString("] run=[")
	for i, j := range l.drv.Running() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%s", l.slotSeq[j], ftoa(l.drv.Rate(j)))
	}
	b.WriteString("]")
	l.logf("%s", b.String())
}

// logf appends one decision line. Write errors are counted and retained —
// never swallowed; Drain reports them and the daemon exits nonzero.
func (l *Loop) logf(format string, args ...any) {
	if l.logw == nil {
		return
	}
	l.logBuf = fmt.Appendf(l.logBuf[:0], format, args...)
	l.logBuf = append(l.logBuf, '\n')
	if _, err := l.logw.Write(l.logBuf); err != nil {
		// Not counted in logLines: a checkpoint must never attest a record
		// the log does not hold, or recovery would refuse the checkpoint.
		l.logErrs++
		l.lastLogErr = err
		return
	}
	l.logLines++
}

func (l *Loop) countReject(code string) {
	l.counters.Rejected[code]++
}

// ftoa formats a float with the shortest representation that round-trips —
// the deterministic encoding shared by the decision log and checkpoints.
func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// JobState describes one job for GET /jobs/{id}.
type JobState struct {
	Seq        uint64
	State      string // "active" | "completed"
	Name       string
	Release    float64
	Size       float64
	Remaining  float64 `json:",omitempty"`
	Rate       float64 `json:",omitempty"`
	Completion float64 `json:",omitempty"`
	Flow       float64 `json:",omitempty"`
	Stretch    float64 `json:",omitempty"`
}

// Job reports the state of daemon job seq, scanning the bounded recents
// ring for completed jobs; jobs evicted from the ring are typed-unknown.
func (l *Loop) Job(seq uint64) (st JobState, err error) {
	if err := l.acquire(0); err != nil {
		return JobState{}, err
	}
	defer l.release()
	defer l.recoverPanic(&err)
	l.syncClock()
	if id, ok := l.activeAt[seq]; ok {
		j := l.stream.Instance().Jobs[id]
		return JobState{
			Seq: seq, State: "active", Name: j.Name, Release: j.Release,
			Size: j.Size, Remaining: l.drv.Remaining(id), Rate: l.drv.Rate(id),
		}, nil
	}
	for i := l.recents.Len() - 1; i >= 0; i-- {
		if rec := l.recents.At(i); rec.Seq == seq {
			return JobState{
				Seq: seq, State: "completed", Name: rec.Name, Release: rec.Release,
				Size: rec.Size, Completion: rec.Completion, Flow: rec.Flow,
				Stretch: rec.Stretch,
			}, nil
		}
	}
	l.countReject(CodeUnknown)
	return JobState{}, reject(CodeUnknown, "job %d is neither active nor in the recents window", seq)
}

// ScheduleEntry is one active job's current placement.
type ScheduleEntry struct {
	Seq       uint64
	Slot      model.JobID
	Name      string
	Release   float64
	Remaining float64
	Rate      float64
	Machines  []model.MachineID
}

// Schedule is the daemon's current placement decision.
type Schedule struct {
	Now    float64
	Policy string
	Active []ScheduleEntry
	Assign []int // machine → slot (-1 idle)
}

// Schedule reports the current placement.
func (l *Loop) Schedule() (out Schedule, err error) {
	if err := l.acquire(0); err != nil {
		return Schedule{}, err
	}
	defer l.release()
	defer l.recoverPanic(&err)
	l.syncClock()
	out = Schedule{Now: l.drv.Now(), Policy: l.name}
	out.Assign = append(out.Assign, l.drv.Assign()...)
	for _, id := range append([]model.JobID(nil), l.drv.Ctx().Active()...) {
		j := l.stream.Instance().Jobs[id]
		e := ScheduleEntry{
			Seq: l.slotSeq[id], Slot: id, Name: j.Name, Release: j.Release,
			Remaining: l.drv.Remaining(id), Rate: l.drv.Rate(id),
		}
		for m, owner := range l.drv.Assign() {
			if owner == int(id) {
				e.Machines = append(e.Machines, model.MachineID(m))
			}
		}
		out.Active = append(out.Active, e)
	}
	sort.Slice(out.Active, func(a, b int) bool { return out.Active[a].Seq < out.Active[b].Seq })
	return out, nil
}

// Snapshot is the unified observability view: loop counters and quantiles
// plus the solver-stack snapshot (core.Stats) — the single source feeding
// /metrics.
type Snapshot struct {
	Now                                                         float64
	Policy                                                      string
	Active                                                      int
	Poisoned                                                    bool   // a recovered panic froze mutations until restart/restore
	Degraded                                                    bool   // backlog guard currently in degraded mode
	Fallback                                                    string // guard fallback policy ("" = guard off)
	Counters                                                    Counters
	StretchP50, StretchP90, StretchP99, StretchMean, StretchMax float64
	FlowP50, FlowP90, FlowP99, FlowMean, FlowMax                float64
	LogErrs                                                     int
	Solver                                                      core.Stats
}

// Snapshot assembles the unified stats view.
func (l *Loop) Snapshot() (s Snapshot, err error) {
	if err := l.acquire(0); err != nil {
		return Snapshot{}, err
	}
	defer l.release()
	defer l.recoverPanic(&err)
	return l.snapshotLocked(), nil
}

func (l *Loop) snapshotLocked() Snapshot {
	s := Snapshot{
		Now: l.drv.Now(), Policy: l.name, Active: l.drv.NumActive(),
		Poisoned: l.poisoned, Degraded: l.guardMode(), Fallback: l.fbName,
		Counters: Counters{
			Submitted: l.counters.Submitted, CompletedN: l.counters.CompletedN,
			Events: l.counters.Events, Checkpoints: l.counters.Checkpoints,
			Switches: l.counters.Switches, Panics: l.counters.Panics,
			Rejected: map[string]uint64{},
		},
		StretchP50: l.qs.p50.Value(), StretchP90: l.qs.p90.Value(),
		StretchP99: l.qs.p99.Value(), StretchMean: l.qs.mean(), StretchMax: l.qs.max,
		FlowP50: l.qf.p50.Value(), FlowP90: l.qf.p90.Value(),
		FlowP99: l.qf.p99.Value(), FlowMean: l.qf.mean(), FlowMax: l.qf.max,
		LogErrs: l.logErrs,
		Solver:  core.Collect(l.cfg.Workspace, map[string]core.Scheduler{l.name: l.cfg.Scheduler}),
	}
	for k, v := range l.counters.Rejected {
		s.Counters.Rejected[k] = v
	}
	return s
}

// Drain stops admissions, fast-forwards every pending job to completion at
// the predicted instants, and reports any decision-log write errors. It is
// idempotent; the first error encountered aborts the fast-forward.
func (l *Loop) Drain() (err error) {
	if err := l.acquire(0); err != nil {
		return err
	}
	defer l.release()
	defer l.recoverPanic(&err)
	if err := l.checkPoisoned(); err != nil {
		return err
	}
	l.draining = true
	for l.drv.NumActive() > 0 {
		l.drv.Replan(l.activePolicy())
		id, _, ok := l.drv.AdvanceToNext(math.Inf(1))
		if !ok {
			return reject(CodeExhausted, "%d active jobs but nothing running", l.drv.NumActive())
		}
		if err := l.complete(id); err != nil {
			return err
		}
	}
	l.logf("drain t=%s completed=%d", ftoa(l.drv.Now()), l.counters.CompletedN)
	if l.logErrs > 0 {
		return reject(CodeLogWrite, "%d decision-log write errors, last: %v", l.logErrs, l.lastLogErr)
	}
	return nil
}

// Now returns the loop's current virtual time (test/diagnostic accessor).
func (l *Loop) Now() float64 {
	if err := l.acquire(0); err != nil {
		return math.NaN()
	}
	defer l.release()
	return l.drv.Now()
}

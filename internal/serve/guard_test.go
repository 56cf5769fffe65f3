package serve

import (
	"bytes"
	"strings"
	"testing"

	"stretchsched/internal/core"
)

// guardConfig is an Online-EGDF daemon with the backlog guard armed at
// threshold, logging into log.
func guardConfig(t testing.TB, log *bytes.Buffer, threshold int) Config {
	t.Helper()
	inst := testWorkload(t)
	cfg := egdfExactConfig(t, inst, log)
	cfg.BacklogThreshold = threshold
	return cfg
}

// TestBacklogGuardSwitches: pushing the active set past the threshold must
// switch scheduling to the fallback (logged + counted), and draining back
// under it must switch back.
func TestBacklogGuardSwitches(t *testing.T) {
	var log bytes.Buffer
	cfg := guardConfig(t, &log, 3)
	loop, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Six simultaneous unit jobs: the 4th submission crosses the threshold.
	for i := 0; i < 6; i++ {
		if _, err := loop.Submit(SubmitRequest{Size: 50, Databank: 0}); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := loop.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Degraded {
		t.Fatalf("active=%d threshold=3 but not degraded", snap.Active)
	}
	if snap.Fallback != "SWRPT" {
		t.Fatalf("fallback = %q, want SWRPT default", snap.Fallback)
	}
	if snap.Counters.Switches != 1 {
		t.Fatalf("switches = %d after crossing once, want 1", snap.Counters.Switches)
	}
	if !strings.Contains(log.String(), "guard t=") ||
		!strings.Contains(log.String(), "mode=degraded policy=SWRPT") {
		t.Fatalf("no degraded guard line in log:\n%s", log.String())
	}
	// Draining completes everything; on the way down the guard reverts.
	if err := loop.Drain(); err != nil {
		t.Fatal(err)
	}
	snap, err = loop.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Degraded {
		t.Fatal("still degraded after drain")
	}
	if snap.Counters.Switches != 2 {
		t.Fatalf("switches = %d after reverting, want 2", snap.Counters.Switches)
	}
	if !strings.Contains(log.String(), "mode=normal policy=Online-EGDF") {
		t.Fatalf("no revert guard line in log:\n%s", log.String())
	}

	// The switch counter and degraded gauge surface in /metrics.
	m := snap.Prometheus()
	if !strings.Contains(m, "stretchd_policy_switches_total 2") {
		t.Fatalf("metrics missing switch counter:\n%s", m)
	}
	if !strings.Contains(m, "stretchd_degraded 0") {
		t.Fatalf("metrics missing degraded gauge:\n%s", m)
	}
}

// TestBacklogGuardCheckpointDeterminism: interrupting a guarded daemon
// mid-degradation and restoring it must reproduce the uninterrupted run's
// decision log bytes — the guard mode is recomputed, the switch counter
// decoded.
func TestBacklogGuardCheckpointDeterminism(t *testing.T) {
	inst := testWorkload(t)
	jobs := inst.Jobs
	cut := len(jobs) / 2

	mk := func(log *bytes.Buffer) Config {
		cfg := egdfExactConfig(t, inst, log)
		cfg.BacklogThreshold = 2
		return cfg
	}

	var logA bytes.Buffer
	loopA, err := New(mk(&logA))
	if err != nil {
		t.Fatal(err)
	}
	submitAll(t, loopA, jobs)
	if err := loopA.Drain(); err != nil {
		t.Fatal(err)
	}
	snapA, err := loopA.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snapA.Counters.Switches == 0 {
		t.Fatal("workload never tripped the guard; test is vacuous")
	}

	var logB bytes.Buffer
	loopB, err := New(mk(&logB))
	if err != nil {
		t.Fatal(err)
	}
	submitAll(t, loopB, jobs[:cut])
	ck, err := loopB.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	b, err := ck.Encode()
	if err != nil {
		t.Fatal(err)
	}
	ck2, err := DecodeCheckpoint(b)
	if err != nil {
		t.Fatal(err)
	}
	loopC, err := Restore(mk(&logB), ck2)
	if err != nil {
		t.Fatal(err)
	}
	submitAll(t, loopC, jobs[cut:])
	if err := loopC.Drain(); err != nil {
		t.Fatal(err)
	}
	if logA.String() != logB.String() {
		t.Fatalf("decision logs diverge with guarded restore:\nA:\n%s\nB:\n%s", logA.String(), logB.String())
	}
	snapC, err := loopC.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snapC.Counters.Switches != snapA.Counters.Switches {
		t.Fatalf("switches: restored %d, uninterrupted %d",
			snapC.Counters.Switches, snapA.Counters.Switches)
	}
}

// TestGuardRejectsDegenerateFallback: a fallback equal to the primary
// scheduler is a configuration error, not a silent no-op.
func TestGuardRejectsDegenerateFallback(t *testing.T) {
	inst := testWorkload(t)
	sched, err := core.New("SWRPT")
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(Config{
		Platform: inst.Platform, Scheduler: sched,
		BacklogThreshold: 4,
	})
	if err == nil {
		t.Fatal("SWRPT primary with default SWRPT fallback accepted")
	}
}

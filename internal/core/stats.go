package core

import (
	"stretchsched/internal/cluster"
	"stretchsched/internal/offline"
	"stretchsched/internal/rat"
)

// SolveStats counts the per-event solver failures one scheduler recorded —
// and fell back from — during its most recent run. Fallbacks are part of
// the online algorithms' contract, but a harness that silently absorbed
// thousands of them would mislead, so they are counted where they happen
// and surfaced here.
type SolveStats struct {
	StretchErrs int // step-2 (optimal max-stretch) solve failures
	RefineErrs  int // step-3 (System (2) refinement) fallbacks
}

// Stats is the unified snapshot of every solver diagnostic the scheduling
// stack accumulates: per-scheduler solve-failure counters and the exact
// rational backend's representation-tier counters, in one stable struct —
// the single source behind perfbench's per-layer metrics and the serving
// daemon's /metrics endpoint.
//
// All fields are value copies taken at snapshot time; mutating them does
// not affect the live counters (use Runner.ResetStats for per-run numbers).
type Stats struct {
	// Solve maps scheduler name → its most recent run's solver-failure
	// counters. Only schedulers that record them (the LP-based online
	// ones) appear.
	Solve map[string]SolveStats

	// Tiers holds the exact backend's small/medium/big operation and
	// promotion/demotion counters, cumulative on the workspace. HasTiers
	// reports whether an exact solve has run at all — a zero-valued Tiers
	// with HasTiers set means "exact ran, counters disabled or empty".
	Tiers    rat.TierStats
	HasTiers bool

	// Incremental and HasIncremental are never set: the warm-started LP
	// session whose solve mix they reported is gone, and exact solves run
	// on parametric cuts. They stay only because perfbench still reads
	// them.
	Incremental    IncrementalStats
	HasIncremental bool

	// Faults holds the failure/retry counters accumulated by a
	// ClusterRunner's runs (machine failures hit, job executions killed,
	// re-placements, lost work); zero when no run had a failing plan.
	Faults cluster.FaultStats
}

// IncrementalStats is the shape of Stats.Incremental, which nothing sets.
type IncrementalStats struct {
	Cold, Warm, Fallback int
	ColdIters, WarmIters int
	DualSteps, MaxEtaLen int
}

// Collect assembles a Stats snapshot from a workspace and a set of
// constructed schedulers keyed by name. Runner.Stats delegates here; the
// serving daemon feeds /metrics from the same call with its single live
// policy.
func Collect(ws *offline.Workspace, scheds map[string]Scheduler) Stats {
	st := Stats{Solve: map[string]SolveStats{}}
	for name, s := range scheds {
		var inner any = s
		switch b := s.(type) {
		case PlannerBacked:
			inner = b.Planner()
		case PolicyBacked:
			inner = b.Policy()
		}
		if sd, ok := inner.(solveDiagnostics); ok {
			se, re := sd.SolveFailures()
			st.Solve[name] = SolveStats{StretchErrs: se, RefineErrs: re}
		}
	}
	if ws != nil {
		if ts := ws.TierStats(); ts != nil {
			st.Tiers, st.HasTiers = *ts, true
		}
	}
	return st
}

// Stats snapshots the runner's solver diagnostics: the solve-failure
// counters of every scheduler it has cached, and the workspace-cumulative
// tier counters.
func (r *Runner) Stats() Stats { return Collect(r.ws, r.built) }

// ResetStats zeroes the runner's cumulative workspace counters (exact
// tiers) so the next Stats snapshot reads per-run numbers. Per-scheduler
// solve counters reset themselves at every run via the Init contract and
// are not touched here.
func (r *Runner) ResetStats() {
	if ts := r.ws.TierStats(); ts != nil {
		ts.Reset()
	}
}

package serve

import (
	"fmt"
	"sort"
	"strings"
)

// Prometheus renders the snapshot in Prometheus text exposition format
// 0.0.4. Output ordering is deterministic: fixed metric order, sorted
// label values.
func (s Snapshot) Prometheus() string {
	var b strings.Builder
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n", name, help, name, name, ftoa(v))
	}
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}

	gauge("stretchd_now_seconds", "Virtual scheduler time.", s.Now)
	gauge("stretchd_jobs_active", "Jobs admitted and not yet completed.", float64(s.Active))
	counter("stretchd_jobs_submitted_total", "Jobs admitted.", s.Counters.Submitted)
	counter("stretchd_jobs_completed_total", "Jobs completed.", s.Counters.CompletedN)
	counter("stretchd_events_total", "Arrival and completion events processed.", s.Counters.Events)
	counter("stretchd_checkpoints_total", "Checkpoints taken.", s.Counters.Checkpoints)
	counter("stretchd_decision_log_errors_total", "Decision-log write errors (drain fails when nonzero).", uint64(s.LogErrs))
	counter("stretchd_loop_panics_total", "Panics recovered inside loop entry points (the loop survives; each returns a typed 500).", s.Counters.Panics)
	poisoned := 0.0
	if s.Poisoned {
		poisoned = 1
	}
	gauge("stretchd_loop_poisoned", "Loop poisoned by a recovered panic: mutations refused until restart/restore.", poisoned)
	if s.Fallback != "" {
		degraded := 0.0
		if s.Degraded {
			degraded = 1
		}
		gauge("stretchd_degraded", "Backlog guard in degraded mode (1) or normal mode (0).", degraded)
		counter("stretchd_policy_switches_total", "Backlog-guard policy switches, both directions.", s.Counters.Switches)
	}

	fmt.Fprintf(&b, "# HELP stretchd_rejections_total Typed request rejections by code.\n# TYPE stretchd_rejections_total counter\n")
	codes := make([]string, 0, len(s.Counters.Rejected))
	for c := range s.Counters.Rejected {
		codes = append(codes, c)
	}
	sort.Strings(codes)
	for _, c := range codes {
		fmt.Fprintf(&b, "stretchd_rejections_total{code=%q} %d\n", c, s.Counters.Rejected[c])
	}

	quant := func(metric, help string, p50, p90, p99, mean, max float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n", metric, help, metric)
		fmt.Fprintf(&b, "%s{quantile=\"0.5\"} %s\n", metric, ftoa(p50))
		fmt.Fprintf(&b, "%s{quantile=\"0.9\"} %s\n", metric, ftoa(p90))
		fmt.Fprintf(&b, "%s{quantile=\"0.99\"} %s\n", metric, ftoa(p99))
		fmt.Fprintf(&b, "%s_mean %s\n", metric, ftoa(mean))
		fmt.Fprintf(&b, "%s_max %s\n", metric, ftoa(max))
	}
	quant("stretchd_stretch", "Stretch of completed jobs (P2 streaming quantiles).",
		s.StretchP50, s.StretchP90, s.StretchP99, s.StretchMean, s.StretchMax)
	quant("stretchd_flow_seconds", "Flow time of completed jobs (P2 streaming quantiles).",
		s.FlowP50, s.FlowP90, s.FlowP99, s.FlowMean, s.FlowMax)

	// Solver-stack diagnostics from the unified core.Stats snapshot.
	names := make([]string, 0, len(s.Solver.Solve))
	for n := range s.Solver.Solve {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(&b, "# HELP stretchd_solve_failures_total Per-event solver failures (fallbacks) by scheduler and step.\n# TYPE stretchd_solve_failures_total counter\n")
	for _, n := range names {
		ss := s.Solver.Solve[n]
		fmt.Fprintf(&b, "stretchd_solve_failures_total{scheduler=%q,step=\"stretch\"} %d\n", n, ss.StretchErrs)
		fmt.Fprintf(&b, "stretchd_solve_failures_total{scheduler=%q,step=\"refine\"} %d\n", n, ss.RefineErrs)
	}
	if s.Solver.HasTiers {
		ops := s.Solver.Tiers.Ops
		fmt.Fprintf(&b, "# HELP stretchd_rational_ops_total Exact-arithmetic operations by representation tier.\n# TYPE stretchd_rational_ops_total counter\n")
		tiers := [3]string{"small", "medium", "big"}
		for i, t := range tiers {
			fmt.Fprintf(&b, "stretchd_rational_ops_total{tier=%q} %d\n", t, ops[i])
		}
	}
	return b.String()
}

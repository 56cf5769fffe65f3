package online

import (
	"testing"

	"stretchsched/internal/offline"
	"stretchsched/internal/sim"
)

// TestOnlineWorkspaceMatchesFresh: every workspace-capable online scheduler
// must produce bit-identical schedules on one shared workspace and on a
// fresh private one (no workspace wired), across interleaved instance
// sizes — the online counterpart of offline.TestWorkspacePlannerMatchesFresh.
func TestOnlineWorkspaceMatchesFresh(t *testing.T) {
	eng := sim.NewEngine()
	ws := offline.NewWorkspace()
	for i, nj := range []int{8, 3, 11} {
		inst := randomInstance(t, 500+int64(i), 2, 2, nj)

		planners := []struct {
			name  string
			fresh *Heuristic
			pool  *Heuristic
		}{
			{"Online", New(Plain), New(Plain)},
			{"Online-EDF", New(EDF), New(EDF)},
			{"Online-NonOpt", NewNonOptimized(), NewNonOptimized()},
		}
		for _, p := range planners {
			want, err := sim.RunPlanned(inst, p.fresh)
			if err != nil {
				t.Fatalf("%s fresh: %v", p.name, err)
			}
			p.pool.SetWorkspace(ws)
			got, err := eng.RunPlanned(inst, p.pool)
			if err != nil {
				t.Fatalf("%s pooled: %v", p.name, err)
			}
			for j := range want.Completion {
				if want.Completion[j] != got.Completion[j] {
					t.Fatalf("%s jobs=%d: job %d completes at %v pooled, %v fresh",
						p.name, nj, j, got.Completion[j], want.Completion[j])
				}
			}
		}

		for _, mk := range []func() sim.Policy{
			func() sim.Policy { return NewBender98() },
			func() sim.Policy { return NewEGDF() },
		} {
			fresh, pool := mk(), mk()
			want, err := sim.RunList(inst, fresh)
			if err != nil {
				t.Fatalf("%s fresh: %v", fresh.Name(), err)
			}
			pool.(interface{ SetWorkspace(*offline.Workspace) }).SetWorkspace(ws)
			got, err := eng.RunList(inst, pool)
			if err != nil {
				t.Fatalf("%s pooled: %v", pool.Name(), err)
			}
			for j := range want.Completion {
				if want.Completion[j] != got.Completion[j] {
					t.Fatalf("%s jobs=%d: job %d completes at %v pooled, %v fresh",
						pool.Name(), nj, j, got.Completion[j], want.Completion[j])
				}
			}
		}
	}
}

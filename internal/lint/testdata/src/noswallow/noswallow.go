// Package noswallowdata seeds every way a watched error result can be
// discarded — bare call statement, go, defer, blank-assigned — against the
// real generic lp.Problem API, the cluster runner and the generic
// experiment family, plus the legal forms (error handled, hatch).
package noswallowdata

import (
	"io"

	"stretchsched/internal/cluster"
	"stretchsched/internal/core"
	"stretchsched/internal/exp"
	"stretchsched/internal/lp"
	"stretchsched/internal/model"
)

func bareCall(p *lp.Problem[float64]) {
	p.Solve() // want "error result of lp.Solve is discarded (bare call statement)"
}

func goStmt(p *lp.Problem[float64]) {
	go p.Solve() // want "go statement"
}

func deferStmt(p *lp.Problem[float64]) {
	defer p.Solve() // want "defer statement"
}

func blankAssigned(p *lp.Problem[float64]) *lp.Solution[float64] {
	sol, _ := p.Solve() // want "error result of lp.Solve is assigned to _"
	return sol
}

func bothBlank(p *lp.Problem[float64]) {
	_, _ = p.Solve() // want "assigned to _"
}

func clusterRun(cr *core.ClusterRunner, ci *model.ClusterInstance, lb cluster.LB) {
	cr.Run("SWRPT", ci, lb, 1, nil) // want "error result of core.Run is discarded (bare call statement)"
}

func familyDigests(w io.Writer, results []exp.InstanceResult) {
	exp.Grid.WriteDigests(w, results, nil) // want "error result of exp.WriteDigests is discarded (bare call statement)"
}

func handled(p *lp.Problem[float64]) error {
	_, err := p.Solve() // error captured: legal
	return err
}

func hatched(p *lp.Problem[float64]) {
	p.Solve() //stretch:swallow-ok — demo of the per-line hatch
}

// unwatchedError shows the analyzer only fires on the watchlist: discarding
// an arbitrary error-returning call is vet's business, not stretchvet's.
func unwatchedError(f func() error) {
	f()
}

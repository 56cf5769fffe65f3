package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SwallowOkDirective suppresses a noswallow diagnostic on its line.
const SwallowOkDirective = "//stretch:swallow-ok"

// noswallowWatch lists, per defining package, the functions and methods
// whose error results must not be discarded. These are exactly the entry
// points whose silent failures PR 2 and PR 4 dug out by hand: the LP
// solver (a swallowed ErrIterLimit turns the §5.3 anomaly back on), the
// offline planner pipeline, the online per-event solves, and the
// experiment harness's CSV/digest surface (a swallowed write error is a
// silently truncated nightly merge).
var noswallowWatch = map[string]map[string]bool{
	"stretchsched/internal/lp": {
		"Solve": true,
	},
	"stretchsched/internal/offline": {
		"Plan": true, "Refine": true, "Optimal": true, "OptimalStretch": true,
	},
	// Calls through the sim.Planner interface resolve to the interface
	// method object, which lives in internal/sim.
	"stretchsched/internal/sim": {
		"Plan": true, "RunList": true, "RunPlanned": true,
	},
	"stretchsched/internal/online": {
		"Plan": true,
	},
	// The experiment harness: one Family method per job serves the paper
	// grid and the cluster family alike.
	"stretchsched/internal/exp": {
		"RunCSV": true, "WriteCSV": true, "ReadCSV": true, "WriteFigure3CSV": true,
		"Digests": true, "WriteDigests": true,
		"VerifyExact": true,
		// Package-internal encoders, where a discarded error is a
		// silently truncated CSV.
		"writeRows": true, "encodeShard": true, "writeHeader": true,
		// Measured-times sidecar: a swallowed write error silently loses
		// the feedback that orders the next pass's shard dispatch.
		"WritePointTimes": true, "ReadPointTimes": true,
	},
	// Cluster world entry points: a swallowed Run/Place/Lookahead error is
	// a node silently dropped from the comparison tables; a swallowed
	// SetFaults error silently runs the zero-failure path instead.
	"stretchsched/internal/cluster": {
		"Run": true, "Place": true, "Lookahead": true, "New": true,
		"SetFaults": true,
	},
	// The registry's run entry points, ClusterRunner.Run included: a
	// swallowed error is a scheduler or a whole cluster world silently
	// missing from a comparison.
	"stretchsched/internal/core": {
		"Run": true,
	},
	// Fault planner: a swallowed construction error is a nil plan, which
	// silently degrades a faults experiment to the zero-failure path.
	"stretchsched/internal/fault": {
		"New": true,
	},
	// Crash-recovery entry points: every one of these failing silently
	// turns "recovered" into "corrupted". RecoverLogFile truncates a real
	// file; WriteFileAtomic replaces the previous checkpoint; Restore and
	// DecodeCheckpoint gate whether a daemon resumes at all.
	"stretchsched/internal/serve": {
		"RecoverLogFile": true, "WriteFileAtomic": true, "ReadLogPayloads": true,
		"Restore": true, "DecodeCheckpoint": true, "WriteFile": true,
		"Checkpoint": true, "Sync": true,
	},
}

type noswallow struct{}

// NewNoswallow returns the discarded-error analyzer.
func NewNoswallow() Analyzer { return noswallow{} }

func (noswallow) Name() string { return "noswallow" }

func (noswallow) Run(pkg *Package) []Diagnostic {
	var diags []Diagnostic
	flag := func(pos token.Pos, callee *types.Func, how string) {
		if pkg.Hatched(pos, SwallowOkDirective) {
			return
		}
		diags = append(diags, pkg.diag("noswallow", pos,
			"error result of %s.%s %s", callee.Pkg().Name(), callee.Name(), how))
	}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.ExprStmt:
				if callee := watchedErrCall(pkg, stmt.X); callee != nil {
					flag(stmt.Pos(), callee, "is discarded (bare call statement)")
				}
			case *ast.GoStmt:
				if callee := watchedErrCall(pkg, stmt.Call); callee != nil {
					flag(stmt.Pos(), callee, "is discarded (go statement)")
				}
			case *ast.DeferStmt:
				if callee := watchedErrCall(pkg, stmt.Call); callee != nil {
					flag(stmt.Pos(), callee, "is discarded (defer statement)")
				}
			case *ast.AssignStmt:
				// A watched call as the sole RHS: its results map 1:1 onto
				// the LHS; every error-typed result assigned to _ is a
				// swallow.
				if len(stmt.Rhs) != 1 {
					return true
				}
				callee := watchedErrCall(pkg, stmt.Rhs[0])
				if callee == nil {
					return true
				}
				sig := callSignature(pkg, stmt.Rhs[0].(*ast.CallExpr))
				if sig == nil {
					return true
				}
				res := sig.Results()
				for i := 0; i < res.Len() && i < len(stmt.Lhs); i++ {
					if !isErrorType(res.At(i).Type()) {
						continue
					}
					if id, ok := stmt.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
						flag(stmt.Pos(), callee, "is assigned to _")
					}
				}
			}
			return true
		})
	}
	return diags
}

// watchedErrCall reports the watched *types.Func called by expr, if expr
// is a call to a watchlisted function or method that returns an error.
func watchedErrCall(pkg *Package, expr ast.Expr) *types.Func {
	call, ok := expr.(*ast.CallExpr)
	if !ok {
		return nil
	}
	var id *ast.Ident
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, ok := pkg.Info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil
	}
	names := noswallowWatch[fn.Pkg().Path()]
	if !names[fn.Name()] {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if isErrorType(res.At(i).Type()) {
			return fn
		}
	}
	return nil
}

func callSignature(pkg *Package, call *ast.CallExpr) *types.Signature {
	tv, ok := pkg.Info.Types[call.Fun]
	if !ok {
		return nil
	}
	sig, _ := tv.Type.(*types.Signature)
	return sig
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

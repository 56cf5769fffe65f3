// Package lint is the project-invariant analyzer suite behind
// cmd/stretchvet: stdlib-only static analysis (go/ast + go/types; no
// external dependencies, so it runs in offline CI) that machine-checks at
// build time the invariants PRs 1–5 established with runtime tests only —
// solver errors must not be swallowed, math/big must not leak outside the
// rational ladder in internal/rat, annotated hot paths must not allocate,
// and the deterministic grid paths must not consume ambient randomness,
// wall-clock time, or unordered map iteration.
//
// Four analyzers:
//
//   - noswallow: a call to a watched solver/planner/experiment entry point
//     (lp Solve, offline Plan/Refine, online Plan, the exp
//     Run*/Write*/Read* CSV surface) must not discard its error result —
//     neither as a bare statement nor assigned to the blank identifier.
//     Escape hatch: //stretch:swallow-ok on the offending line.
//
//   - bigescape: importing math/big, or using any identifier whose
//     defining package is math/big, is only legal inside internal/rat.
//     Everything else must go through rat.Rat, which is the whole point of
//     the three-tier representation ladder. No escape hatch.
//
//   - noalloc: a function whose doc comment carries //stretch:noalloc may
//     not contain allocating constructs: make/new, slice/map composite
//     literals, &composite literals, append to a slice declared fresh in
//     the function, string concatenation or string<->[]byte/[]rune
//     conversions, calls into package fmt, closures (func literals), and
//     interface boxing of non-pointer-shaped values. Escape hatch:
//     //stretch:alloc-ok on the offending line (or the line above), for
//     cold paths — error exits, escape-to-big promotions — inside an
//     otherwise allocation-free function.
//
//   - determinism: inside the deterministic grid packages (internal/exp,
//     internal/workload), global math/rand top-level functions (ambient
//     seed), time.Now, and map-range loops that write ordered output
//     (formatted writes, appends of derived values) are flagged; results
//     must derive from (point, run) coordinates alone. Escape hatch:
//     //stretch:order-ok on the range statement, for the collect-then-sort
//     idiom.
//
// The analyzers are intentionally intraprocedural: a flagged construct is
// on the annotated line itself, never inferred through a call. The
// interprocedural complement — actual heap escapes, wherever they come
// from — is cmd/escapecheck, which diffs the compiler's own escape
// analysis (go build -gcflags=-m) against golden allowlists checked in
// under internal/lint/escapes/.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding at a source position.
type Diagnostic struct {
	Pos      token.Position `json:"pos"`
	Analyzer string         `json:"analyzer"`
	Message  string         `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Fset  *token.FileSet
	Path  string // import path (decides package-scoped exemptions)
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	// directiveLines caches, per directive, the set of (filename, line)
	// pairs carrying that //stretch: escape-hatch comment.
	directiveLines map[string]map[posKey]bool
}

type posKey struct {
	file string
	line int
}

// Analyzer is one project-invariant check.
type Analyzer interface {
	Name() string
	Run(pkg *Package) []Diagnostic
}

// Analyzers returns the full suite in reporting order.
func Analyzers() []Analyzer {
	return []Analyzer{
		NewNoswallow(),
		NewBigescape(),
		NewNoalloc(),
		NewDeterminism(),
	}
}

// Hatched reports whether pos sits on (or directly under) a line carrying
// the given //stretch: directive — the per-line escape hatches. A hatch on
// the line above also counts, so long annotated expressions can carry the
// comment without breaking gofmt alignment.
func (p *Package) Hatched(pos token.Pos, directive string) bool {
	if p.directiveLines == nil {
		p.directiveLines = map[string]map[posKey]bool{}
	}
	lines, ok := p.directiveLines[directive]
	if !ok {
		lines = map[posKey]bool{}
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if strings.Contains(c.Text, directive) {
						cp := p.Fset.Position(c.Pos())
						lines[posKey{cp.Filename, cp.Line}] = true
					}
				}
			}
		}
		p.directiveLines[directive] = lines
	}
	dp := p.Fset.Position(pos)
	return lines[posKey{dp.Filename, dp.Line}] ||
		lines[posKey{dp.Filename, dp.Line - 1}]
}

func (p *Package) diag(analyzer string, pos token.Pos, format string, args ...any) Diagnostic {
	return Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: analyzer,
		Message:  fmt.Sprintf(format, args...),
	}
}

// Run applies every analyzer to every package and returns the merged
// diagnostics in (file, line, column) order.
func Run(analyzers []Analyzer, pkgs []*Package) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			out = append(out, a.Run(pkg)...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out
}

// unparen strips any levels of parentheses from e. (ast.Unparen needs a
// go1.22 module directive; this module still declares go 1.21.)
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

package lint

import (
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe extracts the expectation substrings from testdata source:
// `// want "substring"`, possibly several per line.
var wantRe = regexp.MustCompile(`// want "([^"]*)"`)

// runTestdata loads internal/lint/testdata/src/<dirName> as a package under
// a synthetic stretchsched import path and checks the analyzer's
// diagnostics against the // want comments, in both directions: every want
// must be matched by a diagnostic on its line (substring match), and every
// diagnostic must be claimed by a want.
func runTestdata(t *testing.T, a Analyzer, dirName string) {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "src", dirName))
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".go") {
			files = append(files, e.Name())
		}
	}
	if len(files) == 0 {
		t.Fatalf("no .go files in %s", dir)
	}
	pkg, err := NewLoader().LoadFiles(testdataImportPath(dirName), dir, files)
	if err != nil {
		t.Fatal(err)
	}
	diags := a.Run(pkg)

	unmatched := map[posKey][]string{}
	for _, name := range files {
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				key := posKey{file: path, line: i + 1}
				unmatched[key] = append(unmatched[key], m[1])
			}
		}
	}

	for _, d := range diags {
		key := posKey{file: d.Pos.Filename, line: d.Pos.Line}
		wants := unmatched[key]
		hit := -1
		for i, w := range wants {
			if strings.Contains(d.Message, w) {
				hit = i
				break
			}
		}
		if hit == -1 {
			t.Errorf("unexpected diagnostic: %s", d)
			continue
		}
		unmatched[key] = append(wants[:hit], wants[hit+1:]...)
	}
	for key, wants := range unmatched {
		for _, w := range wants {
			t.Errorf("%s:%d: no diagnostic matching %q", key.file, key.line, w)
		}
	}
}

func testdataImportPath(dirName string) string {
	return "stretchsched/internal/lint/testdata/src/" + dirName
}

func TestNoswallowTestdata(t *testing.T) { runTestdata(t, NewNoswallow(), "noswallow") }

// TestNoswallowWatchResolves: every watch-list entry must name a function,
// a method or an interface method its package declares. Entries match the
// callee's defining package, so one filed under the wrong package, or
// naming something since renamed, silently watches nothing.
func TestNoswallowWatchResolves(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	l := NewLoader()
	for path, names := range noswallowWatch {
		pkg, err := l.imp.ImportFrom(path, root, 0)
		if err != nil {
			t.Fatalf("importing %s: %v", path, err)
		}
		for name := range names {
			if !declaresFunc(pkg, name) {
				t.Errorf("noswallow watches %s.%s, which that package does not declare", path, name)
			}
		}
	}
}

// declaresFunc reports whether pkg declares a function, a method or an
// interface method called name.
func declaresFunc(pkg *types.Package, name string) bool {
	scope := pkg.Scope()
	if _, ok := scope.Lookup(name).(*types.Func); ok {
		return true
	}
	for _, n := range scope.Names() {
		tn, ok := scope.Lookup(n).(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			if named.Method(i).Name() == name {
				return true
			}
		}
		if iface, ok := named.Underlying().(*types.Interface); ok {
			for i := 0; i < iface.NumMethods(); i++ {
				if m := iface.Method(i); m.Name() == name && m.Pkg() == pkg {
					return true
				}
			}
		}
	}
	return false
}

func TestBigescapeTestdata(t *testing.T) { runTestdata(t, NewBigescape(), "bigescape") }

func TestNoallocTestdata(t *testing.T) { runTestdata(t, NewNoalloc(), "noalloc") }

func TestDeterminismTestdata(t *testing.T) {
	runTestdata(t, NewDeterminismFor(testdataImportPath("determinism")), "determinism")
}

// TestBigescapeExemptsRatSubtree pins the one allowed home of math/big: the
// same source flagged above produces nothing when the package path sits
// under internal/rat.
func TestBigescapeExemptsRatSubtree(t *testing.T) {
	dir, err := filepath.Abs(filepath.Join("testdata", "src", "bigescape"))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := NewLoader().LoadFiles("stretchsched/internal/rat/bigescape", dir, []string{"bigescape.go"})
	if err != nil {
		t.Fatal(err)
	}
	if diags := NewBigescape().Run(pkg); len(diags) != 0 {
		t.Fatalf("bigescape inside internal/rat subtree must be silent, got %v", diags)
	}
}

// TestDeterminismScopedToTargetPaths pins the package-scope gate: the same
// seeded violations are invisible when the package is outside the
// deterministic grid set.
func TestDeterminismScopedToTargetPaths(t *testing.T) {
	dir, err := filepath.Abs(filepath.Join("testdata", "src", "determinism"))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := NewLoader().LoadFiles("stretchsched/internal/elsewhere", dir, []string{"determinism.go"})
	if err != nil {
		t.Fatal(err)
	}
	if diags := NewDeterminismFor(determinismDefaultPaths...).Run(pkg); len(diags) != 0 {
		t.Fatalf("determinism outside its target packages must be silent, got %v", diags)
	}
}

// TestRepoIsClean runs the full suite over the repository itself — the
// same invocation as CI's `go run ./cmd/stretchvet ./...` — and demands
// zero findings. Loading and type-checking every package from source is a
// few seconds of work, so it is skipped in -short runs.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-repo typecheck in -short mode")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := NewLoader().Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Run(Analyzers(), pkgs) {
		t.Errorf("%s", d)
	}
}

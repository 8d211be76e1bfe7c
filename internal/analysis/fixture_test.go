package analysis

import (
	"regexp"
	"sync"
	"testing"
)

// The fixture harness: each analyzer has a package under
// testdata/src/<name> whose sources plant expectations as
//
//	offending code // want "regexp"
//
// comments. Running the analyzer over the fixture must produce exactly
// the planted diagnostics — every finding wanted, every want found.

// wantRe extracts the expectations from fixture comments.
var wantRe = regexp.MustCompile(`// want "([^"]+)"`)

// expectation is one planted // want comment.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// The module loader is shared across tests so the from-source stdlib
// type-checking cost is paid once per test binary.
var (
	loaderOnce sync.Once
	loaderMod  *Loader
	loaderErr  error
)

// moduleLoader returns a loader rooted at this repository's go.mod.
func moduleLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() { loaderMod, loaderErr = NewLoader("../..") })
	if loaderErr != nil {
		t.Fatal(loaderErr)
	}
	return loaderMod
}

// runFixture loads testdata/src/<name>, runs the analyzers, and checks
// the diagnostics against the fixture's // want comments.
func runFixture(t *testing.T, name string, analyzers []*Analyzer) {
	t.Helper()
	l := moduleLoader(t)
	pkg, err := l.LoadDir("internal/analysis/testdata/src/" + name)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pos := pkg.Fset.Position(c.Pos())
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, m[1], err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	if len(wants) == 0 {
		t.Fatalf("fixture %s plants no expectations", name)
	}
	// Run with a single-package Program: program rules (phasepurity,
	// snapdrift) see the fixture as their whole scope.
	for _, d := range Run(NewProgram(l, []*Package{pkg}), analyzers) {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: want diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

func TestNoDeterminismFixture(t *testing.T) {
	// An empty prefix list applies the rule to every package, so the
	// fixture is in scope even though it lives outside the sim core.
	// The fixture declares its own wallNow shim, sanctioned exactly as
	// the production eval and obs shims are.
	runFixture(t, "nodeterminism", []*Analyzer{NewNoDeterminism(NoDeterminismConfig{
		Sanctioned: []string{fixturePath + "nodeterminism.wallNow"},
	})})
}

func TestMapRangeFixture(t *testing.T) {
	runFixture(t, "maprange", []*Analyzer{NewMapRange(DefaultMapRangeConfig())})
}

func TestFloatEqFixture(t *testing.T) {
	runFixture(t, "floateq", []*Analyzer{NewFloatEq()})
}

func TestErrDropFixture(t *testing.T) {
	runFixture(t, "errdrop", []*Analyzer{NewErrDrop(DefaultErrDropConfig())})
}

func TestHotAllocFixture(t *testing.T) {
	// PkgPath "" applies the rule to the fixture package; the function
	// list mirrors the fixture's hot functions (cold is absent).
	runFixture(t, "hotalloc", []*Analyzer{NewHotAlloc(HotAllocConfig{
		Functions: []string{"tick", "sense", "rebuild", "publish"},
	})})
}

func TestHotAllocListedNamesFixture(t *testing.T) {
	// Scoped by PkgPath and by PkgFunctions in turn: either way the
	// listed ghost, which the fixture does not declare, is reported.
	const pkg = fixturePath + "hotallocnames"
	for _, cfg := range []HotAllocConfig{
		{PkgPath: pkg, Functions: []string{"tick", "ghost"}},
		{PkgFunctions: map[string][]string{pkg: {"tick", "ghost"}}},
	} {
		runFixture(t, "hotallocnames", []*Analyzer{NewHotAlloc(cfg)})
	}
}

// fixturePath is the import-path prefix of the fixture packages.
const fixturePath = "nwade/internal/analysis/testdata/src/"

func TestPhasePurityFixture(t *testing.T) {
	// The fixture declares its own sanctioned wall-clock shim, mirroring
	// the production configuration.
	runFixture(t, "phasepurity", []*Analyzer{NewPhasePurity(PhasePurityConfig{
		Sanctioned: []string{fixturePath + "phasepurity.wallNow"},
	})})
}

func TestSnapDriftFixture(t *testing.T) {
	// mustHave exists without a directive; ghostStruct is required but
	// does not exist. Both drift cases must be reported.
	runFixture(t, "snapdrift", []*Analyzer{NewSnapDrift(SnapDriftConfig{
		RequiredStructs: []string{
			fixturePath + "snapdrift.ghostStruct",
			fixturePath + "snapdrift.mustHave",
		},
	})})
}

// TestRepositoryLintClean is the meta-test: the production analyzer set
// must report zero findings on the repository itself. Any rule change
// that reintroduces findings on the tree fails here, not just in CI.
func TestRepositoryLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	l := moduleLoader(t)
	dirs, err := l.FindPackages(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) < 10 {
		t.Fatalf("suspiciously few packages under the module root: %d", len(dirs))
	}
	diags, err := LintDirs(l, dirs, Default())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

package analysis

import (
	"go/ast"
	"strings"
)

// NoDeterminismConfig scopes the nodeterminism analyzer.
type NoDeterminismConfig struct {
	// PackagePrefixes restricts the rule to packages whose import path
	// starts with one of these prefixes. Empty means every package.
	PackagePrefixes []string
	// Sanctioned lists fully-qualified functions ("pkg/path.Func" or
	// "pkg/path.Type.Method") whose bodies are exempt: the audited entry
	// points that are allowed to read the wall clock on purpose. A
	// sanctioned function is a reviewed design decision, unlike a
	// //lint:ignore directive, which marks a local exception.
	Sanctioned []string
}

// DefaultNoDeterminismConfig bans wall-clock and global-RNG reads inside
// the simulation core: everything a seeded replay flows through. The
// observability and sweep layers are in scope too; the host clock may
// enter only through two sanctioned wallNow shims — obs.wallNow, the
// one measurement lane (profiling spans and obs.Stopwatch), and
// eval.wallNow (work-queue lease stamps; sequencing, never results).
func DefaultNoDeterminismConfig() NoDeterminismConfig {
	return NoDeterminismConfig{
		PackagePrefixes: []string{
			"nwade/internal/sim",
			"nwade/internal/nwade",
			"nwade/internal/eval",
			"nwade/internal/vnet",
			"nwade/internal/attack",
			"nwade/internal/traffic",
			"nwade/internal/chain",
			"nwade/internal/obs",
			"nwade/internal/roadnet",
		},
		Sanctioned: []string{
			"nwade/internal/eval.wallNow",
			"nwade/internal/obs.wallNow",
		},
	}
}

// bannedTimeFuncs are the wall-clock reads of package time. Durations and
// tickers built from simulated time are fine; reading the host clock is
// not.
var bannedTimeFuncs = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
}

// bannedRandFuncs are the package-level draw and seed functions of
// math/rand (and math/rand/v2): they share an unseeded global stream.
// Constructors (New, NewSource, NewPCG, ...) are allowed — per-run
// seeded *rand.Rand streams are exactly what the simulator should use.
var bannedRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Int32": true, "Int32N": true,
	"Int64": true, "Int64N": true, "IntN": true, "N": true,
	"Uint32": true, "Uint64": true, "Uint32N": true, "Uint64N": true,
	"Uint": true, "UintN": true, "Float32": true, "Float64": true,
	"ExpFloat64": true, "NormFloat64": true, "Perm": true,
	"Shuffle": true, "Seed": true, "Read": true,
}

// NewNoDeterminism builds the nodeterminism analyzer: it reports calls to
// time.Now/time.Since/time.Until and to the global math/rand draw
// functions inside the configured packages.
func NewNoDeterminism(cfg NoDeterminismConfig) *Analyzer {
	a := &Analyzer{
		Name: "nodeterminism",
		Doc:  "bans wall-clock reads and global math/rand draws in the simulation core",
	}
	sanctioned := mustSortedSet("nodeterminism", "Sanctioned", cfg.Sanctioned)
	a.Run = func(pass *Pass) {
		if !prefixApplies(pass.Pkg.Path, cfg.PackagePrefixes) {
			return
		}
		for _, f := range pass.Pkg.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && sanctioned[funcQualName(pass.Pkg.Path, fd)] {
					continue
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					sel, ok := call.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					qual, ok := sel.X.(*ast.Ident)
					if !ok {
						return true
					}
					switch pass.pkgPathOf(qual) {
					case "time":
						if bannedTimeFuncs[sel.Sel.Name] {
							pass.Reportf(call.Pos(),
								"time.%s reads the wall clock; seeded replays must derive every timestamp from simulated time", sel.Sel.Name)
						}
					case "math/rand", "math/rand/v2":
						if bannedRandFuncs[sel.Sel.Name] {
							pass.Reportf(call.Pos(),
								"rand.%s draws from the global RNG; use a seeded *rand.Rand owned by the component", sel.Sel.Name)
						}
					}
					return true
				})
			}
		}
	}
	return a
}

// funcQualName renders a declaration as "pkg/path.Func" or
// "pkg/path.Type.Method" for the Sanctioned lookup. Pointer receivers
// and generic receivers collapse to the bare type name.
func funcQualName(pkgPath string, fd *ast.FuncDecl) string {
	name := fd.Name.Name
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		t := fd.Recv.List[0].Type
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
		}
		switch tt := t.(type) {
		case *ast.IndexExpr:
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		}
		if id, ok := t.(*ast.Ident); ok {
			name = id.Name + "." + name
		}
	}
	return pkgPath + "." + name
}

// prefixApplies reports whether path is covered by the prefix list
// (empty list = everything).
func prefixApplies(path string, prefixes []string) bool {
	if len(prefixes) == 0 {
		return true
	}
	for _, p := range prefixes {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

package analysis

import (
	"go/ast"
	"go/token"
	"slices"
)

// HotAllocConfig tunes the hotalloc analyzer.
type HotAllocConfig struct {
	// PkgPath restricts the rule to one import path ("" = every package,
	// used by the fixture tests). With PkgPath or PkgFunctions set, a
	// listed name that its package does not declare is itself a finding.
	PkgPath string
	// Functions names the per-tick functions and methods whose bodies —
	// including closures defined inside them — must not allocate.
	Functions []string
	// PkgFunctions maps further import paths to their own hot-function
	// lists, checked with the same rules as PkgPath/Functions. Each
	// engine keeps its own list because the per-tick call trees are
	// disjoint.
	PkgFunctions map[string][]string
}

// DefaultHotAllocConfig lists the simulation engine's per-tick call
// tree: every function Engine.step reaches each tick, plus the spatial
// grid's rebuild/query path. One-shot paths that run at most once per
// run (construction, attack activation, snapshotting) are deliberately
// absent: an allocation there is invisible in steady state.
func DefaultHotAllocConfig() HotAllocConfig {
	return HotAllocConfig{
		PkgPath: "nwade/internal/sim",
		Functions: []string{
			// Engine tick phases.
			"step", "reindex", "spawn", "spawnBlocked",
			"deliver", "plainHandle", "dispatch", "tickIM", "tickVehicles",
			"sense", "senseScan",
			"physics", "move", "legacyMove", "boxClearFor",
			"obstacleAhead", "leaderGap", "violate", "collisions",
			// Spatial grid per-tick path.
			"rebuild", "gather", "forEach", "forEachOrdered",
		},
		PkgFunctions: map[string][]string{
			// The road network's every-tick path. The exchange-cadence
			// functions (beacon, relay, handleReport) run at most once
			// per second and may allocate.
			"nwade/internal/roadnet": {
				"Step", "stepRegions", "deliverBackbone", "handoffs",
			},
		},
	}
}

// NewHotAlloc builds the hotalloc analyzer. It flags `make` calls and
// `append`s to non-hoisted slices inside the configured per-tick
// functions: the engine's allocation-free tick contract (DESIGN.md §12,
// pinned by TestSteadyStateAllocBudget's allocs/tick and bytes/tick
// budgets) requires every per-tick buffer to live in the engine's (or
// its grid's) scratch state and be reused via truncation.
//
// Hoisted means the destination ultimately aliases state that outlives
// the call: a field (`e.pollBuf`, `e.neigh`), an element of such state,
// or a local derived from one (`out := e.neigh[:0]`). A `make` is exempt
// only when its result is stored straight into a field or element —
// the lazy-init-then-clear idiom. Everything else is a per-tick heap
// allocation: either hoist it or annotate the line with
// //lint:ignore hotalloc <reason>.
func NewHotAlloc(cfg HotAllocConfig) *Analyzer {
	lists := make(map[string][]string, 1+len(cfg.PkgFunctions))
	if cfg.PkgPath != "" {
		lists[cfg.PkgPath] = cfg.Functions
	}
	for p, fns := range cfg.PkgFunctions {
		lists[p] = fns
	}
	a := &Analyzer{
		Name: "hotalloc",
		Doc:  "flags non-hoisted make/append in per-tick engine functions",
	}
	a.Run = func(pass *Pass) {
		list, scoped := lists[pass.Pkg.Path]
		if !scoped {
			if len(lists) > 0 {
				return
			}
			list = cfg.Functions // fixture mode: every package uses the flat list
		}
		declared := make(map[string]bool)
		for _, f := range pass.Pkg.Files {
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok {
					declared[fn.Name.Name] = true
					if fn.Body != nil && slices.Contains(list, fn.Name.Name) {
						checkHotFunc(pass, fn)
					}
				}
			}
		}
		if !scoped {
			return
		}
		// A listed name the package does not declare is a deleted or
		// renamed function whose successor goes unchecked.
		for _, name := range list {
			if !declared[name] {
				pass.Reportf(pass.Pkg.Files[0].Pos(),
					"hot function %s is not declared in package %s; update the hotalloc function list", name, pass.Pkg.Path)
			}
		}
	}
	return a
}

// checkHotFunc analyzes one hot function body.
func checkHotFunc(pass *Pass, fn *ast.FuncDecl) {
	hoisted := make(map[string]bool)
	if fn.Recv != nil {
		for _, field := range fn.Recv.List {
			for _, name := range field.Names {
				hoisted[name.Name] = true
			}
		}
	}
	if fn.Type.Params != nil {
		for _, field := range fn.Type.Params.List {
			for _, name := range field.Names {
				hoisted[name.Name] = true
			}
		}
	}
	// Propagate hoistedness through local assignments. Two passes reach
	// a fixpoint for the chains that occur in practice (a closure that
	// aliases a buffer defined textually below it).
	for i := 0; i < 2; i++ {
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			st, ok := n.(*ast.AssignStmt)
			if !ok || len(st.Lhs) != len(st.Rhs) {
				return true
			}
			for j, lhs := range st.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && hoistedExpr(hoisted, st.Rhs[j]) {
					hoisted[id.Name] = true
				}
			}
			return true
		})
	}
	// Collect the makes that feed straight into hoisted storage (the
	// lazy-init idiom `e.blocked = make(...)`), which are exempt.
	exemptMake := make(map[*ast.CallExpr]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		st, ok := n.(*ast.AssignStmt)
		if !ok || len(st.Lhs) != 1 || len(st.Rhs) != 1 {
			return true
		}
		call, ok := st.Rhs[0].(*ast.CallExpr)
		if !ok || !isBuiltinCall(pass.Pkg, call, "make") {
			return true
		}
		if _, bare := st.Lhs[0].(*ast.Ident); !bare {
			exemptMake[call] = true
		}
		return true
	})
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch {
		case isBuiltinCall(pass.Pkg, call, "make"):
			if !exemptMake[call] {
				pass.Reportf(call.Pos(),
					"%s is on the per-tick path: make allocates every tick; hoist the buffer into scratch state that outlives the call (or annotate //lint:ignore hotalloc <reason>)",
					fn.Name.Name)
			}
		case isBuiltinCall(pass.Pkg, call, "append") && len(call.Args) > 0:
			if !hoistedExpr(hoisted, call.Args[0]) {
				pass.Reportf(call.Pos(),
					"%s is on the per-tick path: append to a non-hoisted slice allocates on growth every tick; reuse a scratch buffer via x = buf[:0] (or annotate //lint:ignore hotalloc <reason>)",
					fn.Name.Name)
			}
		}
		return true
	})
}

// hoistedExpr reports whether an expression aliases storage that
// outlives the call: a field or element of one, a hoisted local, or an
// append chain rooted at either.
func hoistedExpr(hoisted map[string]bool, e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.Ident:
		return hoisted[x.Name]
	case *ast.SelectorExpr:
		return true
	case *ast.IndexExpr:
		return hoistedExpr(hoisted, x.X)
	case *ast.SliceExpr:
		return hoistedExpr(hoisted, x.X)
	case *ast.ParenExpr:
		return hoistedExpr(hoisted, x.X)
	case *ast.StarExpr:
		return hoistedExpr(hoisted, x.X)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return hoistedExpr(hoisted, x.X)
		}
	case *ast.CallExpr:
		if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "append" && len(x.Args) > 0 {
			return hoistedExpr(hoisted, x.Args[0])
		}
	}
	return false
}

// isBuiltinCall reports whether call invokes the named builtin (not a
// shadowing local).
func isBuiltinCall(pkg *Package, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	return isBuiltinAppend(pkg, id)
}

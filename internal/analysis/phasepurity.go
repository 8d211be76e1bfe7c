package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// PhasePurityConfig scopes the phasepurity analyzer.
type PhasePurityConfig struct {
	// Sanctioned lists fully-qualified declared functions ("pkg/path.Func"
	// or "pkg/path.Type.Method") whose bodies are exempt from every
	// phase-purity check: the audited wall-clock shims and commit helpers.
	// The list must be sorted and duplicate-free (NewPhasePurity panics
	// otherwise), so the allowlist cannot silently drift.
	Sanctioned []string
	// ApprovedSyncPackages lists package-path prefixes whose internal
	// synchronization is a reviewed design decision: the thread-safe
	// sinks (telemetry, metrics, the virtual network) that workers hit
	// concurrently on purpose. Sync checks are skipped inside them; every
	// other phase-purity rule still applies. Sorted, duplicate-free.
	ApprovedSyncPackages []string
}

// DefaultPhasePurityConfig sanctions the one measurement lane,
// obs.wallNow (the same shim the nodeterminism rule sanctions): region
// workers time their steps with obs.Stopwatch, and the imbalance
// statistic never feeds simulation state. Outside the thread-safe sink
// packages, every synchronization the phase needs lives in the marked
// pool drivers, which are always exempt from the sync checks.
func DefaultPhasePurityConfig() PhasePurityConfig {
	return PhasePurityConfig{
		Sanctioned: []string{
			"nwade/internal/obs.wallNow",
		},
		ApprovedSyncPackages: []string{
			"nwade/internal/metrics",
			"nwade/internal/obs",
			"nwade/internal/vnet",
		},
	}
}

// parallelRootRe matches the self-registration directive. It goes on
// the line directly above (or the line of) a worker closure or worker
// function: everything statically reachable from a marked body is
// checked for phase purity.
var parallelRootRe = regexp.MustCompile(`^//lint:parallel-root\b`)

// NewPhasePurity builds the phasepurity analyzer: a whole-program rule
// that seeds a package-spanning call graph with the //lint:parallel-root
// bodies and flags, in everything reachable, the operations that break
// determinism or phase isolation — wall-clock and global-RNG reads,
// order-sensitive map iteration, writes to package-level or
// phase-external captured state, and synchronization outside the pool
// drivers. The complementary dynamic check is the nightly full -race
// run: the lint proves the declared phase boundaries, the race detector
// hunts the pointer aliasing the lint cannot see (DESIGN.md §14).
func NewPhasePurity(cfg PhasePurityConfig) *Analyzer {
	sanctioned := mustSortedSet("phasepurity", "Sanctioned", cfg.Sanctioned)
	mustSortedSet("phasepurity", "ApprovedSyncPackages", cfg.ApprovedSyncPackages)
	a := &Analyzer{
		Name: "phasepurity",
		Doc:  "flags nondeterminism and isolation breaks reachable from //lint:parallel-root bodies",
	}
	a.RunProgram = func(pass *ProgramPass) {
		marks := collectRootMarks(pass.Prog.Pkgs)
		g := buildCallGraph(pass.Prog.All())
		var roots []*cgNode
		for _, n := range g.nodes {
			if marks.claim(n) {
				roots = append(roots, n)
			}
		}
		marks.reportUnclaimed(pass)
		if len(roots) == 0 {
			return
		}
		rootSet := make(map[*cgNode]bool, len(roots))
		for _, r := range roots {
			rootSet[r] = true
		}
		origin := reachableFrom(g, roots)
		for _, n := range sortedNodes(origin) {
			if sanctioned[n.qualName()] {
				continue
			}
			c := &purityCheck{
				pass:   pass,
				node:   n,
				root:   origin[n].name(),
				origin: origin,
				skipSync: rootSet[n] ||
					(len(cfg.ApprovedSyncPackages) > 0 &&
						prefixApplies(n.pkg.Path, cfg.ApprovedSyncPackages)),
			}
			c.check()
		}
	}
	return a
}

// rootMarks tracks the parallel-root directives of one run: where they
// are, and which ones matched a function body.
type rootMarks struct {
	byLine map[string]map[int]token.Pos // file -> line -> directive pos
	fsets  map[string]*token.FileSet
}

// collectRootMarks scans the in-scope packages for directives.
func collectRootMarks(pkgs []*Package) *rootMarks {
	m := &rootMarks{
		byLine: make(map[string]map[int]token.Pos),
		fsets:  make(map[string]*token.FileSet),
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !parallelRootRe.MatchString(c.Text) {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					if m.byLine[pos.Filename] == nil {
						m.byLine[pos.Filename] = make(map[int]token.Pos)
					}
					m.byLine[pos.Filename][pos.Line] = c.Pos()
					m.fsets[pos.Filename] = pkg.Fset
				}
			}
		}
	}
	return m
}

// claim reports whether a directive marks this node, consuming it. A
// directive marks the body whose declaration starts on the next line
// (or the same line), or a declaration whose doc comment contains it.
func (m *rootMarks) claim(n *cgNode) bool {
	var start token.Pos
	if n.decl != nil {
		start = n.decl.Pos()
		if n.decl.Doc != nil {
			for _, c := range n.decl.Doc.List {
				pos := n.pkg.Fset.Position(c.Pos())
				if lines, ok := m.byLine[pos.Filename]; ok {
					if _, ok := lines[pos.Line]; ok && parallelRootRe.MatchString(c.Text) {
						delete(lines, pos.Line)
						return true
					}
				}
			}
		}
	} else {
		start = n.lit.Pos()
	}
	pos := n.pkg.Fset.Position(start)
	lines, ok := m.byLine[pos.Filename]
	if !ok {
		return false
	}
	for _, line := range []int{pos.Line - 1, pos.Line} {
		if _, ok := lines[line]; ok {
			delete(lines, line)
			return true
		}
	}
	return false
}

// reportUnclaimed flags directives that marked nothing — a root that
// silently fell off the graph is exactly the drift this analyzer exists
// to prevent.
func (m *rootMarks) reportUnclaimed(pass *ProgramPass) {
	for _, lines := range m.byLine {
		for _, at := range lines {
			pass.Reportf(at,
				"parallel-root directive does not precede a function body; the phase it was meant to mark is unchecked")
		}
	}
}

// purityCheck runs the per-body rules for one reachable node.
type purityCheck struct {
	pass     *ProgramPass
	node     *cgNode
	root     string // name of the parallel root this body is reachable from
	origin   map[*cgNode]*cgNode
	skipSync bool
}

func (c *purityCheck) check() {
	walkOwnBody(c.node, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.RangeStmt:
			c.checkMapRange(x)
		case *ast.CallExpr:
			c.checkCall(x)
		case *ast.AssignStmt:
			if x.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range x.Lhs {
				c.checkWrite(lhs)
			}
		case *ast.IncDecStmt:
			c.checkWrite(x.X)
		case *ast.SendStmt:
			c.reportSync(x.Pos(), "channel send")
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				c.reportSync(x.Pos(), "channel receive")
			}
		case *ast.SelectStmt:
			c.reportSync(x.Pos(), "select")
		case *ast.GoStmt:
			c.reportSync(x.Pos(), "goroutine launch")
		}
		return true
	})
}

// checkMapRange flags order-sensitive map iteration, with the same
// sorted-extraction exemption the maprange rule applies.
func (c *purityCheck) checkMapRange(rng *ast.RangeStmt) {
	pkg := c.node.pkg
	if !isMapType(pkg.Info.TypeOf(rng.X)) {
		return
	}
	loop := scanRangeBody(pkg, rng.Body, DefaultMapRangeConfig().mutatorSet())
	if len(loop.kinds) == 0 {
		return
	}
	if loop.pure && allSortedLater(pkg, c.node.body(), rng, loop.appends) {
		return
	}
	c.pass.Reportf(rng.Pos(),
		"map iteration order reaches ordered state inside the parallel phase (reachable from %s); extract and sort the keys first",
		c.root)
}

// checkCall flags wall-clock reads, global RNG draws, and sync-package
// calls.
func (c *purityCheck) checkCall(call *ast.CallExpr) {
	pkg := c.node.pkg
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fun.Name == "close" && isBuiltinAppend(pkg, fun) {
			c.reportSync(call.Pos(), "channel close")
		}
	case *ast.SelectorExpr:
		if qual, ok := fun.X.(*ast.Ident); ok {
			switch pkg.pkgPathOf(qual) {
			case "time":
				if bannedTimeFuncs[fun.Sel.Name] {
					c.pass.Reportf(call.Pos(),
						"time.%s reads the wall clock inside the parallel phase (reachable from %s); derive timestamps from simulated time or sanction the function",
						fun.Sel.Name, c.root)
				}
				return
			case "math/rand", "math/rand/v2":
				if bannedRandFuncs[fun.Sel.Name] {
					c.pass.Reportf(call.Pos(),
						"rand.%s draws from the global RNG inside the parallel phase (reachable from %s); use a seeded *rand.Rand owned by the worker",
						fun.Sel.Name, c.root)
				}
				return
			case "sync", "sync/atomic":
				c.reportSync(call.Pos(), "sync."+fun.Sel.Name+" call")
				return
			}
		}
		if path, name := syncRecvType(pkg, fun.X); path != "" {
			c.reportSync(call.Pos(), name+"."+fun.Sel.Name+" call")
		}
	}
}

// checkWrite flags assignments whose target is package-level state or a
// variable captured from outside the parallel phase.
func (c *purityCheck) checkWrite(lhs ast.Expr) {
	id := baseIdentOf(lhs)
	if id == nil || id.Name == "_" {
		return
	}
	pkg := c.node.pkg
	obj, ok := pkg.Info.Uses[id].(*types.Var)
	if !ok {
		return
	}
	if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
		c.pass.Reportf(lhs.Pos(),
			"write to package-level %s inside the parallel phase (reachable from %s); shared state may only change in the sequential commit",
			obj.Name(), c.root)
		return
	}
	// Captured from an enclosing body: fine when that body is itself
	// inside the phase (a per-worker call chain), an isolation break when
	// it is the sequential code that launched the pool.
	if c.node.lit == nil {
		return
	}
	if obj.Pos() >= c.node.lit.Pos() && obj.Pos() <= c.node.lit.End() {
		return // declared inside this literal
	}
	for anc := c.node.parent; anc != nil; anc = anc.parent {
		var start, end token.Pos
		if anc.decl != nil {
			start, end = anc.decl.Pos(), anc.decl.End()
		} else {
			start, end = anc.lit.Pos(), anc.lit.End()
		}
		if obj.Pos() < start || obj.Pos() > end {
			continue
		}
		if _, reachable := c.origin[anc]; reachable {
			return // captured within the phase: worker-local chain
		}
		c.pass.Reportf(lhs.Pos(),
			"write to %s, captured from outside the parallel phase (reachable from %s); buffer the result and commit it after the phase",
			obj.Name(), c.root)
		return
	}
}

// reportSync flags one synchronization operation (unless this body is a
// pool driver or on the approved list).
func (c *purityCheck) reportSync(pos token.Pos, what string) {
	if c.skipSync {
		return
	}
	c.pass.Reportf(pos,
		"%s inside the parallel phase (reachable from %s); workers must not synchronize outside the pool driver",
		what, c.root)
}

// syncRecvType reports whether expr is a value of a named type from
// sync or sync/atomic, returning the package path and type name.
func syncRecvType(pkg *Package, expr ast.Expr) (path, name string) {
	t := pkg.Info.TypeOf(expr)
	if t == nil {
		return "", ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", ""
	}
	p := named.Obj().Pkg().Path()
	if p != "sync" && p != "sync/atomic" {
		return "", ""
	}
	return p, named.Obj().Name()
}

// baseIdentOf returns the leftmost identifier of an lvalue (nil when
// the expression has none, e.g. a call result).
func baseIdentOf(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// mutatorSet is the map form of MapRangeConfig.Mutators.
func (c MapRangeConfig) mutatorSet() map[string]bool {
	set := make(map[string]bool, len(c.Mutators))
	for _, m := range c.Mutators {
		set[m] = true
	}
	return set
}

// mustSortedSet converts an allowlist to a set, panicking on duplicates
// or unsorted entries: allowlist drift is a programmer error a unit test
// must catch, never something to tolerate silently.
func mustSortedSet(analyzer, field string, list []string) map[string]bool {
	set := make(map[string]bool, len(list))
	for i, s := range list {
		if set[s] {
			panic("analysis: " + analyzer + " " + field + " list has duplicate entry " + s)
		}
		if i > 0 && strings.Compare(list[i-1], s) > 0 {
			panic("analysis: " + analyzer + " " + field + " list is not sorted at " + s)
		}
		set[s] = true
	}
	return set
}

package analysis

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Program is the whole-program view of one analysis run: the packages
// in scope (the ones findings are wanted for) plus the loader, whose
// cache also holds every module-local dependency those packages pulled
// in. Per-package analyzers see one package at a time; program
// analyzers (phasepurity, snapdrift) see the Program and may follow
// calls and type references across package boundaries.
type Program struct {
	Loader *Loader
	// Pkgs are the in-scope packages, sorted by import path.
	Pkgs []*Package
}

// NewProgram builds a Program over the given packages.
func NewProgram(l *Loader, pkgs []*Package) *Program {
	sorted := append([]*Package(nil), pkgs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })
	return &Program{Loader: l, Pkgs: sorted}
}

// All returns every module-local package the loader has type-checked —
// the in-scope packages plus their module dependencies. Cross-package
// traversals (the call graph) walk this set so reachability does not
// stop at the scope boundary.
func (p *Program) All() []*Package {
	if p.Loader == nil {
		return p.Pkgs
	}
	return p.Loader.Loaded()
}

// ProgramPass hands the whole program to one program analyzer.
type ProgramPass struct {
	Analyzer *Analyzer
	Prog     *Program
	fset     *token.FileSet
	diags    *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run applies the analyzers to a whole program: per-package rules to
// every in-scope package, program rules once over the program. The
// returned diagnostics have //lint:ignore suppressions applied (a
// directive suppresses findings in any loaded package, so program
// analyzers reporting outside the scope set are suppressable too) and
// are sorted by position.
func Run(prog *Program, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		if a.Run != nil {
			for _, pkg := range prog.Pkgs {
				a.Run(&Pass{Analyzer: a, Pkg: pkg, diags: &diags})
			}
		}
		if a.RunProgram != nil && len(prog.Pkgs) > 0 {
			fset := prog.Pkgs[0].Fset
			a.RunProgram(&ProgramPass{Analyzer: a, Prog: prog, fset: fset, diags: &diags})
		}
	}
	ignores := make(map[ignoreKey]bool)
	for _, pkg := range prog.All() {
		diags = collectIgnores(pkg, diags, ignores)
	}
	return finishDiags(diags, ignores)
}

// collectIgnores scans one package's comments for //lint:ignore
// directives, recording suppressions into ignores and appending
// directive-misuse findings (a reason-less ignore) to diags.
func collectIgnores(pkg *Package, diags []Diagnostic, ignores map[ignoreKey]bool) []Diagnostic {
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				if strings.TrimSpace(m[2]) == "" {
					diags = append(diags, Diagnostic{Pos: pos, Analyzer: "directive",
						Message: fmt.Sprintf("lint:ignore %s without a reason", m[1])})
					continue
				}
				// A directive may name several analyzers, comma-separated:
				// //lint:ignore maprange,phasepurity <reason>.
				for _, name := range strings.Split(m[1], ",") {
					if name = strings.TrimSpace(name); name != "" {
						ignores[ignoreKey{name, pos.Filename, pos.Line}] = true
					}
				}
			}
		}
	}
	return diags
}

// finishDiags drops the suppressed diagnostics and sorts the survivors.
func finishDiags(diags []Diagnostic, ignores map[ignoreKey]bool) []Diagnostic {
	out := diags[:0]
	for _, d := range diags {
		if ignores[ignoreKey{d.Analyzer, d.Pos.Filename, d.Pos.Line}] ||
			ignores[ignoreKey{d.Analyzer, d.Pos.Filename, d.Pos.Line - 1}] {
			continue
		}
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Filename != out[j].Pos.Filename {
			return out[i].Pos.Filename < out[j].Pos.Filename
		}
		if out[i].Pos.Line != out[j].Pos.Line {
			return out[i].Pos.Line < out[j].Pos.Line
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out
}

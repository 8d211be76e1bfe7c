// Package analysis is a zero-dependency static-analysis suite guarding
// the repository's determinism contract: every paper metric rests on
// bit-identical seeded replays (see the golden-digest regression tests),
// so wall-clock reads, global RNG draws, order-sensitive map iteration,
// exact float comparison, and silently dropped errors are mechanically
// banned. cmd/nwade-lint is the CLI front end; DESIGN.md §9 documents
// each rule and its suppression story.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// Analyzer is one named rule. Per-package rules set Run, which inspects
// one package at a time; whole-program rules set RunProgram, which sees
// every loaded package at once (the call-graph and field-coverage
// analyzers). Exactly one of the two is set.
type Analyzer struct {
	Name       string
	Doc        string
	Run        func(*Pass)
	RunProgram func(*ProgramPass)
}

// Pass hands one package to one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	diags    *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the canonical "file:line: [name] message" form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Analyzer, d.Message)
}

// ignoreRe matches suppression directives: //lint:ignore <analyzer> <reason>.
// The reason is mandatory — an unexplained suppression is itself a finding.
var ignoreRe = regexp.MustCompile(`^//lint:ignore\s+(\S+)\s*(.*)$`)

// ignoreKey locates one suppression: analyzer name + file line.
type ignoreKey struct {
	analyzer string
	file     string
	line     int
}

// LintDirs loads every directory and runs the analyzers — per-package
// rules over each directory's package, whole-program rules once over
// the loaded set — returning the surviving diagnostics sorted by
// position.
func LintDirs(l *Loader, dirs []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return Run(NewProgram(l, pkgs), analyzers), nil
}

// Default returns the production analyzer set with this repository's
// configuration. The determinism rules apply to the simulation core; the
// error-discipline rule applies everywhere; the whole-program rules
// (phasepurity, snapdrift) follow the declared parallel roots and
// checkpoint structs wherever they lead.
func Default() []*Analyzer {
	return []*Analyzer{
		NewNoDeterminism(DefaultNoDeterminismConfig()),
		NewMapRange(DefaultMapRangeConfig()),
		NewFloatEq(),
		NewErrDrop(DefaultErrDropConfig()),
		NewHotAlloc(DefaultHotAllocConfig()),
		NewPhasePurity(DefaultPhasePurityConfig()),
		NewSnapDrift(DefaultSnapDriftConfig()),
	}
}

// pkgPathOf resolves an identifier that names an imported package,
// giving its import path ("" when id is not a package qualifier).
func (p *Pass) pkgPathOf(id *ast.Ident) string { return p.Pkg.pkgPathOf(id) }

// pkgPathOf is the Package-level form, shared with the whole-program
// analyzers, which work outside any single Pass.
func (p *Package) pkgPathOf(id *ast.Ident) string {
	if pn, ok := p.Info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

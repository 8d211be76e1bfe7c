package analysis

import (
	"go/token"
	"os"
	"path/filepath"
	"testing"
)

// lintSource type-checks one throwaway single-file module and runs the
// nodeterminism analyzer (unrestricted) over it — the smallest harness
// that exercises the directive machinery end to end.
func lintSource(t *testing.T, src string) []Diagnostic {
	t.Helper()
	return lintSourceCfg(t, src, NoDeterminismConfig{})
}

// lintSourceCfg is lintSource with an explicit analyzer configuration,
// for exercising the Sanctioned function list.
func lintSourceCfg(t *testing.T, src string, cfg NoDeterminismConfig) []Diagnostic {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module fixture\n\ngo 1.22\n",
		"p.go":   src,
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	return Run(NewProgram(l, []*Package{pkg}), []*Analyzer{NewNoDeterminism(cfg)})
}

func TestSanctionedFunctionIsExempt(t *testing.T) {
	src := `package p

import "time"

func wallNow() time.Time { return time.Now() }

func other() time.Time { return time.Now() }
`
	cfg := NoDeterminismConfig{Sanctioned: []string{"fixture.wallNow"}}
	diags := lintSourceCfg(t, src, cfg)
	if len(diags) != 1 {
		t.Fatalf("want 1 diagnostic (other only), got %v", diags)
	}
	if diags[0].Pos.Line != 7 {
		t.Fatalf("diagnostic should be in other() on line 7, got %v", diags[0])
	}
}

func TestSanctionedMethodIsExempt(t *testing.T) {
	src := `package p

import "time"

type clock struct{}

func (c *clock) now() time.Time { return time.Now() }
`
	cfg := NoDeterminismConfig{Sanctioned: []string{"fixture.clock.now"}}
	if diags := lintSourceCfg(t, src, cfg); len(diags) != 0 {
		t.Fatalf("sanctioned method should be exempt, got %v", diags)
	}
}

func TestUnsanctionedStillReported(t *testing.T) {
	src := `package p

import "time"

func wallNow() time.Time { return time.Now() }
`
	if diags := lintSourceCfg(t, src, NoDeterminismConfig{}); len(diags) != 1 {
		t.Fatalf("without sanction the call must be reported, got %v", diags)
	}
}

func TestIgnoreDirectiveSuppressesLineBelow(t *testing.T) {
	diags := lintSource(t, `package p

import "time"

//lint:ignore nodeterminism the fixture needs a wall-clock read
var T = time.Now()
`)
	if len(diags) != 0 {
		t.Fatalf("want no diagnostics, got %v", diags)
	}
}

func TestIgnoreDirectiveSuppressesSameLine(t *testing.T) {
	diags := lintSource(t, `package p

import "time"

var T = time.Now() //lint:ignore nodeterminism the fixture needs a wall-clock read
`)
	if len(diags) != 0 {
		t.Fatalf("want no diagnostics, got %v", diags)
	}
}

func TestIgnoreWithoutReasonIsItselfAFinding(t *testing.T) {
	diags := lintSource(t, `package p

import "time"

//lint:ignore nodeterminism
var T = time.Now()
`)
	var sawDirective, sawFinding bool
	for _, d := range diags {
		switch d.Analyzer {
		case "directive":
			sawDirective = true
		case "nodeterminism":
			sawFinding = true
		}
	}
	if !sawDirective {
		t.Errorf("reason-less directive not reported: %v", diags)
	}
	if !sawFinding {
		t.Errorf("reason-less directive must not suppress the finding: %v", diags)
	}
}

func TestIgnoreWrongAnalyzerDoesNotSuppress(t *testing.T) {
	diags := lintSource(t, `package p

import "time"

//lint:ignore floateq names must match the reporting analyzer
var T = time.Now()
`)
	if len(diags) != 1 || diags[0].Analyzer != "nodeterminism" {
		t.Fatalf("want exactly the nodeterminism finding, got %v", diags)
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{
		Pos:      token.Position{Filename: "a/b.go", Line: 7},
		Analyzer: "floateq",
		Message:  "== on floating-point operands",
	}
	want := "a/b.go:7: [floateq] == on floating-point operands"
	if got := d.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

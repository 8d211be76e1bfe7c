// nwade-lint runs the repository's determinism & correctness analyzer
// suite (internal/analysis) over package patterns, printing one
// "file:line: [analyzer] message" diagnostic per finding and exiting
// nonzero when any survive. Stdlib only: packages are type-checked with
// go/parser + go/types against GOROOT source, so the tool needs no
// module downloads and go.mod stays dependency-free.
//
// Usage:
//
//	go run ./cmd/nwade-lint ./...
//	go run ./cmd/nwade-lint ./internal/nwade ./internal/eval/...
//	go run ./cmd/nwade-lint -json ./... > findings.json
//	go run ./cmd/nwade-lint -github ./...
//
// Output modes: the default is the human "file:line: [analyzer] message"
// form; -json emits a machine-readable findings array; -github emits
// GitHub Actions workflow commands so CI findings surface as inline
// error annotations on the pull request. Every finding gates.
//
// Suppression: //lint:ignore <analyzer> <reason> on the offending line
// or the line directly above it (comma-separate several analyzers). The
// reason is mandatory. DESIGN.md §9 and §14 document every rule.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"nwade/internal/analysis"
)

func main() {
	findings, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nwade-lint:", err)
		os.Exit(2)
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "nwade-lint: %d finding(s)\n", findings)
		os.Exit(1)
	}
}

// finding is the machine-readable diagnostic form -json writes.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// run lints the requested patterns and returns the surviving finding
// count (the caller maps >0 to exit code 1, errors to 2).
func run(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("nwade-lint", flag.ContinueOnError)
	fs.SetOutput(out)
	list := fs.Bool("list", false, "list the analyzers and exit")
	asJSON := fs.Bool("json", false, "emit findings as a JSON array")
	github := fs.Bool("github", false, "emit findings as GitHub Actions error annotations")
	fs.Usage = func() {
		fmt.Fprintf(out, "usage: nwade-lint [flags] [packages]\n\n"+
			"Patterns: ./... (module tree), dir, dir/... — relative to the module root.\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	if *asJSON && *github {
		return 0, fmt.Errorf("-json and -github are mutually exclusive")
	}

	analyzers := analysis.Default()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(out, "%-16s %s\n", a.Name, a.Doc)
		}
		return 0, nil
	}

	root, err := findModuleRoot()
	if err != nil {
		return 0, err
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		return 0, err
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var dirs []string
	seen := make(map[string]bool)
	for _, pat := range patterns {
		expanded, err := expand(loader, root, pat)
		if err != nil {
			return 0, err
		}
		for _, d := range expanded {
			if !seen[d] {
				seen[d] = true
				dirs = append(dirs, d)
			}
		}
	}

	diags, err := analysis.LintDirs(loader, dirs, analyzers)
	if err != nil {
		return 0, err
	}
	var findings []finding
	for _, d := range diags {
		file := d.Pos.Filename
		if r, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(r, "..") {
			file = filepath.ToSlash(r)
		}
		findings = append(findings, finding{File: file, Line: d.Pos.Line, Analyzer: d.Analyzer, Message: d.Message})
	}

	switch {
	case *asJSON:
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []finding{} // encode as [], never null
		}
		if err := enc.Encode(findings); err != nil {
			return 0, err
		}
	case *github:
		for _, f := range findings {
			// GitHub Actions workflow command: renders as an inline error
			// annotation on the offending line of the PR diff.
			fmt.Fprintf(out, "::error file=%s,line=%d,title=nwade-lint %s::%s\n",
				f.File, f.Line, f.Analyzer, escapeAnnotation(f.Message))
		}
	default:
		for _, f := range findings {
			fmt.Fprintf(out, "%s:%d: [%s] %s\n", f.File, f.Line, f.Analyzer, f.Message)
		}
	}
	return len(findings), nil
}

// escapeAnnotation encodes a message for the workflow-command data
// section (its own mini escaping scheme, per the Actions docs).
func escapeAnnotation(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

// expand resolves one package pattern to directories.
func expand(l *analysis.Loader, root, pat string) ([]string, error) {
	base, recursive := pat, false
	if rest, ok := strings.CutSuffix(pat, "/..."); ok {
		base, recursive = rest, true
	}
	if base == "." || base == "" {
		base = root
	} else if !filepath.IsAbs(base) {
		base = filepath.Join(root, base)
	}
	if recursive {
		return l.FindPackages(base)
	}
	return []string{base}, nil
}

// findModuleRoot walks up from the working directory to the go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("nwade-lint: no go.mod above %s", dir)
		}
		dir = parent
	}
}

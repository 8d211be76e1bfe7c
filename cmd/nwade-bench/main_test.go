package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-list"}, &buf); err != nil {
		t.Fatalf("run -list: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"registered experiments", "fig4", "table2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("-list output missing %q:\n%s", want, out)
		}
	}
}

func TestRunTraceForcesSequential(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "bench.jsonl")
	var buf bytes.Buffer
	if err := run([]string{"-exp", "eq2", "-trace", trace, "-workers", "4"}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(buf.String(), "-trace forces -workers 1") {
		t.Fatalf("missing workers note:\n%s", buf.String())
	}
	// CI's drain job filters the bracketed wall-time line by its prefix.
	if !strings.Contains(buf.String(), "[eq2: ") {
		t.Fatalf("missing eq2 wall-time line:\n%s", buf.String())
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-exp", "nope"}, &bytes.Buffer{}); err == nil {
		t.Fatalf("unknown experiment should fail")
	}
}

func TestRunResumeDir(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-exp", "fig4", "-quick", "-rounds", "1", "-duration", "4s",
		"-workers", "1", "-resume-dir", dir}
	var first, second bytes.Buffer
	if err := run(args, &first); err != nil {
		t.Fatalf("first sweep: %v\n%s", err, first.String())
	}
	cells, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) == 0 {
		t.Fatal("resume dir is empty after a sweep")
	}
	// Second run resumes from the store; results must match.
	if err := run(args, &second); err != nil {
		t.Fatalf("resumed sweep: %v\n%s", err, second.String())
	}
	trim := func(s string) string { return s[:strings.Index(s, "[fig4:")] }
	if trim(first.String()) != trim(second.String()) {
		t.Errorf("resumed sweep output differs:\n--- first\n%s--- second\n%s", first.String(), second.String())
	}
}

func TestRunDrainNeedsResumeDir(t *testing.T) {
	if err := run([]string{"-exp", "fig4", "-drain"}, &bytes.Buffer{}); err == nil ||
		!strings.Contains(err.Error(), "-resume-dir") {
		t.Fatalf("want -drain-needs-resume-dir error, got %v", err)
	}
}

// TestRunDrainTwoWorkers is the in-process shape of the CI drain job:
// two concurrent nwade-bench invocations share one sweep directory, and
// each experiment table must come out identical to a lone worker's —
// with the drain stats lines the only difference.
func TestRunDrainTwoWorkers(t *testing.T) {
	ref := t.TempDir()
	args := func(dir, id string) []string {
		return []string{"-exp", "fig4", "-quick", "-rounds", "1", "-duration", "4s",
			"-workers", "2", "-resume-dir", dir, "-drain", "-worker-id", id}
	}
	var refOut bytes.Buffer
	if err := run(args(ref, "ref"), &refOut); err != nil {
		t.Fatalf("reference drain: %v\n%s", err, refOut.String())
	}

	shared := t.TempDir()
	var a, b bytes.Buffer
	errc := make(chan error, 1)
	go func() { errc <- run(args(shared, "a"), &a) }()
	if err := run(args(shared, "b"), &b); err != nil {
		t.Fatalf("worker b: %v\n%s", err, b.String())
	}
	if err := <-errc; err != nil {
		t.Fatalf("worker a: %v\n%s", err, a.String())
	}

	// flatten drops the bracketed wall-time and drain-stats lines, the
	// same filter the CI job applies before its diff.
	flatten := func(s string) string {
		var keep []string
		for _, line := range strings.Split(s, "\n") {
			if !strings.HasPrefix(line, "[") {
				keep = append(keep, line)
			}
		}
		return strings.Join(keep, "\n")
	}
	if flatten(a.String()) != flatten(refOut.String()) {
		t.Errorf("worker a output differs from single-worker run:\n--- a\n%s--- ref\n%s", a.String(), refOut.String())
	}
	if flatten(b.String()) != flatten(refOut.String()) {
		t.Errorf("worker b output differs from single-worker run:\n--- b\n%s--- ref\n%s", b.String(), refOut.String())
	}

	// Exactly-once execution: the workers' executed counts partition the
	// cell set (stats lines look like "[drain a: executed N, ...]").
	cells, err := os.ReadDir(shared)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, e := range cells {
		if strings.HasSuffix(e.Name(), ".json") {
			want++
		}
	}
	total := drainExecuted(t, a.String()) + drainExecuted(t, b.String())
	if want == 0 || total != want {
		t.Errorf("workers executed %d cells, want exactly the %d stored cells", total, want)
	}
}

// drainExecuted parses "executed N" out of a drain stats line.
func drainExecuted(t *testing.T, out string) int {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "[drain ") {
			var id string
			var n int
			if _, err := fmt.Sscanf(line, "[drain %s executed %d,", &id, &n); err != nil {
				t.Fatalf("unparseable drain stats line %q: %v", line, err)
			}
			return n
		}
	}
	t.Fatalf("no drain stats line in output:\n%s", out)
	return 0
}

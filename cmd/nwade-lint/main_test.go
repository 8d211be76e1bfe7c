package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	var buf bytes.Buffer
	findings, err := run([]string{"-list"}, &buf)
	if err != nil {
		t.Fatalf("run -list: %v", err)
	}
	if findings != 0 {
		t.Fatalf("-list reported %d findings", findings)
	}
	out := buf.String()
	for _, want := range []string{"nodeterminism", "maprange", "floateq", "errdrop", "hotalloc", "phasepurity", "snapdrift"} {
		if !strings.Contains(out, want) {
			t.Fatalf("-list output missing %q:\n%s", want, out)
		}
	}
}

func TestJSONAndGithubAreExclusive(t *testing.T) {
	var buf bytes.Buffer
	if _, err := run([]string{"-json", "-github"}, &buf); err == nil {
		t.Fatal("-json -github should be rejected")
	}
}

func TestEscapeAnnotation(t *testing.T) {
	got := escapeAnnotation("50% of\nlines")
	if got != "50%25 of%0Alines" {
		t.Fatalf("escapeAnnotation = %q", got)
	}
}

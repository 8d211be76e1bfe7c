package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nwade/internal/obs"
)

func TestRunSmoke(t *testing.T) {
	var buf bytes.Buffer
	args := []string{"-scenario", "benign", "-duration", "2s", "-density", "30", "-keybits", "512"}
	if err := run(args, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"spawned", "collisions", "network packets by kind"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunReplicas(t *testing.T) {
	var buf bytes.Buffer
	args := []string{"-scenario", "benign", "-duration", "2s", "-density", "30",
		"-keybits", "512", "-rounds", "2", "-workers", "1"}
	if err := run(args, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(buf.String(), "mean") {
		t.Fatalf("replica output missing aggregate row:\n%s", buf.String())
	}
}

func TestRunTraceAndObs(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "run.jsonl")
	var buf bytes.Buffer
	args := []string{"-scenario", "benign", "-duration", "2s", "-density", "30",
		"-keybits", "512", "-trace", trace, "-obs"}
	if err := run(args, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(buf.String(), "observability summary") {
		t.Fatalf("-obs output missing report:\n%s", buf.String())
	}
	f, err := os.Open(trace)
	if err != nil {
		t.Fatalf("trace file: %v", err)
	}
	defer f.Close()
	tr, err := obs.ReadTrace(f)
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if tr.Meta == nil || tr.Meta.Tool != "nwade-sim" || tr.Meta.Scenario != "benign" {
		t.Fatalf("trace meta = %+v", tr.Meta)
	}
	if tr.Summary == nil {
		t.Fatalf("trace missing sum record")
	}
}

func TestRunBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-scenario", "nope"},
		{"-intersection", "nope"},
		{"-faults", "nope"},
	} {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Fatalf("run(%v) should fail", args)
		}
	}
}

// TestRunRejectsUnknownLayout pins the refusal of an unknown layout: a
// usage error with the engine's message, before anything is built.
func TestRunRejectsUnknownLayout(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-intersection", "hexagon"}, &buf)
	const want = `sim: unknown intersection layout "hexagon" (want one of [cfi4 cross4 ddi4 irregular5 roundabout3])`
	var ue usageError
	if err == nil || err.Error() != want || !errors.As(err, &ue) {
		t.Fatalf("err = %v, want usage error %q", err, want)
	}
}

// TestCheckpointDirCheckedBeforeRun asserts that a -checkpoint-dir that
// is missing, or is a file, is refused as a usage error naming the flag
// before anything is simulated, for single and network runs alike.
func TestCheckpointDirCheckedBeforeRun(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(t.TempDir(), "missing")
	for _, network := range []string{"", "grid:2x2"} {
		for _, dir := range []string{missing, file} {
			var buf bytes.Buffer
			args := []string{"-network", network, "-duration", "4s", "-density", "30", "-keybits", "512",
				"-checkpoint-every", "2s", "-checkpoint-dir", dir}
			err := run(args, &buf)
			var ue usageError
			if err == nil || !errors.As(err, &ue) || !strings.Contains(err.Error(), "-checkpoint-dir "+dir) {
				t.Fatalf("network %q, dir %s: err = %v, want a usage error naming -checkpoint-dir", network, dir, err)
			}
			if buf.Len() != 0 {
				t.Fatalf("network %q, dir %s: the run started:\n%s", network, dir, buf.String())
			}
		}
	}
}

// TestNetworkConflictsAreUsageErrors asserts that -network refuses
// -rounds, -trace, -obs and -pprof as usage errors, before it prints
// anything or creates a trace or profile file.
func TestNetworkConflictsAreUsageErrors(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out")
	for _, extra := range [][]string{
		{"-rounds", "2"},
		{"-trace", out},
		{"-obs"},
		{"-pprof", out},
	} {
		var buf bytes.Buffer
		args := append([]string{"-network", "grid:2x2", "-duration", "4s", "-keybits", "512"}, extra...)
		err := run(args, &buf)
		var ue usageError
		if err == nil || !errors.As(err, &ue) {
			t.Fatalf("%v: err = %v, want a usage error", extra, err)
		}
		if buf.Len() != 0 {
			t.Fatalf("%v: the run started:\n%s", extra, buf.String())
		}
		if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%v: %s exists (%v)", extra, out, err)
		}
	}
}

func TestCheckpointAndResume(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	args := []string{"-scenario", "V1", "-attack-at", "2s", "-duration", "6s",
		"-density", "40", "-keybits", "1024", "-seed", "3",
		"-checkpoint-every", "2s", "-checkpoint-dir", dir}
	if err := run(args, &buf); err != nil {
		t.Fatalf("checkpointed run: %v\n%s", err, buf.String())
	}
	for _, name := range []string{"ckpt-2s.snap", "ckpt-4s.snap"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("missing checkpoint %s: %v\n%s", name, err, buf.String())
		}
	}

	buf.Reset()
	if err := run([]string{"-resume", filepath.Join(dir, "ckpt-4s.snap")}, &buf); err != nil {
		t.Fatalf("resume: %v\n%s", err, buf.String())
	}
	out := buf.String()
	// "seed 3" guards the banner against reporting flag defaults
	// instead of the checkpoint's spec on -resume.
	for _, want := range []string{"resumed", "at 4s", "spawned", "seed 3", "for 6s"} {
		if !strings.Contains(out, want) {
			t.Fatalf("resume output missing %q:\n%s", want, out)
		}
	}

	// A network run takes the same path: resuming its checkpoint must
	// print the uninterrupted run's digest.
	buf.Reset()
	args = []string{"-network", "grid:2x2", "-scenario", "V3", "-attack-region", "1",
		"-duration", "4s", "-keybits", "512", "-seed", "7",
		"-checkpoint-every", "2s", "-checkpoint-dir", dir}
	if err := run(args, &buf); err != nil {
		t.Fatalf("checkpointed network run: %v\n%s", err, buf.String())
	}
	want := digestLine(t, buf.String())
	buf.Reset()
	if err := run([]string{"-resume", filepath.Join(dir, "ckpt-2s.snap")}, &buf); err != nil {
		t.Fatalf("network resume: %v\n%s", err, buf.String())
	}
	if got := digestLine(t, buf.String()); got != want {
		t.Errorf("resumed network digest %q, want %q", got, want)
	}
}

// digestLine returns the report's "digest" line.
func digestLine(t *testing.T, out string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "digest ") {
			return line
		}
	}
	t.Fatalf("no digest line in:\n%s", out)
	return ""
}

func TestCheckpointRejectsReplicas(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-rounds", "2", "-checkpoint-every", "1s"}, &buf); err == nil {
		t.Fatal("-checkpoint-every with -rounds should fail")
	}
	if err := run([]string{"-rounds", "2", "-resume", "x.snap"}, &buf); err == nil {
		t.Fatal("-resume with -rounds should fail")
	}
}

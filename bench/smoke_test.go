package main

import (
	"io"
	"sort"
	"testing"
	"time"
)

// names lists a metric table's names and units, sorted by name.
func names(defs []metricDef) [][2]string {
	out := make([][2]string, len(defs))
	for i, d := range defs {
		out[i] = [2]string{d.name, d.unit}
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

func equalNames(a, b [][2]string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// The program and BENCHMARK.json must agree on workloads, metric names,
// units and run length.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	bj, err := readBenchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", bj.RunSeconds, defaultSeconds)
	}
	var ws []string
	for _, w := range bj.Workloads {
		ws = append(ws, w.Name)
	}
	if len(ws) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, program %v", ws, workloadNames)
	}
	for i := range ws {
		if ws[i] != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, ws[i], workloadNames[i])
		}
	}
	var e2e, layer []metricDef
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range bj.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	if !equalNames(names(e2e), names(endToEnd)) {
		t.Errorf("end_to_end in BENCHMARK.json %v\nprogram %v", names(e2e), names(endToEnd))
	}
	if !equalNames(names(layer), names(perLayer)) {
		t.Errorf("per_layer in BENCHMARK.json %v\nprogram %v", names(layer), names(perLayer))
	}
}

// Every workload runs at the quick size, untraced and traced, passes its
// checks, and emits exactly the metrics BENCHMARK.json names.
func TestQuickRunsEmitDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped in -short mode")
	}
	bj, err := readBenchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range bj.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range bj.PerLayer {
		want[true][m.Name] = m.Unit
	}
	start := time.Now()
	dir := t.TempDir()
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(name, runOpts{seed: 7, seconds: time.Millisecond, traced: traced, quick: true, dir: dir}, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want[traced]) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", name, traced, len(res.Metrics), len(want[traced]))
			}
			for n, m := range res.Metrics {
				if u, ok := want[traced][n]; !ok || u != m.Unit {
					t.Errorf("%s traced=%v: metric %s (%s) not in BENCHMARK.json as such", name, traced, n, m.Unit)
				}
			}
		}
	}
	if d := time.Since(start); d > 15*time.Second && !raceEnabled {
		t.Errorf("quick runs took %v, want at most 15s", d)
	}
}

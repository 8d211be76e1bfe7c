package main

import (
	"strings"
	"testing"
)

func TestJudgeVerdicts(t *testing.T) {
	lower := bound{Name: "job_p50_s", Better: "lower", Bound: 0.1}
	higher := bound{Name: "sim_s_per_s", Better: "higher", Bound: 0.1}
	for _, c := range []struct {
		name string
		b    bound
		a, v []float64
		want verdict
	}{
		{"same", lower, []float64{1.00, 1.01, 0.99}, []float64{1.01, 1.00, 1.02}, unchanged},
		{"within bound", lower, []float64{1.00, 1.01, 0.99}, []float64{1.08, 1.07, 1.09}, unchanged},
		{"slower", lower, []float64{1.00, 1.01, 0.99}, []float64{1.20, 1.21, 1.19}, regressed},
		{"faster", lower, []float64{1.00, 1.01, 0.99}, []float64{0.80, 0.81, 0.79}, improved},
		{"throughput down", higher, []float64{100, 101, 99}, []float64{85, 86, 84}, regressed},
		{"throughput up", higher, []float64{100, 101, 99}, []float64{120, 121, 119}, improved},
		{"noisy", lower, []float64{1.0, 1.5, 0.7}, []float64{1.1, 1.6, 0.8}, unresolved},
		// Noisy, but every run of B beats every run of A.
		{"noisy but disjoint", lower, []float64{1.0, 1.5, 1.3}, []float64{0.5, 0.7, 0.9}, improved},
	} {
		if got, _ := judge(c.b, c.a, c.v); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestRowVerdict(t *testing.T) {
	for _, c := range []struct {
		vs   []verdict
		want verdict
	}{
		{[]verdict{unchanged, unchanged}, unchanged},
		{[]verdict{unchanged, improved}, improved},
		{[]verdict{improved, unresolved}, unresolved},
		{[]verdict{unresolved, regressed, improved}, regressed},
	} {
		if got := rowVerdict(c.vs); got != c.want {
			t.Errorf("rowVerdict(%v) = %s, want %s", c.vs, got, c.want)
		}
	}
}

func resultsWith(h host, p50 ...float64) resultsFile {
	wr := &workloadRuns{}
	for _, v := range p50 {
		wr.Runs = append(wr.Runs, result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{"job_p50_s": {Value: v, Unit: "s"}}})
	}
	return resultsFile{Host: h, Workloads: map[string]*workloadRuns{"w": wr}}
}

func TestCompareFiles(t *testing.T) {
	bj := benchmarkJSON{
		Workloads: []workloadSpec{{Name: "w"}},
		EndToEnd:  []bound{{Name: "job_p50_s", Better: "lower", Bound: 0.1}},
	}
	h := host{NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.x", CPUModel: "cpu"}

	rows, bad, err := compareFiles(bj, resultsWith(h, 1, 1.01, 0.99), resultsWith(h, 1.3, 1.31, 1.29))
	if err != nil || !bad || len(rows) != 1 || !strings.Contains(rows[0], "regressed") {
		t.Errorf("regression: rows %q bad %v err %v", rows, bad, err)
	}
	rows, bad, err = compareFiles(bj, resultsWith(h, 1, 1.01, 0.99), resultsWith(h, 1, 1.01, 0.99))
	if err != nil || bad || !strings.HasPrefix(rows[0], "w") || !strings.Contains(rows[0], "unchanged") {
		t.Errorf("identical: rows %q bad %v err %v", rows, bad, err)
	}
}

// Results from different hosts are refused, never gated on.
func TestCompareRefusesHostMismatch(t *testing.T) {
	bj := benchmarkJSON{EndToEnd: []bound{{Name: "job_p50_s", Better: "lower", Bound: 0.1}}}
	a := resultsWith(host{NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.x", CPUModel: "cpu"}, 1)
	for _, other := range []host{
		{NumCPU: 4, GOMAXPROCS: 2, GoVersion: "go1.x", CPUModel: "cpu"},
		{NumCPU: 2, GOMAXPROCS: 1, GoVersion: "go1.x", CPUModel: "cpu"},
		{NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.y", CPUModel: "cpu"},
		{NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.x", CPUModel: "other"},
	} {
		if _, _, err := compareFiles(bj, a, resultsWith(other, 1)); err == nil || !strings.Contains(err.Error(), "different hosts") {
			t.Errorf("host %+v: err %v, want a refusal", other, err)
		}
	}
}

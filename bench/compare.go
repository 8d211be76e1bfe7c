package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// host identifies the machine a results file was measured on. Results
// from different hosts are never compared.
type host struct {
	NumCPU     int    `json:"numcpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func currentHost() host {
	h := host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPUModel: runtime.GOARCH}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return h
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			h.CPUModel = strings.TrimSpace(v)
			break
		}
	}
	return h
}

// resultsFile is what the all-workloads mode writes and compare reads.
type resultsFile struct {
	Host      host                     `json:"host"`
	Seed      int64                    `json:"seed"`
	Seconds   float64                  `json:"seconds"`
	Workloads map[string]*workloadRuns `json:"workloads"`
}

// workloadRuns are one workload's untraced runs (seeds seed, seed+1, ...)
// and its traced run (seed).
type workloadRuns struct {
	Runs   []result `json:"runs"`
	Traced *result  `json:"traced,omitempty"`
}

// runAll runs every workload in its own child process — so each reports
// its own peak memory — and saves the results.
func runAll(o runOpts, runs int, out string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	file := resultsFile{Host: currentHost(), Seed: o.seed, Seconds: o.seconds.Seconds(), Workloads: map[string]*workloadRuns{}}
	ok := true
	for _, name := range workloadNames {
		wr := &workloadRuns{}
		for i := 0; i <= runs; i++ {
			traced := i == runs
			seed := o.seed + int64(i)
			if traced {
				seed = o.seed
			}
			res, err := child(exe, name, seed, traced, o, stderr)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			ok = ok && res.Correct
			if traced {
				wr.Traced = &res
			} else {
				wr.Runs = append(wr.Runs, res)
			}
		}
		file.Workloads[name] = wr
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	writeSummary(stdout, file)
	fmt.Fprintf(stdout, "results: %s\n", out)
	if !ok {
		return 1
	}
	return 0
}

// child runs one workload in a child process and parses its result line.
func child(exe, name string, seed int64, traced bool, o runOpts, stderr io.Writer) (result, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	args := []string{"--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds.Seconds(), 'g', -1, 64), "--trace", trace}
	if o.quick {
		args = append(args, "-quick")
	}
	var buf bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout = &buf
	cmd.Stderr = stderr
	runErr := cmd.Run()
	res, err := lastJSONLine(buf.String())
	if err != nil {
		return res, fmt.Errorf("bench: %s seed %d trace %s: %v (exit: %v)", name, seed, trace, err, runErr)
	}
	return res, nil
}

// writeSummary prints each workload's end-to-end medians with their
// spread, then its traced per-layer values.
func writeSummary(w io.Writer, f resultsFile) {
	for _, name := range workloadNames {
		wr := f.Workloads[name]
		if wr == nil {
			continue
		}
		fmt.Fprintf(w, "%s (%d runs)\n", name, len(wr.Runs))
		for _, m := range endToEnd {
			vals := values(wr.Runs, m.name)
			fmt.Fprintf(w, "  %-32s %14.6g %-8s spread %5.1f%%\n", m.name, median(vals), m.unit, 100*spread(vals))
		}
		if wr.Traced != nil {
			for _, m := range perLayer {
				fmt.Fprintf(w, "  %-32s %14.6g %s\n", m.name, wr.Traced.Metrics[m.name].Value, m.unit)
			}
		}
	}
}

func values(runs []result, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// benchmarkJSON is the part of BENCHMARK.json compare and the tests read.
type benchmarkJSON struct {
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []bound        `json:"end_to_end"`
	PerLayer   []layerSpec    `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// readBenchmarkJSON loads BENCHMARK.json from the working directory or
// its parent (the repository root seen from bench/).
func readBenchmarkJSON() (benchmarkJSON, error) {
	var bj benchmarkJSON
	var data []byte
	var err error
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		if data, err = os.ReadFile(p); err == nil {
			break
		}
	}
	if err != nil {
		return bj, fmt.Errorf("bench: %w", err)
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		return bj, fmt.Errorf("bench: BENCHMARK.json: %w", err)
	}
	return bj, nil
}

// verdict is how one (metric, workload) pair moved from A to B.
type verdict string

const (
	improved   verdict = "improved"
	unchanged  verdict = "unchanged"
	regressed  verdict = "regressed"
	unresolved verdict = "unresolved"
)

// judge applies one metric's bound. The change is the shift of B's
// median from A's, as a share of A's, signed so that positive is worse.
// When either side's quartile spread exceeds the bound the pair is
// unresolved, unless every run of B beats every run of A.
func judge(b bound, a, bv []float64) (verdict, float64) {
	ma, mb := median(a), median(bv)
	change := ratio(mb-ma, ma)
	if b.Better == "higher" {
		change = -change
	}
	if max(spread(a), spread(bv)) > b.Bound {
		if beatsAll(b.Better, a, bv) {
			return improved, change
		}
		return unresolved, change
	}
	switch {
	case change > b.Bound:
		return regressed, change
	case change < -b.Bound:
		return improved, change
	}
	return unchanged, change
}

// beatsAll reports whether every value of b is better than every value
// of a.
func beatsAll(better string, a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	sa, sb := sorted(a), sorted(b)
	if better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// rowVerdict folds a workload's metric verdicts: any regression wins,
// then any unresolved pair, then any improvement.
func rowVerdict(vs []verdict) verdict {
	out := unchanged
	rank := map[verdict]int{unchanged: 0, improved: 1, unresolved: 2, regressed: 3}
	for _, v := range vs {
		if rank[v] > rank[out] {
			out = v
		}
	}
	return out
}

// compareFiles judges B against A and returns one printable row per
// workload plus whether any pair regressed.
func compareFiles(bj benchmarkJSON, a, b resultsFile) ([]string, bool, error) {
	if a.Host != b.Host {
		return nil, false, fmt.Errorf("bench: refusing to compare results from different hosts: %+v vs %+v", a.Host, b.Host)
	}
	var rows []string
	bad := false
	for _, w := range bj.Workloads {
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		if wa == nil || wb == nil {
			rows = append(rows, fmt.Sprintf("%-16s missing from %s", w.Name, map[bool]string{true: "A", false: "B"}[wa == nil]))
			bad = true
			continue
		}
		var vs []verdict
		var cells []string
		for _, m := range bj.EndToEnd {
			v, change := judge(m, values(wa.Runs, m.Name), values(wb.Runs, m.Name))
			vs = append(vs, v)
			cells = append(cells, fmt.Sprintf("%s=%s(%+.1f%%)", m.Name, v, 100*change))
		}
		if failed(wb) {
			vs = append(vs, regressed)
			cells = append(cells, "B-failed-checks")
		}
		rv := rowVerdict(vs)
		bad = bad || rv == regressed
		rows = append(rows, fmt.Sprintf("%-16s %-10s %s", w.Name, rv, strings.Join(cells, " ")))
	}
	return rows, bad, nil
}

func failed(wr *workloadRuns) bool {
	for _, r := range wr.Runs {
		if !r.Correct {
			return true
		}
	}
	return wr.Traced != nil && !wr.Traced.Correct
}

func readResults(path string) (resultsFile, error) {
	var f resultsFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, fmt.Errorf("bench: %w", err)
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("bench: %s: %w", path, err)
	}
	return f, nil
}

// runCompare is "bench compare A.json B.json": exit 0 when nothing
// regressed, 1 when something did, 2 when the files cannot be compared.
func runCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: bench compare A.json B.json")
		return 2
	}
	bj, err := readBenchmarkJSON()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	a, err := readResults(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	b, err := readResults(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	rows, bad, err := compareFiles(bj, a, b)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	for _, row := range rows {
		fmt.Fprintln(stdout, row)
	}
	if bad {
		return 1
	}
	return 0
}

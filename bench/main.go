// Command bench is the repository benchmark. It drives the simulator's
// public packages through four workloads, checks that their outputs are
// correct, and prints every metric by name with its unit. README.md
// describes the workloads and the metrics.
//
// bench/run.sh builds it from source into .bench_build/ and runs it from
// the repository root. One run of one workload:
//
//	bash bench/run.sh --workload cross4-dense --seed 1 --seconds 20 --trace 0
//
// prints "name value unit" lines and, last, one JSON result line. With
// --trace 1 the run reports the per-layer metrics instead of the
// end-to-end ones and writes its spans as JSONL into .bench_build/.
//
// Every workload, -runs untraced runs plus one traced run each, saved to
// a results file:
//
//	bash bench/run.sh [-runs 3] [-out .bench_build/results.json]
//
// Two results files, judged by the bounds in BENCHMARK.json:
//
//	bash bench/run.sh compare A.json B.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// buildDir is where runs keep scratch files, spans and results; it is
// relative to the working directory and ignored by git.
const buildDir = ".bench_build"

// defaultSeconds is how long one run measures (BENCHMARK.json's
// run_seconds).
const defaultSeconds = 20

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", fmt.Sprintf("run one workload, one of %v (empty: every workload)", workloadNames))
	seed := fs.Int64("seed", defaultSeed, "input seed: the same seed gives the same inputs")
	secs := fs.Float64("seconds", defaultSeconds, "how long one run measures")
	trace := fs.Int("trace", 0, "1: a traced run, reporting per-layer metrics")
	quick := fs.Bool("quick", false, "tiny sizes, for smoke tests")
	runs := fs.Int("runs", 3, "untraced runs per workload when running every workload")
	out := fs.String("out", filepath.Join(buildDir, "results.json"), "results file when running every workload")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *secs <= 0 || *runs < 1 {
		fmt.Fprintln(stderr, "usage: bench [--workload W --seed N --seconds S --trace 0|1] [-quick] [-runs N -out FILE] | bench compare A.json B.json")
		return 2
	}
	o := runOpts{
		seed:    *seed,
		seconds: time.Duration(*secs * float64(time.Second)),
		traced:  *trace == 1,
		quick:   *quick,
		dir:     buildDir,
	}
	if *workload == "" {
		return runAll(o, *runs, *out, stdout, stderr)
	}
	res, err := runWorkload(*workload, o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if err := writeResult(stdout, res); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// runOpts are the inputs of one run.
type runOpts struct {
	seed    int64
	seconds time.Duration
	traced  bool
	quick   bool
	// dir receives the run's scratch directory (removed afterwards) and,
	// for a traced run, its spans.
	dir string
}

// runWorkload performs one run of one workload. An error means the run
// could not start (an unknown workload); failures after that are counted
// in the result.
func runWorkload(name string, o runOpts, log io.Writer) (result, error) {
	known := false
	for _, w := range workloadNames {
		known = known || w == name
	}
	if !known {
		return result{}, fmt.Errorf("bench: unknown workload %q (want one of %v)", name, workloadNames)
	}
	sz := fullSizes
	if o.quick {
		sz = quickSizes
	}
	r := &runCtx{
		name: name, seed: o.seed, seconds: o.seconds, sz: sz, quick: o.quick,
		dir: filepath.Join(o.dir, fmt.Sprintf("run-%d-%s", os.Getpid(), name)),
		log: log, raw: map[string]float64{},
	}
	if o.traced {
		r.spans = newSpanLog(name)
	}
	err := os.MkdirAll(r.dir, 0o755)
	if err == nil {
		err = runBench(r, o.traced)
		if rmErr := os.RemoveAll(r.dir); rmErr != nil && err == nil {
			err = rmErr
		}
	}
	if err != nil {
		r.attempted++
		r.failed++
		fmt.Fprintf(log, "bench: %s: %v\n", name, err)
	}
	defs := endToEnd
	if o.traced {
		defs = perLayer
		path := filepath.Join(o.dir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, o.seed))
		if err := r.spans.write(path); err != nil {
			r.attempted++
			r.failed++
			fmt.Fprintln(log, err)
		} else {
			fmt.Fprintf(log, "bench: %s: %d spans in %s\n", name, len(r.spans.spans), path)
		}
	}
	return fill(r.raw, defs, r.attempted, r.failed, !o.traced, log), nil
}

func runBench(r *runCtx, traced bool) error {
	end := r.spans.begin("setup")
	b, err := newBench(r)
	end()
	if err != nil {
		return err
	}
	if traced {
		return runTraced(r, b)
	}
	return runUntraced(r, b)
}

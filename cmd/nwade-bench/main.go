// Command nwade-bench regenerates the NWADE paper's tables and figures
// (Table II, Fig. 4 through Fig. 8, the Eq. 2/Eq. 3 analytic curves, and
// this repo's extension experiments) from the simulator, printing each as
// a text table. Experiments come from the eval registry: -list shows
// them, -exp selects one by name, by group, or "all".
//
// Examples:
//
//	nwade-bench -list
//	nwade-bench -exp all -rounds 10            # full evaluation (slow)
//	nwade-bench -exp fig4 -rounds 5 -workers 8
//	nwade-bench -exp table2 -rounds 3 -duration 50s
//	nwade-bench -exp fig4 -faults burst15 -retrans
//	nwade-bench -exp fig4 -quick -obs          # aggregate protocol counters
//	nwade-bench -exp fig4 -quick -pprof cpu.pb # CPU profile of the sweep
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"nwade/internal/eval"
	"nwade/internal/obs"
	"nwade/internal/vnet"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "nwade-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("nwade-bench", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		exp       = fs.String("exp", "all", "experiment name, group, or \"all\" (see -list)")
		rounds    = fs.Int("rounds", 10, "rounds per attack setting (paper: 10)")
		duration  = fs.Duration("duration", 60*time.Second, "simulated span of each round")
		density   = fs.Float64("density", 80, "default vehicle density (veh/min)")
		seed      = fs.Int64("seed", 1, "base random seed")
		quick     = fs.Bool("quick", false, "reduced sweeps for a fast smoke run")
		workers   = fs.Int("workers", 0, "concurrent simulation rounds (0 = GOMAXPROCS, 1 = sequential; results are identical)")
		faults    = fs.String("faults", "", "network fault profile injected into every round ("+strings.Join(vnet.FaultProfileNames(), ", ")+")")
		retrans   = fs.Bool("retrans", false, "enable the protocol retransmission layer (pair with -faults)")
		list      = fs.Bool("list", false, "list registered experiments and exit")
		traceOut  = fs.String("trace", "", "write a JSONL protocol-event trace to this file (forces -workers 1)")
		obsRep    = fs.Bool("obs", false, "print aggregated observability counters after the run")
		pprofOut  = fs.String("pprof", "", "write a CPU profile to this file")
		resumeDir = fs.String("resume-dir", "", "persist finished simulation rounds to this directory and resume interrupted sweeps per cell")
		drain     = fs.Bool("drain", false, "cooperative drain: share -resume-dir with other concurrent workers, each cell runs exactly once across the fleet")
		workerID  = fs.String("worker-id", "", "worker identity recorded in -drain lease files (default w<pid>)")
		leaseTTL  = fs.Duration("lease-ttl", 10*time.Minute, "after this long without completing, a -drain worker's cell is presumed abandoned and reclaimed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		listExperiments(out)
		return nil
	}

	fc, err := vnet.ParseFaultProfile(*faults)
	if err != nil {
		return err
	}
	if *traceOut != "" && *workers != 1 {
		// Concurrent rounds would interleave their trace records; the
		// counters are synchronized but the JSONL stream is per-run.
		fmt.Fprintln(out, "note: -trace forces -workers 1")
		*workers = 1
	}
	var sink *obs.Sink
	var traceFile *os.File
	if *traceOut != "" || *obsRep || *pprofOut != "" {
		o := obs.Options{Profile: *pprofOut != ""}
		if *traceOut != "" {
			traceFile, err = os.Create(*traceOut)
			if err != nil {
				return err
			}
			defer traceFile.Close()
			o.Trace = traceFile
		}
		sink = obs.New(o)
		sink.WriteMeta(obs.Meta{Tool: "nwade-bench", Experiment: *exp, Seed: *seed})
	}
	if *pprofOut != "" {
		pf, err := os.Create(*pprofOut)
		if err != nil {
			return err
		}
		defer pf.Close()
		if err := pprof.StartCPUProfile(pf); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	cfg := eval.Config{
		Rounds:     *rounds,
		Density:    *density,
		Duration:   *duration,
		BaseSeed:   *seed,
		Workers:    *workers,
		Faults:     fc,
		Resilience: *retrans,
		Obs:        sink,
	}
	if *drain && *resumeDir == "" {
		return fmt.Errorf("-drain needs -resume-dir (the shared sweep directory)")
	}
	var queue *eval.DirQueue
	if *resumeDir != "" {
		// Single-worker resume and multi-worker drain are the same store;
		// -drain only adds an identity and a lease TTL worth naming.
		queue, err = eval.NewDirQueue(*resumeDir, eval.QueueOptions{
			Owner:    *workerID,
			LeaseTTL: *leaseTTL,
		})
		if err != nil {
			return err
		}
		cfg.Store = queue
	}
	if *quick {
		cfg.Rounds = 2
		cfg.Densities = []float64{40, 80}
		cfg.Settings = []string{"V1", "V5", "IM", "IM_V5"}
	}

	selected, err := selectExperiments(*exp)
	if err != nil {
		return err
	}

	for _, g := range selected {
		start := time.Now()
		res, err := g.Run(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, res)
		fmt.Fprintf(out, "[%s: %.0f ms wall]\n\n", g.Name, float64(time.Since(start).Microseconds())/1000)
	}

	if *drain {
		// Bracket-prefixed like the wall-time lines, so output
		// comparisons across worker fleets can filter both the same way.
		st := queue.Stats()
		fmt.Fprintf(out, "[drain %s: executed %d, loaded %d, reclaimed %d, conflicts %d, quarantined %d]\n",
			queue.Owner(), st.Executed, st.Loaded, st.Reclaimed, st.Conflicts, st.Quarantined)
	}

	if sink != nil {
		if err := sink.Close(); err != nil {
			return err
		}
		if *obsRep {
			sink.WriteReport(out)
		}
	}
	return nil
}

// selectExperiments resolves -exp against the registry: everything, one
// group, or one experiment.
func selectExperiments(exp string) ([]eval.Generator, error) {
	if exp == "all" {
		return eval.All(), nil
	}
	var group []eval.Generator
	for _, g := range eval.All() {
		if g.Meta.Group == exp {
			group = append(group, g)
		}
	}
	if len(group) > 0 {
		return group, nil
	}
	if g, ok := eval.Lookup(exp); ok {
		return []eval.Generator{g}, nil
	}
	return nil, fmt.Errorf("unknown experiment %q (see -list)", exp)
}

// listExperiments prints the registry in run order.
func listExperiments(out io.Writer) {
	fmt.Fprintln(out, "registered experiments (run order):")
	for _, g := range eval.All() {
		group := ""
		if g.Meta.Group != "" {
			group = " [" + g.Meta.Group + "]"
		}
		fmt.Fprintf(out, "  %-22s %s%s\n", g.Name, g.Meta.Desc, group)
	}
	if groups := eval.Groups(); len(groups) > 0 {
		fmt.Fprintf(out, "groups: %s\n", strings.Join(groups, ", "))
	}
}

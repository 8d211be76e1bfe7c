// Command nwade-sim runs one NWADE simulation round from the command
// line and reports what happened: traffic counts, protocol events, and
// network load.
//
// Examples:
//
//	nwade-sim -intersection cross4 -density 80 -duration 60s -scenario V3
//	nwade-sim -intersection roundabout3 -scenario IM -events
//	nwade-sim -scenario benign -nwade=false   # plain AIM baseline
//	nwade-sim -scenario V5 -rounds 8 -workers 4   # multi-seed replicas
//	nwade-sim -scenario IM -faults partition -retrans   # degraded network
//	nwade-sim -scenario V1 -trace run.jsonl   # protocol-event trace
//	nwade-sim -scenario V1 -obs -pprof cpu.pb # counters + CPU profile
//	nwade-sim -network grid:3x3 -scenario V3 -attack-region 4   # city grid
//	nwade-sim -network corridor:4 -intersection mix -tick-workers 4
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"time"

	"nwade/internal/cliconf"
	"nwade/internal/eval"
	"nwade/internal/metrics"
	"nwade/internal/nwade"
	"nwade/internal/obs"
	"nwade/internal/roadnet"
	"nwade/internal/sim"
	"nwade/internal/snap"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "nwade-sim:", err)
		var ue usageError
		if errors.As(err, &ue) {
			os.Exit(exitUsage)
		}
		os.Exit(1)
	}
}

// exitUsage is the exit status of a command line refused before
// anything runs (the flag package's convention); other failures exit 1.
const exitUsage = 2

// usageError marks a command line refused before anything runs.
type usageError struct{ error }

func (e usageError) Unwrap() error { return e.error }

// checkDir refuses a -checkpoint-dir that is not an existing directory,
// before a run spends a checkpoint interval reaching its first write.
func checkDir(dir string) error {
	fi, err := os.Stat(dir)
	switch {
	case errors.Is(err, os.ErrNotExist):
		return usageError{fmt.Errorf("-checkpoint-dir %s: no such directory", dir)}
	case err != nil:
		return usageError{fmt.Errorf("-checkpoint-dir: %w", err)}
	case !fi.IsDir():
		return usageError{fmt.Errorf("-checkpoint-dir %s: not a directory", dir)}
	}
	return nil
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("nwade-sim", flag.ContinueOnError)
	fs.SetOutput(out)
	cf := cliconf.Register(fs)
	var (
		events    = fs.Bool("events", false, "print the protocol event log")
		rounds    = fs.Int("rounds", 1, "replicas with consecutive seeds (seed, seed+1, ...)")
		workers   = fs.Int("workers", 0, "concurrent replicas when rounds > 1 (0 = GOMAXPROCS)")
		traceOut  = fs.String("trace", "", "write a JSONL protocol-event trace to this file (inspect with nwade-inspect trace)")
		obsRep    = fs.Bool("obs", false, "print the observability report (counters, histograms, spans) after the run")
		pprofOut  = fs.String("pprof", "", "write a CPU profile to this file (enables wall-clock span timing)")
		ckptEvery = fs.Duration("checkpoint-every", 0, "write a checkpoint every interval of simulated time (single run only; resume with -resume or nwade-replay)")
		ckptDir   = fs.String("checkpoint-dir", ".", "directory for -checkpoint-every files (ckpt-<time>.snap)")
		resume    = fs.String("resume", "", "resume from a checkpoint file; the checkpoint's spec replaces the configuration flags")
	)
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	if (*ckptEvery > 0 || *resume != "") && *rounds > 1 {
		return usageError{fmt.Errorf("-checkpoint-every/-resume apply to single runs, not -rounds %d", *rounds)}
	}
	if *ckptEvery > 0 {
		if err := checkDir(*ckptDir); err != nil {
			return err
		}
	}
	cfg, err := cf.Build()
	if err != nil {
		return usageError{err}
	}
	var ckpt *cliconf.Checkpoint
	if *resume != "" {
		// The checkpoint's spec replaces the configuration flags.
		if ckpt, err = cliconf.Load(*resume); err != nil {
			return err
		}
		cfg = ckpt.Cfg
	}
	if cfg.IsNetwork() {
		if *rounds > 1 {
			return usageError{fmt.Errorf("-rounds applies to single-intersection runs, not -network %s", cfg.Network)}
		}
		if *traceOut != "" || *obsRep || *pprofOut != "" {
			return usageError{fmt.Errorf("-trace/-obs/-pprof are not supported with -network yet")}
		}
	}
	if *rounds > 1 {
		return runRounds(out, cfg, cf, *rounds, *workers, *traceOut, *obsRep)
	}
	return runOne(out, cfg, ckpt, runOpts{
		Events: *events, TraceOut: *traceOut, ObsRep: *obsRep, PprofOut: *pprofOut,
		CkptEvery: *ckptEvery, CkptDir: *ckptDir, ResumePath: *resume,
	})
}

// runOpts bundles the tool-specific knobs of one run; the scenario
// itself comes from cliconf (or a checkpoint spec).
type runOpts struct {
	Events     bool
	TraceOut   string
	ObsRep     bool
	PprofOut   string
	CkptEvery  time.Duration
	CkptDir    string
	ResumePath string
}

// newSink builds the observability sink when any of -trace/-obs/-pprof
// asks for one (nil otherwise, so the default run pays only nil checks).
func newSink(cfg sim.Scenario, sr runOpts) (*obs.Sink, func(), error) {
	if sr.TraceOut == "" && !sr.ObsRep && sr.PprofOut == "" {
		return nil, func() {}, nil
	}
	o := obs.Options{Profile: sr.PprofOut != ""}
	closers := []func(){}
	if sr.TraceOut != "" {
		tf, err := os.Create(sr.TraceOut)
		if err != nil {
			return nil, nil, err
		}
		closers = append(closers, func() { tf.Close() })
		o.Trace = tf
	}
	sink := obs.New(o)
	sink.WriteMeta(obs.Meta{
		Tool:         "nwade-sim",
		Scenario:     cfg.Attack.Name,
		Seed:         cfg.Seed,
		Intersection: cfg.Intersection,
		DurationNS:   int64(cfg.Duration),
	})
	cleanup := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	return sink, cleanup, nil
}

// runOne executes one run — a lone intersection or a road network,
// fresh or resumed — and prints its report.
func runOne(out io.Writer, cfg sim.Scenario, ckpt *cliconf.Checkpoint, sr runOpts) error {
	cfg = cfg.Normalize()
	sink, cleanup, err := newSink(cfg, sr)
	if err != nil {
		return err
	}
	defer cleanup()
	if sr.PprofOut != "" {
		pf, err := os.Create(sr.PprofOut)
		if err != nil {
			return err
		}
		defer pf.Close()
		if err := pprof.StartCPUProfile(pf); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	var r cliconf.Run
	if ckpt != nil {
		if r, err = ckpt.State.Resume(cfg, sink); err != nil {
			return err
		}
		fmt.Fprintf(out, "resumed      : %s at %v\n", sr.ResumePath, ckpt.State.Now())
	} else if r, err = cliconf.New(cfg, nil, sink); err != nil {
		return err
	}
	if sr.CkptEvery > 0 {
		if err := writeCheckpoints(out, r, cfg, sr.CkptEvery, sr.CkptDir); err != nil {
			return err
		}
	}
	cliconf.StepTo(r, cfg.Duration)
	if n, ok := r.(*roadnet.Network); ok {
		printNetwork(out, cfg, n, sr.Events)
	} else {
		printSingle(out, cfg, r.(*sim.Engine), sr.Events)
	}
	return finishObs(out, sink, sr.ObsRep, sr.TraceOut)
}

// printSingle reports a single-intersection run.
func printSingle(out io.Writer, cfg sim.Scenario, e *sim.Engine, events bool) {
	res := e.Result()
	fmt.Fprintf(out, "intersection : %s\n", cfg.Intersection)
	fmt.Fprintf(out, "scenario     : %s (attack at %v)\n", cfg.Attack.Name, cfg.Attack.AttackAt)
	fmt.Fprintf(out, "density      : %g veh/min for %v (seed %d, NWADE %v)\n", cfg.RatePerMin, cfg.Duration, cfg.Seed, cfg.NWADE)
	if cfg.Net.Faults.Enabled() || cfg.Resilience {
		fmt.Fprintf(out, "faults       : enabled=%v (retrans %v): dropped %d, duplicated %d, retransmits %d\n",
			cfg.Net.Faults.Enabled(), cfg.Resilience, res.Net.FaultDropped, res.Net.Duplicated, res.Retransmits)
	}
	fmt.Fprintf(out, "spawned      : %d\n", res.Spawned)
	fmt.Fprintf(out, "exited       : %d (%.1f veh/min)\n", res.Exited, res.Throughput())
	fmt.Fprintf(out, "collisions   : %d\n", res.Collisions)
	if roles := e.Roles(); len(roles.All) > 0 {
		fmt.Fprintf(out, "coalition    : violator=%v falseReporters=%v\n", roles.Violator, roles.FalseReporters)
	}
	printPackets(out, res.Net.Packets, res.Net.Bytes, res.Net.TotalPackets())
	if events {
		fmt.Fprintln(out, "\nprotocol events:")
		printEvents(out, "  ", res.Collector.Events())
	}
}

// printNetwork reports a road-network run: per-region traffic plus the
// cross-region exchange.
func printNetwork(out io.Writer, cfg sim.Scenario, n *roadnet.Network, events bool) {
	results := n.Results()
	topo := n.Topology()
	fmt.Fprintf(out, "network      : %s (%dx%d, %d regions, layout %s)\n",
		cfg.Network, topo.Rows, topo.Cols, len(topo.Regions), cfg.Intersection)
	fmt.Fprintf(out, "scenario     : %s (attack at %v in region %d)\n", cfg.Attack.Name, cfg.Attack.AttackAt, cfg.AttackRegion)
	fmt.Fprintf(out, "density      : %g veh/min for %v (seed %d, NWADE %v, workers %d)\n",
		cfg.RatePerMin, cfg.Duration, cfg.Seed, cfg.NWADE, cfg.Workers)
	fmt.Fprintf(out, "\n  %-7s %-12s %8s %8s %11s\n", "region", "layout", "spawned", "exited", "collisions")
	var spawned, exited, collisions int
	for i, res := range results {
		fmt.Fprintf(out, "  %-7d %-12s %8d %8d %11d\n",
			i, topo.Regions[i].Inter.Name, res.Spawned, res.Exited, res.Collisions)
		spawned += res.Spawned
		exited += res.Exited
		collisions += res.Collisions
	}
	fmt.Fprintf(out, "  %-7s %-12s %8d %8d %11d\n", "TOTAL", "", spawned, exited, collisions)
	st := n.Stats()
	fmt.Fprintf(out, "\nhandoffs     : %d (boundary exits %d)\n", st.Handoffs, st.BoundaryExits)
	fmt.Fprintf(out, "watch        : %d reports, %d relays, %d advisories\n", st.Reports, st.ReportRelays, st.Advisories)
	fmt.Fprintf(out, "head exchange: %d beacons, %d mismatches\n", st.HeadBeacons, st.HeadMismatches)
	bb := n.BackboneStats()
	printPackets(out, bb.Packets, bb.Bytes, bb.TotalPackets())
	fmt.Fprintf(out, "digest       : %s\n", n.Digest())
	if events {
		for i, res := range results {
			evs := res.Collector.Events()
			if len(evs) == 0 {
				continue
			}
			fmt.Fprintf(out, "\nregion %d protocol events:\n", i)
			printEvents(out, "  ", evs)
		}
	}
}

// writeCheckpoints drives the run up to (but not through) its duration,
// writing a checkpoint (ckpt-<time>.snap) at every multiple of the
// interval; the caller finishes the remainder. Checkpointing observes
// state at tick boundaries without perturbing it.
func writeCheckpoints(out io.Writer, r cliconf.Run, cfg sim.Scenario, every time.Duration, dir string) error {
	spec, err := snap.SpecFromScenario(cfg)
	if err != nil {
		return err
	}
	for next := r.Now() + every; next < cfg.Duration; next += every {
		cliconf.StepTo(r, next)
		path := filepath.Join(dir, fmt.Sprintf("ckpt-%s.snap", r.Now()))
		if err := cliconf.WriteCheckpoint(path, spec, r); err != nil {
			return err
		}
		fmt.Fprintf(out, "checkpoint   : %s\n", path)
	}
	return nil
}

// printPackets renders a packets-by-kind table.
func printPackets(out io.Writer, packets map[string]int, bytes map[string]int, total int) {
	fmt.Fprintln(out, "\nnetwork packets by kind:")
	kinds := make([]string, 0, len(packets))
	for k := range packets {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(out, "  %-12s %6d (%d bytes)\n", k, packets[k], bytes[k])
	}
	fmt.Fprintf(out, "  %-12s %6d\n", "TOTAL", total)
}

// printEvents renders a protocol event log.
func printEvents(out io.Writer, indent string, evs []nwade.Event) {
	for _, e := range evs {
		actor := "IM"
		if e.Actor != 0 {
			actor = e.Actor.String()
		}
		fmt.Fprintf(out, "%s%-10v %-22v %-5s", indent, e.At.Round(time.Millisecond), e.Type, actor)
		if e.Subject != 0 {
			fmt.Fprintf(out, " subject=%v", e.Subject)
		}
		if e.Info != "" {
			fmt.Fprintf(out, "  %s", e.Info)
		}
		fmt.Fprintln(out)
	}
}

// finishObs seals the sink (writing the trace's sum record) and prints
// the report when -obs asked for it. Safe on a nil sink.
func finishObs(out io.Writer, sink *obs.Sink, report bool, tracePath string) error {
	if sink == nil {
		return nil
	}
	if err := sink.Close(); err != nil {
		return err
	}
	if report {
		fmt.Fprintln(out)
		sink.WriteReport(out)
	}
	if tracePath != "" {
		fmt.Fprintf(out, "wrote trace %s\n", tracePath)
	}
	return nil
}

// runRounds executes a multi-seed replica sweep across the eval worker
// pool and prints per-round and aggregate traffic summaries.
func runRounds(out io.Writer, cfg sim.Scenario, cf *cliconf.Flags, rounds, workers int, traceOut string, obsRep bool) error {
	var sink *obs.Sink
	if traceOut != "" || obsRep {
		if traceOut != "" && workers != 1 {
			// Concurrent replicas would interleave their trace records.
			fmt.Fprintln(out, "note: -trace forces -workers 1")
			workers = 1
		}
		sr := runOpts{TraceOut: traceOut, ObsRep: obsRep}
		var cleanup func()
		var err error
		sink, cleanup, err = newSink(cfg, sr)
		if err != nil {
			return err
		}
		defer cleanup()
	}
	seeds := make([]int64, rounds)
	for i := range seeds {
		seeds[i] = cfg.Seed + int64(i)
	}
	start := time.Now()
	results, err := eval.RunCells(workers, seeds, func(seed int64) (metrics.RunResult, error) {
		rc := cfg.Normalize()
		rc.Seed = seed
		r, err := cliconf.New(rc, nil, sink)
		if err != nil {
			return metrics.RunResult{}, fmt.Errorf("seed %d: %w", seed, err)
		}
		cliconf.StepTo(r, rc.Duration)
		return r.Results()[0], nil
	})
	if err != nil {
		return err
	}
	wall := time.Since(start)

	fmt.Fprintf(out, "intersection : %s\n", cfg.Intersection)
	fmt.Fprintf(out, "scenario     : %s\n", cfg.Attack.Name)
	fmt.Fprintf(out, "density      : %g veh/min for %v (NWADE %v)\n", cfg.RatePerMin, cfg.Duration, cfg.NWADE)
	if cf.Faults != "" || cfg.Resilience {
		faults := cf.Faults
		if faults == "" {
			faults = "none"
		}
		fmt.Fprintf(out, "faults       : %s (retrans %v)\n", faults, cfg.Resilience)
	}
	fmt.Fprintf(out, "replicas     : %d (seeds %d..%d, workers=%d, %v wall)\n\n",
		rounds, cfg.Seed, seeds[rounds-1], workers, wall.Round(time.Millisecond))
	fmt.Fprintf(out, "  %-6s %8s %8s %12s %11s\n", "seed", "spawned", "exited", "veh/min", "collisions")
	var spawned, exited, collisions int
	var dropped, duplicated, retransmits int
	var thr float64
	for i, res := range results {
		fmt.Fprintf(out, "  %-6d %8d %8d %12.1f %11d\n", seeds[i], res.Spawned, res.Exited, res.Throughput(), res.Collisions)
		spawned += res.Spawned
		exited += res.Exited
		collisions += res.Collisions
		thr += res.Throughput()
		dropped += res.Net.FaultDropped
		duplicated += res.Net.Duplicated
		retransmits += res.Retransmits
	}
	n := float64(rounds)
	fmt.Fprintf(out, "  %-6s %8.1f %8.1f %12.1f %11.1f\n", "mean",
		float64(spawned)/n, float64(exited)/n, thr/n, float64(collisions)/n)
	if cf.Faults != "" || cfg.Resilience {
		fmt.Fprintf(out, "\n  fault-dropped %d, duplicated %d, retransmits %d (totals)\n",
			dropped, duplicated, retransmits)
	}
	return finishObs(out, sink, obsRep, traceOut)
}

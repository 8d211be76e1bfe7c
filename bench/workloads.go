package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sync"
	"time"

	"nwade/internal/attack"
	"nwade/internal/chain"
	"nwade/internal/eval"
	"nwade/internal/intersection"
	"nwade/internal/obs"
	"nwade/internal/ordered"
	"nwade/internal/roadnet"
	"nwade/internal/sim"
)

// defaultSeed is the seed the digests in digests.go are pinned at.
const defaultSeed = 1

// minUnits is the fewest units a timed section runs, however long they
// take, so that every median has at least three samples.
const minUnits = 3

// workloadNames lists the workloads in the order the all-workloads mode
// runs them. BENCHMARK.json records why each was chosen.
var workloadNames = []string{"cross4-dense", "sweep-fig4", "grid3x3-attack", "serve-ckpt"}

// sizes are the knobs that set how much work a run does.
type sizes struct {
	// layout is the intersection of cross4-dense and the serve jobs;
	// gridLayout the grid's. The quick sizes swap in the layout that
	// builds fastest.
	layout, gridLayout string

	denseDur     time.Duration
	denseKeyBits int
	// denseSeeds and gridSeeds are how many inputs one cycle of the
	// workload runs, each with its own seed drawn from the run's seed.
	// At the same host speed one input's cost varies from seed to seed
	// by 9-12% (cross4) and 14% (grid), one standard deviation, so a run
	// that timed a single input would mostly measure which input its
	// seed drew.
	denseSeeds, gridSeeds int

	gridNet      string
	gridRegion   int
	gridDur      time.Duration
	gridAttackAt time.Duration

	// sweepPasses is how many sweep passes, each with its own base
	// seed, one cycle runs; sweepRounds the rounds of each of its cells.
	sweepPasses    int
	sweepRounds    int
	sweepDur       time.Duration
	sweepAttackAt  time.Duration
	sweepSettings  []string
	sweepDensities []float64

	jobDur      time.Duration
	jobInterval time.Duration

	// setupReps is how many constructions the sweep and serve workloads
	// time before and again after their timed section (the others time
	// the construction of every unit they run); buildReps the same for
	// each intersection layout build of a traced run.
	setupReps, buildReps int
	// buildCfg is the geometry the traced run builds every layout with.
	buildCfg intersection.Config
	// checkDur is the length of the scheduler-wrapper identity check.
	checkDur time.Duration
	// snapUntil/snapEvery bound the traced checkpoint pass.
	snapUntil, snapEvery time.Duration
}

// fullSizes are the calibrated sizes (README.md has the calibration).
var fullSizes = sizes{
	layout:     "cross4",
	gridLayout: "mix",

	denseDur:     90 * time.Second,
	denseKeyBits: 2048,
	denseSeeds:   10,
	gridSeeds:    5,

	gridNet:      "grid:3x3",
	gridRegion:   4,
	gridDur:      90 * time.Second,
	gridAttackAt: 20 * time.Second,

	sweepPasses:    4,
	sweepRounds:    6,
	sweepDur:       30 * time.Second,
	sweepAttackAt:  10 * time.Second,
	sweepSettings:  []string{"V1", "V5", "IM", "IM_V5"},
	sweepDensities: []float64{40, 80, 120},

	jobDur:      15 * time.Second,
	jobInterval: 1500 * time.Millisecond,

	setupReps: 3,
	buildReps: 3,
	checkDur:  20 * time.Second,
	snapUntil: 40 * time.Second,
	snapEvery: 5 * time.Second,
}

// quickSizes shrink every workload to about a second, for the smoke test.
var quickSizes = sizes{
	layout:     "roundabout3",
	gridLayout: "roundabout3",

	denseDur:     10 * time.Second,
	denseKeyBits: 1024,
	denseSeeds:   2,
	gridSeeds:    2,

	gridNet:      "grid:2x2",
	gridRegion:   3,
	gridDur:      10 * time.Second,
	gridAttackAt: 5 * time.Second,

	sweepPasses:    1,
	sweepRounds:    1,
	sweepDur:       10 * time.Second,
	sweepAttackAt:  5 * time.Second,
	sweepSettings:  []string{"V1"},
	sweepDensities: []float64{40},

	jobDur:      5 * time.Second,
	jobInterval: 100 * time.Millisecond,

	setupReps: 1,
	buildReps: 1,
	buildCfg:  intersection.Config{ApproachLen: 100, SampleDS: 8},
	checkDur:  5 * time.Second,
	snapUntil: 10 * time.Second,
	snapEvery: 5 * time.Second,
}

// runCtx is one run's state: its inputs, the checks it made, and the
// metric values it measured.
type runCtx struct {
	name    string
	seed    int64
	seconds time.Duration
	sz      sizes
	quick   bool
	dir     string // scratch directory inside the checkout
	log     io.Writer
	spans   *spanLog

	raw               map[string]float64
	attempted, failed int
}

// check counts one correctness check and reports a failure.
func (r *runCtx) check(ok bool, format string, args ...any) bool {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(r.log, "bench: %s: check failed: %s\n", r.name, fmt.Sprintf(format, args...))
	}
	return ok
}

// set records one metric value.
func (r *runCtx) set(name string, v float64) { r.raw[name] = v }

// subSeeds are the seeds of a cycle's n inputs. Runs with different
// seeds draw disjoint sets.
func (r *runCtx) subSeeds(n int) []int64 {
	out := make([]int64, n)
	for k := range out {
		out[k] = r.seed*int64(n) + int64(k)
	}
	return out
}

// checkCycles checks that every cycle reproduced the first cycle's
// digests, input by input, and, at the default seed and full size, that
// the first cycle's combined digest is the pinned one.
func (r *runCtx) checkCycles(cycles [][]unit) {
	if len(cycles) == 0 {
		return
	}
	h := sha256.New()
	for _, u := range cycles[0] {
		fmt.Fprintln(h, u.digest)
	}
	d := hex.EncodeToString(h.Sum(nil))
	for i, c := range cycles[1:] {
		for k, u := range c {
			r.check(u.digest == cycles[0][k].digest, "cycle %d input %d digest %s differs from cycle 1's %s",
				i+2, k+1, short(u.digest), short(cycles[0][k].digest))
		}
	}
	r.checkPinned(d)
	fmt.Fprintf(r.log, "bench: %s: digest %s over %d cycles of %d inputs\n", r.name, d, len(cycles), len(cycles[0]))
}

// checkPinned compares a workload digest with the pinned one at the
// default seed and full size.
func (r *runCtx) checkPinned(d string) {
	if r.seed == defaultSeed && !r.quick {
		want := pinned[r.name]
		r.check(d == want, "digest %s at the default seed, pinned %s", short(d), short(want))
	}
}

func short(d string) string {
	if len(d) > 16 {
		return d[:16]
	}
	return d
}

// spec is a runnable scenario with its signing keys supplied: one key
// for a single intersection, one per region for a road network.
type spec struct {
	scen    sim.Scenario
	signers []*chain.Signer
}

func (sp spec) isNetwork() bool { return sp.scen.IsNetwork() }

func (sp spec) duration() time.Duration { return sp.scen.Normalize().Duration }

// withSeed is sp with another input seed.
func (sp spec) withSeed(seed int64) spec {
	sp.scen.Seed = seed
	return sp
}

// build constructs the scenario at a worker count, with an optional obs
// sink and (single intersection only) a timing scheduler wrapper.
func (sp spec) build(workers int, sink *obs.Sink, wrap *timedSched) (subject, error) {
	cfg := sp.scen
	cfg.Workers = workers
	if cfg.IsNetwork() {
		opts := []roadnet.Option{roadnet.WithSigners(sp.signers)}
		if sink != nil {
			opts = append(opts, roadnet.WithObs(sink))
		}
		n, err := roadnet.New(cfg, opts...)
		if err != nil {
			return nil, err
		}
		return network{n}, nil
	}
	if wrap != nil {
		cfg.Scheduler = wrap
	}
	opts := []sim.Option{sim.WithSigner(sp.signers[0])}
	if sink != nil {
		opts = append(opts, sim.WithObs(sink))
	}
	e, err := sim.New(cfg, opts...)
	if err != nil {
		return nil, err
	}
	return single{e}, nil
}

// newTimedSched wraps the scheduler the spec would build.
func (sp spec) newTimedSched() (*timedSched, error) {
	inner, err := sp.scen.BuildScheduler(nil)
	if err != nil {
		return nil, err
	}
	return &timedSched{inner: inner}, nil
}

// passResult is one complete run of a spec or of the sweep.
type passResult struct {
	subject subject // nil for the sweep, whose engines eval owns
	// setup is the construction time; wall the time driving the run,
	// from start to end.
	setup      time.Duration
	wall       time.Duration
	start, end time.Time
	steps      []time.Duration
	ticks      int
	// simSeconds is simulated time covered (summed over sweep rounds);
	// engineSeconds additionally sums over a network's intersections.
	simSeconds, engineSeconds float64
	digest                    string
	regionWall                []time.Duration
	// roundWalls times each sweep round.
	roundWalls []time.Duration
}

func (pr passResult) unit() unit {
	return unit{setup: pr.setup, latency: pr.wall, busy: pr.wall, simSeconds: pr.simSeconds, digest: pr.digest, from: pr.start, to: pr.end}
}

// unit is one timed piece of work of an untraced run: one simulation
// run (cross4-dense, grid3x3-attack), one sweep pass (sweep-fig4) or
// one daemon job (serve-ckpt).
type unit struct {
	// setup is the construction the unit began with; zero when the
	// benchmark did not construct it (sweep passes, daemon jobs).
	setup time.Duration
	// latency is how long the unit took: its wall time, or for a job
	// the time from when it was due until it was seen done.
	latency time.Duration
	// busy is the wall time spent simulating simSeconds.
	busy       time.Duration
	simSeconds float64
	digest     string
	from, to   time.Time
}

// runSpec builds sp and drives it to its duration; construction is
// timed separately from the drive.
func runSpec(sp spec, workers int, sink *obs.Sink, wrap *timedSched) (passResult, error) {
	t := time.Now()
	s, err := sp.build(workers, sink, wrap)
	setup := time.Since(t)
	if err != nil {
		return passResult{}, err
	}
	start := time.Now()
	wall, steps := drive(s, sp.duration())
	pr := passResult{
		subject: s, setup: setup, wall: wall, start: start, end: start.Add(wall),
		steps: steps, ticks: len(steps),
		simSeconds:    sp.duration().Seconds(),
		engineSeconds: sp.duration().Seconds() * float64(len(s.engines())),
		digest:        s.Digest(),
	}
	if n, ok := s.(network); ok {
		pr.regionWall = n.n.RegionWall()
	}
	return pr, nil
}

// bench is one workload's set-up: its keys and specs, and the hooks the
// untraced and traced runs call.
type bench struct {
	// rep is the representative spec: the first input of the workload's
	// cycle, or (sweep) the first pass's densest round. The traced run's
	// step-level metrics and replays use it.
	rep    spec
	keygen []time.Duration
	// workers is the untraced run's worker count.
	workers int
	// construct builds one engine of the workload, for the workloads
	// whose units the benchmark does not construct itself.
	construct func() error
	// warm runs before the timed section: untimed checks and references.
	warm func(r *runCtx) error
	// measure is the timed section.
	measure func(r *runCtx) ([]unit, error)
	// pass runs the workload once for the traced run; nil means the rep
	// run is the workload.
	pass func(r *runCtx, workers int, sink *obs.Sink) (passResult, error)
	// session is the serve workload's open-loop session (nil elsewhere).
	session func(r *runCtx) ([]jobTimes, error)
	// benign is set when every block of the run must pass Algorithm 1.
	benign bool
}

// keys generates n signing keys, timing each.
func keys(n, bits int) ([]*chain.Signer, []time.Duration, error) {
	out := make([]*chain.Signer, n)
	times := make([]time.Duration, n)
	for i := range out {
		t := time.Now()
		s, err := chain.NewSigner(bits)
		if err != nil {
			return nil, nil, err
		}
		times[i] = time.Since(t)
		out[i] = s
	}
	return out, times, nil
}

// newBench sets up a workload from the run's seed.
func newBench(r *runCtx) (*bench, error) {
	switch r.name {
	case "cross4-dense":
		return newDense(r)
	case "sweep-fig4":
		return newSweep(r)
	case "grid3x3-attack":
		return newGrid(r)
	case "serve-ckpt":
		return newServe(r)
	}
	return nil, fmt.Errorf("bench: unknown workload %q (want one of %v)", r.name, workloadNames)
}

// newDense is cross4-dense: one benign cross4 at the paper's densest
// operating point and key size, on the sequential tick path.
func newDense(r *runCtx) (*bench, error) {
	ss, kt, err := keys(1, r.sz.denseKeyBits)
	if err != nil {
		return nil, err
	}
	seeds := r.subSeeds(r.sz.denseSeeds)
	rep := spec{scen: sim.Scenario{
		Intersection: r.sz.layout,
		Duration:     r.sz.denseDur,
		RatePerMin:   120,
		Seed:         seeds[0],
		Attack:       attack.Benign(),
		NWADE:        true,
		KeyBits:      r.sz.denseKeyBits,
	}, signers: ss}
	b := &bench{rep: rep, keygen: kt, workers: 1, benign: true}
	b.warm = func(r *runCtx) error { return wrapperCheck(r, rep) }
	b.measure = func(r *runCtx) ([]unit, error) { return measureSpecs(r, rep, seeds, b.workers) }
	return b, nil
}

// newGrid is grid3x3-attack: a 3x3 grid of mixed layouts under an IM_V5
// attack in the centre region, on the parallel region pool.
func newGrid(r *runCtx) (*bench, error) {
	rows, cols, err := (sim.Scenario{Network: r.sz.gridNet}).NetworkDims()
	if err != nil {
		return nil, err
	}
	ss, kt, err := keys(rows*cols, 1024)
	if err != nil {
		return nil, err
	}
	sc, ok := attack.ByName("IM_V5", r.sz.gridAttackAt)
	if !ok {
		return nil, fmt.Errorf("bench: unknown attack setting IM_V5")
	}
	seeds := r.subSeeds(r.sz.gridSeeds)
	rep := spec{scen: sim.Scenario{
		Network:      r.sz.gridNet,
		Intersection: r.sz.gridLayout,
		Duration:     r.sz.gridDur,
		RatePerMin:   120,
		Seed:         seeds[0],
		Attack:       sc,
		AttackRegion: r.sz.gridRegion,
		NWADE:        true,
		KeyBits:      1024,
	}, signers: ss}
	b := &bench{rep: rep, keygen: kt, workers: 2}
	b.measure = func(r *runCtx) ([]unit, error) { return measureSpecs(r, rep, seeds, b.workers) }
	return b, nil
}

// newSweep is sweep-fig4: reduced Fig. 4 sweeps through eval's round
// pool. A cycle is sweepPasses passes, each with its own base seed: a
// pass's cost rides on its few densest traffic seeds (one per round,
// shared by the four settings), and one pass at one base seed cost up to
// 30% more than at another. The representative spec is the first pass's
// densest IM_V5 round, built exactly as eval builds it. The timed passes
// run at one worker, which spread less from run to run than two on the
// 2-CPU host the benchmark was calibrated on (README.md); the traced run
// measures the pool at two workers.
func newSweep(r *runCtx) (*bench, error) {
	ss, kt, err := keys(1, 1024)
	if err != nil {
		return nil, err
	}
	sc, ok := attack.ByName("IM_V5", r.sz.sweepAttackAt)
	if !ok {
		return nil, fmt.Errorf("bench: unknown attack setting IM_V5")
	}
	seeds := r.subSeeds(r.sz.sweepPasses)
	densest := r.sz.sweepDensities[len(r.sz.sweepDensities)-1]
	paperCross := func() (*intersection.Intersection, error) {
		return intersection.Cross4Lanes(intersection.Config{}, []int{3, 2, 3, 2})
	}
	inter, err := paperCross()
	if err != nil {
		return nil, err
	}
	rep := spec{scen: sim.Scenario{
		Inter:      inter,
		Duration:   r.sz.sweepDur,
		RatePerMin: densest,
		Seed:       eval.Config{BaseSeed: seeds[0]}.Normalize().BaseSeed + int64(densest),
		Attack:     sc,
		NWADE:      true,
		KeyBits:    1024,
	}, signers: ss}
	b := &bench{rep: rep, keygen: kt, workers: 1}
	b.construct = func() error {
		in, err := paperCross()
		if err != nil {
			return err
		}
		sp := rep
		sp.scen.Inter = in
		_, err = sp.build(1, nil, nil)
		return err
	}
	b.warm = func(r *runCtx) error { return wrapperCheck(r, rep) }
	b.pass = func(r *runCtx, workers int, sink *obs.Sink) (passResult, error) {
		return sweepPass(r, seeds[0], workers, sink)
	}
	b.measure = func(r *runCtx) ([]unit, error) {
		return repeatCycles(r, func() ([]unit, error) {
			var c []unit
			for _, seed := range seeds {
				pr, err := sweepPass(r, seed, b.workers, nil)
				if err != nil {
					return c, err
				}
				c = append(c, pr.unit())
			}
			return c, nil
		})
	}
	return b, nil
}

// sweepPass runs the reduced Fig. 4 sweep once from a base seed. Its
// cell store never hits: it only times each round (from the store's Load
// to its Save) and hashes the stored outcomes into the sweep's digest.
func sweepPass(r *runCtx, base int64, workers int, sink *obs.Sink) (passResult, error) {
	st := &cellTimer{started: map[string]time.Time{}, saved: map[string][]byte{}}
	cfg := eval.Config{
		Rounds:   r.sz.sweepRounds,
		Duration: r.sz.sweepDur,
		AttackAt: r.sz.sweepAttackAt,
		BaseSeed: base,
		Workers:  workers,
		KeyBits:  1024,
		Store:    st,
		Obs:      sink,
	}
	start := time.Now()
	res, err := eval.Fig4(cfg, r.sz.sweepSettings, r.sz.sweepDensities)
	wall := time.Since(start)
	if err != nil {
		return passResult{}, err
	}
	h := sha256.New()
	for _, k := range ordered.Keys(st.saved) {
		fmt.Fprintf(h, "%s\n%s\n", k, st.saved[k])
	}
	for _, p := range res.Points {
		fmt.Fprintf(h, "%s %g %d/%d\n", p.Setting, p.Density, p.Detected, p.Rounds)
	}
	rounds := len(st.walls)
	simS := float64(rounds) * r.sz.sweepDur.Seconds()
	return passResult{
		wall:          wall,
		start:         start,
		end:           start.Add(wall),
		ticks:         rounds * int(r.sz.sweepDur/(sim.Scenario{}).Normalize().Step),
		simSeconds:    simS,
		engineSeconds: simS,
		digest:        hex.EncodeToString(h.Sum(nil)),
		roundWalls:    st.walls,
	}, nil
}

// cellTimer is an eval.CellStore that stores nothing it will ever load:
// it times rounds and keeps their encoded outcomes for the digest.
type cellTimer struct {
	mu      sync.Mutex
	started map[string]time.Time
	saved   map[string][]byte
	walls   []time.Duration
}

func (c *cellTimer) Load(key string) ([]byte, bool, error) {
	now := time.Now()
	c.mu.Lock()
	c.started[key] = now
	c.mu.Unlock()
	return nil, false, nil
}

func (c *cellTimer) Save(key string, data []byte) error {
	now := time.Now()
	c.mu.Lock()
	c.walls = append(c.walls, now.Sub(c.started[key]))
	c.saved[key] = data
	c.mu.Unlock()
	return nil
}

// repeatCycles runs whole cycles until at least minUnits units have run
// and another cycle, as long as the last, would overrun the run's time
// by more than half a cycle. It checks that every cycle reproduced the
// first one's digests and returns the units of all cycles.
func repeatCycles(r *runCtx, cycle func() ([]unit, error)) ([]unit, error) {
	var cycles [][]unit
	var units []unit
	start := time.Now()
	var last time.Duration
	for len(units) < minUnits || time.Since(start)+last/2 < r.seconds {
		t := time.Now()
		c, err := cycle()
		last = time.Since(t)
		r.attempted++
		if err != nil {
			r.failed++
			return units, err
		}
		cycles = append(cycles, c)
		units = append(units, c...)
	}
	r.checkCycles(cycles)
	return units, nil
}

// measureSpecs is the timed section of a spec workload: cycles over the
// spec at each of seeds. An untimed warm-up run of the first input at
// one worker comes first; its digest must equal the timed runs' at the
// workload's worker count.
func measureSpecs(r *runCtx, sp spec, seeds []int64, workers int) ([]unit, error) {
	warm, err := runSpec(sp.withSeed(seeds[0]), 1, nil, nil)
	if err != nil {
		return nil, err
	}
	units, err := repeatCycles(r, func() ([]unit, error) {
		var c []unit
		for _, seed := range seeds {
			pr, err := runSpec(sp.withSeed(seed), workers, nil, nil)
			if err != nil {
				return c, err
			}
			c = append(c, pr.unit())
		}
		return c, nil
	})
	if err == nil {
		r.check(warm.digest == units[0].digest, "1-worker digest %s differs from the %d-worker digest %s",
			short(warm.digest), workers, short(units[0].digest))
	}
	return units, err
}

// wrapperCheck runs a short version of sp with and without the timing
// scheduler wrapper: the wrapper must not change behaviour.
func wrapperCheck(r *runCtx, sp spec) error {
	brief := sp
	brief.scen.Duration = min(r.sz.checkDur, sp.duration())
	plain, err := runSpec(brief, 1, nil, nil)
	if err != nil {
		return err
	}
	wrap, err := brief.newTimedSched()
	if err != nil {
		return err
	}
	wrapped, err := runSpec(brief, 1, nil, wrap)
	if err != nil {
		return err
	}
	r.check(plain.digest == wrapped.digest, "scheduler wrapper changed the digest: %s vs %s", short(plain.digest), short(wrapped.digest))
	return nil
}

// runUntraced measures the end-to-end metrics.
func runUntraced(r *runCtx, b *bench) error {
	if b.warm != nil {
		if err := b.warm(r); err != nil {
			return err
		}
	}
	var setup []float64
	constructs := func() error {
		for i := 0; b.construct != nil && i < r.sz.setupReps; i++ {
			t := time.Now()
			err := b.construct()
			setup = append(setup, time.Since(t).Seconds())
			if !r.check(err == nil, "construction: %v", err) {
				return err
			}
		}
		return nil
	}
	if err := constructs(); err != nil {
		return err
	}
	mem := startMem()
	units, err := b.measure(r)
	mem.close()
	if err != nil {
		return err
	}
	if err := constructs(); err != nil {
		return err
	}
	var lat, rates, peaks []float64
	for _, u := range units {
		lat = append(lat, u.latency.Seconds())
		peaks = append(peaks, mem.peak(u.from, u.to))
		if u.busy > 0 {
			rates = append(rates, u.simSeconds/u.busy.Seconds())
		}
		if u.setup > 0 {
			setup = append(setup, u.setup.Seconds())
		}
	}
	r.set("setup_s", median(setup))
	r.set("sim_s_per_s", median(rates))
	r.set("job_p50_s", median(lat))
	r.set("job_p75_s", percentile(lat, 75))
	r.set("peak_mem_mb", median(peaks))
	fmt.Fprintf(r.log, "bench: %s: %d units, %d constructions timed\n", r.name, len(units), len(setup))
	if p, ok := tailPercentile(len(lat)); ok {
		fmt.Fprintf(r.log, "bench: %s: highest percentile with 10 samples beyond: p%g = %.4fs\n", r.name, p, percentile(lat, p))
	}
	return nil
}
